"""Quadratic fields: ideals, class groups, units, and tame ray class groups.

Elements live in the basis (1, w) with w = sqrt(d) or (1+sqrt(d))/2 per
d mod 4, so w^2 = t*w + u with t = D mod 2 and u = (D - t)/4. Ideals are
kept in standard form g*[a, b + w]. Products (by composition) and
reduction theory run on the pair (a, B) with B = 2b + t, entirely in
integers; the real case walks rho-cycles, the imaginary case lands on the
unique reduced form.
"""
from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .abgroup import FiniteAbelianGroup, group_from_relations, hnf_rows, xgcd
from .errors import BudgetError, InputError, InvariantError, require
from .exactmath import (
    crt,
    factor,
    is_prime,
    kronecker,
    power,
    primes_in_progression,
    primes_up_to,
    roots_mod_p,
    squarefree_part,
)

# Entries kept by each per-field LRU cache (class and ray class groups with
# their lookup memos, units, the scan's checkers); an evicted entry rebuilds equal.
FIELD_CACHE_SIZE = 256


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(d)). Equality and hashing look at d alone; D, t, u and
    isqrt_D are computed once per instance (they sit on every arithmetic
    path, isqrt_D on every rho step)."""

    d: int

    @cached_property
    def D(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @cached_property
    def t(self) -> int:
        # w^2 = t*w + u
        return self.D % 2

    @cached_property
    def u(self) -> int:
        return (self.D - self.t) // 4

    @cached_property
    def isqrt_D(self) -> int:
        """floor(sqrt(|D|))."""
        return math.isqrt(abs(self.D))

    @property
    def is_real(self) -> bool:
        return self.d > 0

    def w_mod(self, p: int, root: int) -> int:
        """(t + root)/2 mod an odd p, halved by parity: the image of w at
        the degree-one prime over p that a root of D mod p picks."""
        x = self.t + root
        return (x if x % 2 == 0 else x + p) // 2 % p

    def elt(self, a: int, b: int = 0) -> "QElt":
        return QElt(self, a, b)

    def __repr__(self) -> str:
        return f"Q(sqrt({self.d}))"


def quadratic_field(d: int) -> QuadField:
    if d in (0, 1):
        raise InputError(f"d = {d} does not define a quadratic field")
    if squarefree_part(d) != d:
        raise InputError(f"d = {d} is not squarefree")
    return QuadField(d)


def _sign_plus_root(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d) for d > 0 nonsquare."""
    if x >= 0 and y >= 0:
        return 0 if x == y == 0 else 1
    if x <= 0 and y <= 0:
        return -_sign_plus_root(-x, -y, d)
    if x > 0:  # y < 0
        return 1 if x * x > y * y * d else -1
    return -1 if x * x > y * y * d else 1


@dataclass(frozen=True)
class QElt:
    """x + y*w in O_K."""

    field: QuadField
    x: int
    y: int

    def __add__(self, o: "QElt") -> "QElt":
        return QElt(self.field, self.x + o.x, self.y + o.y)

    def __sub__(self, o: "QElt") -> "QElt":
        return QElt(self.field, self.x - o.x, self.y - o.y)

    def __neg__(self) -> "QElt":
        return QElt(self.field, -self.x, -self.y)

    def __mul__(self, o: "QElt | int") -> "QElt":
        if isinstance(o, int):
            return QElt(self.field, self.x * o, self.y * o)
        t, u = self.field.t, self.field.u
        yy = self.y * o.y
        return QElt(
            self.field,
            self.x * o.x + yy * u,
            self.x * o.y + self.y * o.x + yy * t,
        )

    __rmul__ = __mul__

    def conj(self) -> "QElt":
        return QElt(self.field, self.x + self.y * self.field.t, -self.y)

    def norm(self) -> int:
        t, u = self.field.t, self.field.u
        return self.x * self.x + self.x * self.y * t - self.y * self.y * u

    def trace(self) -> int:
        return 2 * self.x + self.y * self.field.t

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def sign_real(self) -> int:
        """Sign under x + y*w -> x + y*(t + sqrt(d))/2, real fields only."""
        if not self.field.is_real:
            raise ValueError("sign is only defined for real fields")
        return _sign_plus_root(2 * self.x + self.y * self.field.t, self.y, self.field.D)

    def __gt__(self, o: "QElt") -> bool:
        return (self - o).sign_real() > 0

    def exact_div(self, o: "QElt") -> "QElt | None":
        """self / o when the quotient lies in O_K, else None."""
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError
        w = self * o.conj()
        if w.x % n or w.y % n:
            return None
        return QElt(self.field, w.x // n, w.y // n)

    def __pow__(self, e: int) -> "QElt":
        return power(self, e, QElt(self.field, 1, 0))

    def coords(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"({self.x} + {self.y}*w | d={self.field.d})"


@dataclass(frozen=True)
class QIdeal:
    """g * [a, b + w]: the lattice Z*(g*a) + Z*(g*(b+w)). Norm g^2*a."""

    field: QuadField
    g: int
    a: int
    b: int

    def __post_init__(self):
        f = self.field
        if self.g < 1 or self.a < 1 or not 0 <= self.b < self.a:
            raise ValueError("ideal not in normal form")
        if (self.b * (self.b + f.t) - f.u) % self.a != 0:  # N(b + w)
            raise ValueError("lattice is not an ideal (a must divide N(b+w))")

    @staticmethod
    def unit_ideal(field: QuadField) -> "QIdeal":
        return QIdeal(field, 1, 1, 0)

    def norm(self) -> int:
        return self.g * self.g * self.a

    def gen_pair(self) -> tuple[QElt, QElt]:
        f = self.field
        return QElt(f, self.g * self.a, 0), QElt(f, self.g * self.b, self.g)

    def conj(self) -> "QIdeal":
        bb = (-self.b - self.field.t) % self.a
        return QIdeal(self.field, self.g, self.a, bb)

    def __mul__(self, o: "QIdeal") -> "QIdeal":
        """Dirichlet composition on (a, B) with B = 2b + t, so that b + w
        is (B + sqrt D)/2. With d1 = gcd(a1, a2) = x1*a1 + y1*a2 and
        d = gcd(d1, s) = x2*d1 + z*s for s = (B1 + B2)/2, the primitive
        parts multiply to d * [a1*a2/d^2, (B3 + sqrt D)/2] (Cohen, GTM 138,
        section 5.4)."""
        f = self.field
        t = f.t
        a1, a2 = self.a, o.a
        B1, B2 = 2 * self.b + t, 2 * o.b + t
        d1, x1, y1 = xgcd(a1, a2)
        d, x2, z = xgcd(d1, (B1 + B2) // 2)
        A = a1 * a2 // (d * d)
        B3 = (x2 * (x1 * a1 * B2 + y1 * a2 * B1) + z * ((B1 * B2 + f.D) // 2)) // d
        return QIdeal(f, self.g * o.g * d, A, ((B3 - t) // 2) % A)

    def scale(self, n: int) -> "QIdeal":
        if n < 1:
            raise ValueError("scale wants a positive integer")
        return QIdeal(self.field, self.g * n, self.a, self.b)

    def __pow__(self, e: int) -> "QIdeal":
        return power(self, e, QIdeal.unit_ideal(self.field))

    def contains(self, z: QElt) -> bool:
        if z.x % self.g or z.y % self.g:
            return False
        x, y = z.x // self.g, z.y // self.g
        return (x - y * self.b) % self.a == 0

    def key(self) -> tuple[int, int, int]:
        return (self.g, self.a, self.b)

    def entry(self) -> tuple[int, int, int, int]:
        """(p, a, b, g) with p the rational prime below a prime ideal: the
        form in which moduli and ideal generators are written out."""
        return (self.a if self.g == 1 else self.g, self.a, self.b, self.g)

    def __repr__(self) -> str:
        return f"{self.g}*[{self.a}, {self.b}+w | d={self.field.d}]"


def _ideal_from_rows(field: QuadField, rows) -> QIdeal:
    """QIdeal from a spanning set of (coef_w, coef_1) lattice rows. The span
    must already be multiplication-stable."""
    h = hnf_rows(rows)
    if len(h) != 2:
        raise ValueError("generators span a rank-deficient lattice")
    p, q = h[0]
    r = h[1][1]
    if r % p or q % p:
        raise ValueError("generated lattice is not an ideal")
    g, a = p, r // p
    return QIdeal(field, g, a, (q // p) % a)


def is_prime_ideal(I: QIdeal) -> bool:
    # [p, b+w] with p prime is always maximal (index-p ideal lattice);
    # p*O_K is prime exactly when p is inert
    if I.g == 1 and is_prime(I.a):
        return True
    if I.a == 1 and is_prime(I.g):
        return kronecker(I.field.D, I.g) == -1
    return False


def factor_prime(field: QuadField, p: int) -> tuple[str, list[tuple[QIdeal, int, int]]]:
    """Splitting of p*O_K: ("split"|"inert"|"ramified", [(prime, e, f), ...])."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    k = kronecker(field.D, p)
    if k == -1:
        return "inert", [(QIdeal(field, p, 1, 0), 1, 2)]
    roots = roots_mod_p([-field.u, -field.t, 1], p)  # w^2 - t w - u
    if k == 1:
        ideals = [QIdeal(field, 1, p, (-r) % p) for r in roots]
        return "split", [(I, 1, 1) for I in ideals]
    r = roots[0]  # double root at a ramified prime
    return "ramified", [(QIdeal(field, 1, p, (-r) % p), 2, 1)]


# ---------------------------------------------------------------------------
# reduction theory on (a, B) pairs, B = 2b + t


def _B_centered(a: int, B0: int) -> int:
    """The representative of B0 mod 2a in (-a, a]."""
    return B0 - 2 * a * ((B0 + a - 1) // (2 * a))


def _rho_cycle(field: QuadField, a: int, b: int):
    """The rho-cycle of the reduced real [a, b+w] (Cohen, GTM 138, ch. 5),
    once around and back to [a, b+w], as (a_k, b_k, B_k): B_k, the
    representative of 2b_k + t mod 2a_k in (s - 2a_k, s], s = floor(sqrt(D)),
    gives the step out of [a_k, b_k+w], by the factor (B_k - sqrt(D))/(2a_k),
    that is (x + y*w)/den = ((B_k + t) - 2w)/(2a_k)."""
    D, t, s = field.D, field.t, field.isqrt_D
    a0, b0, steps = a, b, 0
    while True:
        B = s - ((s - 2 * b - t) % (2 * a))
        yield a, b, B
        if steps and a == a0 and b == b0:
            return
        steps += 1
        if steps > _CYCLE_BOUND:
            raise BudgetError("rho cycle failed to close")
        c = abs((D - B * B) // (4 * a))
        if c == 0:  # the hot loop of every walk: no call when the check passes
            raise InvariantError("invariant failed: a rho step met a norm-zero form")
        a, b = c, ((-B - t) // 2) % c


def _reduce_primitive(field: QuadField, a: int, b: int):
    """Reduce [a, b+w]; returns (a*, b*, steps) with [a*, b*+w] equal to
    mu * [a, b+w], mu the product of the factors (x + y*w) / den of the
    (x, y, den) in `steps`. A real ideal takes rho steps in one loop until
    B in (s-2a, s] is positive with 2a <= B or (2a - B)^2 < D. An imaginary
    ideal descends to the unique reduced form."""
    limit = 64 + 4 * (a.bit_length() + abs(field.D).bit_length())
    D, t = field.D, field.t
    steps = []
    if field.is_real:
        s = field.isqrt_D
        while True:
            B0 = 2 * b + t
            if a > s:  # then 2a - B > s + 1 > sqrt(D): never reduced
                B = B0 - 2 * a * ((B0 + a - 1) // (2 * a))  # _B_centered
            else:
                B = s - ((s - B0) % (2 * a))
                if B > 0 and (2 * a <= B or (2 * a - B) ** 2 < D):
                    return a, b, steps
            if len(steps) == limit:
                raise InvariantError("invariant failed: reduction failed to terminate")
            c = abs((D - B * B) // (4 * a))
            if c == 0:
                raise InvariantError("invariant failed: a rho step met a norm-zero form")
            steps.append((B + t, -2, 2 * a))  # (B - sqrt(D)) / (2a)
            a, b = c, ((-B - t) // 2) % c
    while True:
        B = _B_centered(a, 2 * b + t)
        c = (B * B - D) // (4 * a)
        if a < c or (a == c and B >= 0):
            return a, b, steps
        if a == c:  # B < 0: pass to the conjugate lattice, same class
            steps.append(((B + t) // 2, -1, a))
            b = (-b - t) % a
            continue
        # a > c: descend to the neighbour form
        steps.append((B + t, -2, 2 * a))
        a, b = c, ((-B - t) // 2) % c
        if len(steps) > limit:
            raise InvariantError("invariant failed: reduction failed to terminate")


_CYCLE_BOUND = 10**6  # rho steps before a cycle walk gives up


def _walk_to(field: QuadField, a: int, b: int, steps: list, meets):
    """The first (a_k, b_k) with meets(a_k, b_k) on the rho-cycle of the
    reduced [a, b+w], itself first, the factors of the steps to it appended
    to `steps`; None if none does. An imaginary class has one member."""
    if not field.is_real:
        return (a, b) if meets(a, b) else None
    t = field.t
    for ak, bk, B in _rho_cycle(field, a, b):
        if meets(ak, bk):
            return ak, bk
        steps.append((B + t, -2, 2 * ak))
    return None


def _class_cycle(field: QuadField, a: int, b: int) -> tuple[tuple[int, int], list[tuple]]:
    """(class key, the reduced ideals of the class as (a, b, B)) for the
    reduced [a, b+w], itself first: B as in `_rho_cycle` in a real field,
    centered in (-a, a] in an imaginary one, whose class has one reduced
    ideal."""
    if field.is_real:
        members = list(_rho_cycle(field, a, b))[:-1]  # the walk ends where it began
    else:
        members = [(a, b, _B_centered(a, 2 * b + field.t))]
    return min((a, B) for a, _, B in members), members


def _steps_product(field: QuadField, steps) -> tuple[QElt, int]:
    """(num, den), unreduced, with num / den the product of the factors
    (x + y*w) / den of `steps`: the exact multiplier of a walk."""
    num, den = QElt(field, 1, 0), 1
    for x, y, e in steps:
        num, den = num * QElt(field, x, y), den * e
    return num, den


def class_key(I: QIdeal) -> tuple[int, int]:
    """Canonical key for the (wide) ideal class of I."""
    return _class_cycle(I.field, *_reduce_primitive(I.field, I.a, I.b)[:2])[0]


def is_principal_with_generator(I: QIdeal) -> QElt | None:
    """A generator of I when I is principal (wide sense), else None."""
    f = I.field
    a, b, steps = _reduce_primitive(f, I.a, I.b)
    if _walk_to(f, a, b, steps, lambda a, _: a == 1) is None:  # to [1, w]
        return None
    num, den = _steps_product(f, steps)  # [1, w] = (num / den) * [a, b + w]
    gen = QElt(f, den, 0).exact_div(num)
    require(gen is not None, "the unit-ideal multiplier does not invert integrally")
    gen = gen * I.g
    require(_generates(I, gen), "the generator found does not generate the ideal")
    return gen


def _generates(I: QIdeal, z: QElt) -> bool:
    """Whether (z) = I, without building the HNF of (z)."""
    # (z) inside I has index N((z))/N(I) = |N(z)|/N(I), so equal norms force (z) = I
    return I.contains(z) and abs(z.norm()) == I.norm()


# ---------------------------------------------------------------------------
# fundamental unit and class group


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def fundamental_unit(field: QuadField) -> QElt:
    """Smallest unit > 1 of a real quadratic field."""
    if not field.is_real:
        raise InputError("fundamental unit requires a real field")
    # O_K = [1, w] is reduced, and the steps once around its rho-cycle
    # multiply to the multiplier of one period
    steps = [(B + field.t, -2, 2 * a) for a, _, B in _class_cycle(field, 1, 0)[1]]
    num, den = _steps_product(field, steps)
    require(num.x % den == 0 and num.y % den == 0, "the period multiplier is not integral")
    eps = QElt(field, num.x // den, num.y // den)
    # |eps| < 1 along the contraction; the fundamental unit is a signed inverse
    inv = QElt.exact_div(QElt(field, 1, 0), eps)
    require(inv is not None, "the period multiplier is not a unit")
    eps = inv if inv.sign_real() > 0 else -inv
    require(abs(eps.norm()) == 1 and eps > QElt(field, 1, 0),
            "the fundamental unit is not a unit greater than 1")
    return eps


def torsion_unit(field: QuadField) -> tuple[QElt, int]:
    """A generator of the roots of unity and its order."""
    if field.d == -1:
        return QElt(field, 0, 1), 4
    if field.d == -3:
        return QElt(field, 0, 1), 6
    return QElt(field, -1, 0), 2


def unit_gens(field: QuadField) -> list[QElt]:
    """Generators of the full unit group O_K^*."""
    if field.is_real:
        return [QElt(field, -1, 0), fundamental_unit(field)]
    return [torsion_unit(field)[0]]


@dataclass(frozen=True)
class ClassGroupData:
    field: QuadField
    group: FiniteAbelianGroup

    @property
    def h(self) -> int:
        return self.group.order()


def _candidate_primes(field: QuadField) -> Iterator[QIdeal]:
    """Non-inert primes in ascending rational order, one per split pair.
    The bound comfortably dominates the Minkowski constant."""
    bound = (field.isqrt_D // 2 if field.is_real else field.isqrt_D) + 2
    for p in primes_up_to(bound):
        kind, data = factor_prime(field, p)
        if kind == "inert":
            continue
        yield data[0][0]


def _bfs_closure(
    field: QuadField, gens: Sequence[QIdeal]
) -> tuple[dict, list[list[int]]]:
    """Breadth-first closure of the subgroup generated by the given prime
    classes. Returns (table: key -> exponent vector, relation rows). Each
    class is walked from the reduced ideal its key names (`_key_ideal`),
    so each product is a reduced ideal times one prime, never a power.

    Only `_ray_ideal_gens` uses this. Its relation rows, in this order, fix
    the SNF basis of Cl^m, and that basis fixes the coordinates that
    `--class` targets name and that certificates record; the visiting
    order and the rows must therefore stay as they are."""
    r = len(gens)
    start = class_key(QIdeal.unit_ideal(field))
    table = {start: (0,) * r}
    frontier = deque([start])
    relations: list[list[int]] = []
    while frontier:
        key = frontier.popleft()
        vec, rep = table[key], _key_ideal(field, key)
        for i, P in enumerate(gens):
            J = rep * P
            jk = class_key(J)
            nvec = list(vec)
            nvec[i] += 1
            if jk in table:
                rel = [a - b for a, b in zip(nvec, table[jk])]
                if any(rel):
                    relations.append(rel)
            else:
                table[jk] = tuple(nvec)
                frontier.append(jk)
    return table, relations


def _key_ideal(field: QuadField, key: tuple[int, int]) -> QIdeal:
    """The reduced primitive ideal [a, b + w] that a class key names."""
    a, B = key
    return QIdeal(field, 1, a, ((B - field.t) // 2) % a)


def _coset_closure(
    field: QuadField, primes: Iterable[QIdeal]
) -> tuple[list[QIdeal], dict, list[list[int]]]:
    """The subgroup generated by the given prime classes, grown one prime
    at a time (Cohen, GTM 138, 5.4). With H the subgroup so far, e is the
    least exponent with [P]^e in H. A prime with e = 1 adds no class and is
    dropped; otherwise it becomes generator x_i, the cosets P^k * H for
    0 < k < e join the table, and the relation e*x_i - vec([P]^e) is kept.
    Each new class costs one ideal product of reduced representatives.
    Returns (generators, table: key -> exponent vector without trailing
    zeros, relation rows): a k x k lower-triangular matrix, every diagonal
    entry > 1, whose diagonal multiplies to len(table)."""
    gens: list[QIdeal] = []
    table = {class_key(QIdeal.unit_ideal(field)): ()}
    relations: list[list[int]] = []
    for P in primes:
        i, base = len(gens), list(table)  # the keys of H, identity first
        coset, e = base, 1
        while (lead := class_key(_key_ideal(field, coset[0]) * P)) not in table:
            coset = [lead] + [class_key(_key_ideal(field, c) * P) for c in coset[1:]]
            table.update((new, (*table[old], *[0] * (i - len(table[old])), e))
                         for old, new in zip(base, coset))
            e += 1
        if e > 1:
            gens.append(P)
            relations.append([-c for c in table[lead]] + [0] * (i - len(table[lead])) + [e])
    return gens, table, [row + [0] * (len(gens) - len(row)) for row in relations]


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def class_group(field: QuadField) -> ClassGroupData:
    """Wide ideal class group via prime classes below the Minkowski bound,
    presented by the k x k relation matrix of `_coset_closure` on the k
    primes that each enlarge the subgroup before them.

    The SNF basis of this group is seen nowhere outside it: ray class
    groups, biquadratic unit groups and the CLI read only `h`."""
    gens, table, relations = _coset_closure(field, _candidate_primes(field))
    labels = tuple(f"P{P.entry()[0]}_{P.b}" for P in gens)
    group = group_from_relations(relations, labels)
    require(group.order() == len(table), "the relations do not present the closure")
    return ClassGroupData(field, group)


# ---------------------------------------------------------------------------
# moduli and residue systems


@dataclass(frozen=True)
class Modulus:
    field: QuadField
    primes: tuple[QIdeal, ...]

    def __post_init__(self):
        seen = set()
        for q in self.primes:
            if not is_prime_ideal(q):
                raise InputError(f"modulus component {q} is not prime")
            if q.key() in seen:
                raise InputError("modulus must be squarefree (distinct primes)")
            seen.add(q.key())

    @staticmethod
    def trivial(field: QuadField) -> "Modulus":
        return Modulus(field, ())

    @staticmethod
    def from_entries(field: QuadField, entries) -> "Modulus":
        """The modulus that `entries()` wrote, checked: each entry must be
        (p, a, b, g) for a prime g*[a, b + w] in normal form, p the rational
        prime below it."""
        try:
            entries = tuple(map(tuple, entries))
            primes = tuple(QIdeal(field, g, a, b) for _, a, b, g in entries)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed modulus entry: {exc}") from None
        modulus = Modulus(field, primes)
        if modulus.entries() != entries:
            raise InputError("a modulus entry names the wrong prime below its ideal")
        return modulus

    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(q.entry() for q in self.primes)

    def norm(self) -> int:
        return self._norm

    @cached_property
    def _norm(self) -> int:
        return math.prod(q.norm() for q in self.primes)

    def residue_chars(self) -> set[int]:
        return {q.entry()[0] for q in self.primes}

    def is_conj_stable(self) -> bool:
        keys = {q.key() for q in self.primes}
        return all(q.conj().key() in keys for q in self.primes)

    def coprime_to(self, I: QIdeal) -> bool:
        """Whether no prime of m divides I = g*[a, b + w]: every prime of m
        over a p | g divides I, so g must be prime to N(m), and then the
        primitive part decides (`coprime_to_primitive`)."""
        return math.gcd(I.g, self.norm()) == 1 and self.coprime_to_primitive(I.a, I.b)

    def coprime_to_primitive(self, a: int, b: int) -> bool:
        """Whether no prime of m divides the primitive [a, b + w]. A prime
        [p, c + w] of m holds it exactly when p | a and p | b - c; an inert
        (p) holds no primitive ideal."""
        return math.gcd(a, self.norm()) == 1 or not any(
            q.g == 1 and a % q.a == 0 and (b - q.b) % q.a == 0 for q in self.primes
        )


def descriptor(ideals: Sequence[QIdeal]) -> list[dict]:
    """The entries of `ideals` as the {p, a, b, g} dicts that reports print."""
    return [dict(zip("pabg", I.entry())) for I in ideals]


def modulus_from_rational(field: QuadField, m: int) -> Modulus:
    """All primes of K above each prime divisor of the squarefree m >= 1."""
    if m < 1:
        raise InputError("modulus integer must be positive")
    primes: list[QIdeal] = []
    for p, k in factor(m).items():
        if k > 1:
            raise InputError(f"modulus {m} is not squarefree")
        _, data = factor_prime(field, p)
        primes.extend(I for I, _, _ in data)
    primes.sort(key=lambda q: q.key())
    return Modulus(field, tuple(primes))


class _Fp2:
    """F_{p^2} = F_p[w]/(w^2 - t w - u); an element x + y*w is the pair (x, y)."""

    def __init__(self, p: int, t: int, u: int):
        self.p, self.t, self.u = p, t % p, u % p

    def mul(self, A, B):
        (a, b), (c, e) = A, B
        p, t, u = self.p, self.t, self.u
        be = b * e
        return ((a * c + be * u) % p, (a * e + b * c + be * t) % p)


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    fs = list(factor(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fs):
            return g
        g += 1


class ResidueFactor:
    """(O/Q)^* for one prime Q of K or of L, as a cyclic group with a
    generator and discrete logs.

    The residue field is F_p (f = 1; residues are ints, tu is None) or
    F_{p^2} presented as F_p[w]/(w^2 - t*w - u) with (t, u) = tu (f = 2;
    residues are pairs (x, y) for x + y*w). `images` are the residues of the
    ring's integral basis, in the order of `coords()`, so an element's
    residue is the combination of its coordinates with them."""

    def __init__(
        self, p: int, f: int, tu: tuple[int, int] | None, images: Sequence
    ):
        self.p, self.f, self.images = p, f, tuple(images)
        if f == 1:
            self.order, self.one, self.zero = p - 1, 1, 0
            self.mul = lambda A, B: A * B % p
            self.gen = _primitive_root(p) % p
        else:
            self.order, self.one, self.zero = p * p - 1, (1, 0), (0, 0)
            self.mul = _Fp2(p, *tu).mul
            self._columns = tuple(zip(*self.images))
            self.gen = self._find_generator()

    def _find_generator(self):
        fs = list(factor(self.order))
        for y in range(1, self.p):
            for x in range(self.p):
                cand = (x, y)
                if all(
                    power(cand, self.order // r, self.one, self.mul) != self.one
                    for r in fs
                ):
                    return cand
        raise InvariantError("invariant failed: no generator found in F_p^2")

    def residue(self, z):
        p, c = self.p, z.coords()
        if self.f == 1:
            return sum(map(operator.mul, c, self.images)) % p
        xs, ys = self._columns
        return (
            sum(map(operator.mul, c, xs)) % p, sum(map(operator.mul, c, ys)) % p
        )

    def is_unit_residue(self, z) -> bool:
        return self.residue(z) != self.zero

    @cached_property
    def _steps(self):
        """(s, {gen^j: j for j < s}, gen^-s) with s = isqrt(order) + 1: the
        baby steps and the giant step of every discrete log here."""
        s = math.isqrt(self.order) + 1
        baby = {}
        cur = self.one
        for j in range(s):
            baby.setdefault(cur, j)
            cur = self.mul(cur, self.gen)
        return s, baby, power(self.gen, -s % self.order, self.one, self.mul)

    def dlog(self, z) -> int:
        return self.dlog_residue(self.residue(z))

    def dlog_residue(self, r) -> int:
        """The exponent k with gen^k = r, for a residue r in the form
        `residue` gives."""
        if r != self.zero:
            s, baby, giant = self._steps
            for i in range(s + 1):
                j = baby.get(r)
                if j is not None:
                    return (i * s + j) % self.order
                r = self.mul(r, giant)
        raise ValueError("element is not coprime to the modulus")

    def lift_power(self, k: int):
        """The residue gen^k."""
        return power(self.gen, k, self.one, self.mul)


def _residue_factor(field: QuadField, q: QIdeal) -> ResidueFactor:
    """(O_K/q)^*: w maps to -b in F_p when q = [p, b + w], and to itself in
    F_{p^2} = O_K/(p) when p is inert."""
    if q.g == 1:
        return ResidueFactor(q.a, 1, None, (1, -q.b % q.a))
    return ResidueFactor(q.g, 2, (field.t, field.u), ((1, 0), (0, 1)))


class ResidueSystem:
    """(O/m)^* as a product of cyclic factors with discrete logs. `dlog`
    gives the exponents over the factors' generators, and `vector` the
    coordinates in `group`, the product in invariant-factor form. `field`
    is set for a modulus of K, where dlog_int and crt_lift build elements."""

    def __init__(
        self, factors: Sequence[ResidueFactor], field: QuadField | None = None
    ):
        self.field = field
        self.factors = list(factors)
        self.orders = tuple(f.order for f in self.factors)

    def order(self) -> int:
        return math.prod(self.orders)

    def dlog(self, z) -> tuple[int, ...]:
        return tuple(f.dlog(z) for f in self.factors)

    def dlog_int(self, n: int) -> tuple[int, ...]:
        return self.dlog(QElt(self.field, n, 0))

    def is_unit(self, z) -> bool:
        return all(f.is_unit_residue(z) for f in self.factors)

    @cached_property
    def group(self) -> FiniteAbelianGroup:
        n = len(self.orders)
        rows = [
            [o if i == j else 0 for j in range(n)] for i, o in enumerate(self.orders)
        ]
        return group_from_relations(rows, tuple(f"r{i}" for i in range(n)))

    def vector(self, z) -> tuple[int, ...]:
        """The class of z, a unit mod m, in `group`."""
        return self.group.dlog_ambient(self.dlog(z))

    def crt_lift(self, exps: Sequence[int]) -> QElt:
        """An element of O_K congruent to gen_i^exps[i] at factor i, for all i."""
        by_p: dict[int, list[tuple[ResidueFactor, int]]] = {}
        for f, e in zip(self.factors, exps, strict=True):
            by_p.setdefault(f.p, []).append((f, f.lift_power(e)))
        xs, ys, mods = [], [], []
        for p, items in sorted(by_p.items()):
            if items[0][0].f == 2:
                (_, (x, y)), = items
            elif len(items) == 1:
                x, y = items[0][1], 0
            else:
                # two split primes over p: x + y*w1 = v1 and x + y*w2 = v2
                (f1, v1), (f2, v2) = items
                w1, w2 = f1.images[1], f2.images[1]
                y = (v1 - v2) * pow(w1 - w2, -1, p) % p
                x = (v1 - y * w1) % p
            xs.append(x)
            ys.append(y)
            mods.append(p)
        if not mods:
            return QElt(self.field, 1, 0)
        x, _ = crt(xs, mods)
        y, _ = crt(ys, mods)
        z = QElt(self.field, x, y)
        require(self.is_unit(z), "a CRT lift of units is not a unit")
        return z


def residue_system(field: QuadField, modulus: Modulus) -> ResidueSystem:
    return ResidueSystem([_residue_factor(field, q) for q in modulus.primes], field)


class _LocalPrime:
    """Q-adic valuation and unit-part residue at one prime Q of K, in the
    residue form of `_residue_factor(field, Q)`.

    With v = v_Q(x), `unit` reads the residue of x / p^v for Q = (p) inert,
    and of x * s^v / p^v for Q = [p, b + w], s = conj(b + w): s lies
    outside Q when p splits and has v_Q(s) = 1 when (p) = Q^2, so for x in
    Q, x * s / p is integral with one less Q-valuation. The map is
    multiplicative and is the residue on Q-units; in a multiplier of
    Q-valuation 0, the only kind whose residue is read (by `quotient`),
    the factors s^v / p^v of numerator and denominator cancel."""

    __slots__ = ("p", "b", "t", "u", "mul")

    def __init__(self, field: QuadField, q: QIdeal):
        self.t, self.u = field.t, field.u
        if q.g > 1:  # inert: residues are pairs (x, y) in F_p^2
            self.p, self.b = q.g, None
            self.mul = _Fp2(q.g, field.t, field.u).mul
            return
        p = self.p = q.a
        self.b = q.b
        self.mul = lambda r, s: r * s % p

    def unit(self, x: int, y: int):
        """(v_Q(x + y*w), residue of its unit part), for x + y*w != 0."""
        p, v = self.p, 0
        if self.b is None:
            while x % p == 0 and y % p == 0:
                x, y, v = x // p, y // p, v + 1
            return v, (x % p, y % p)
        b = self.b
        while (r := (x - y * b) % p) == 0:
            # (x + y*w) * s with s = (b + t) - w, and w^2 = t*w + u
            x, y = (x * (b + self.t) - y * self.u) // p, (y * b - x) // p
            v += 1
        return v, r

    def fold(self, state, factors):
        """`state` = (v, num, den) of a multiplier, times each (x + y*w) / den
        of `factors`; num is the unit residue of the numerators, den that of
        the denominators (in F_p: the unit part of an integer)."""
        v, num, dr = state
        p, b, mul = self.p, self.b, self.mul
        for x, y, den in factors:
            if b is None or not (rx := (x - y * b) % p):
                vx, rx = self.unit(x, y)  # not in the common case, a Q-unit
                v += vx
            num = mul(num, rx)
            if not (r := den % p):
                vd, r = self.unit(den, 0)
                if b is None:
                    r = r[0]
                v -= vd
            dr = dr * r % p
        return v, num, dr

    def quotient(self, g: int, state):
        """The residue of g * den / num, a unit of F_Q."""
        v, num, dr = state
        require(v == 0, "the multiplier is not a unit at a prime of m")
        p, k = self.p, g * dr
        if self.b is not None:
            return k * pow(num, -1, p) % p
        x, y = num
        k = k * pow(x * x + self.t * x * y - self.u * y * y, -1, p)
        return (x + y * self.t) * k % p, -y * k % p


class _LocalMult:
    """A multiplier mu = num/den known only through its local data at the
    primes of m (`_LocalPrime`), which is all a ray class needs of it. The
    walks hand back their step factors, and the ray class layer folds them
    in here; only generators and units form the element
    (`_steps_product`)."""

    __slots__ = ("primes", "state")

    def __init__(self, primes: Sequence[_LocalPrime], state: tuple):
        self.primes, self.state = primes, state

    @staticmethod
    def one(field: QuadField, modulus: Modulus) -> "_LocalMult":
        primes = tuple(_LocalPrime(field, q) for q in modulus.primes)
        return _LocalMult(
            primes, tuple((0, (1, 0) if P.b is None else 1, 1) for P in primes)
        )

    def fold(self, factors) -> "_LocalMult":
        """This multiplier times each (x + y*w) / den of `factors`."""
        if not factors:
            return self
        return _LocalMult(self.primes, tuple(
            [P.fold(s, factors) for P, s in zip(self.primes, self.state)]
        ))

    def dlogs(self, residue: ResidueSystem, g: int) -> tuple[int, ...]:
        """The discrete logs of g / mu at the residue factors of m, g prime to m."""
        return tuple(
            F.dlog_residue(P.quotient(g, st))
            for F, P, st in zip(residue.factors, self.primes, self.state, strict=True)
        )


def adjust_by_units(y, residue: ResidueSystem, units: Sequence):
    """y * prod u_i^c_i with residue 1 at every factor, or None when the
    unit images cannot reach the class of 1/y. Each c_i is reduced mod the
    order of u_i's image."""
    if not residue.factors:
        return y
    group = residue.group
    uvecs = [residue.vector(u) for u in units]
    coeffs = group.express(uvecs, group.scale(-1, residue.vector(y)))
    if coeffs is None:
        return None
    out = y
    for u, v, c in zip(units, uvecs, coeffs):
        out = out * u ** (c % group.element_order(v))
    require(not any(residue.dlog(out)), "the unit adjustment is not 1 mod m")
    return out


# ---------------------------------------------------------------------------
# ray class groups


def _cofactor_residue(I: QIdeal, gens: Sequence[QIdeal], v: Sequence[int],
                      residue: ResidueSystem, one: _LocalMult | None):
    """The residue part of I against the primes P_i of `gens`: with
    C = prod conj(P_i)^(v_i) and I*C = (y) principal, dlog(y) - dlog_int(N C),
    unreduced, since P_i * conj(P_i) = (N P_i); None when I*C is not
    principal. y is never built: the steps of the walk of I*C = g*J to
    [1, w] = mu*J fold into `one` (None for m = 1, whose part is empty), the
    local data of mu, and y = g/mu."""
    C = QIdeal.unit_ideal(I.field)
    for P, e in zip(gens, v):
        if e:
            C = C * P.conj() ** e
    J = I * C
    a, b, steps = _reduce_primitive(J.field, J.a, J.b)
    if _walk_to(J.field, a, b, steps, lambda a, _: a == 1) is None:
        return None
    logs = () if one is None else one.fold(steps).dlogs(residue, J.g)  # those of y = g/mu
    return tuple(map(operator.sub, logs, residue.dlog_int(C.norm())))


@dataclass(frozen=True)
class RayClassData:
    field: QuadField
    modulus: Modulus
    group: FiniteAbelianGroup
    cl: ClassGroupData
    ideal_gens: tuple[QIdeal, ...]
    residue: ResidueSystem
    ray_table: dict  # class_key -> exponent vector over ideal_gens
    unit_image_order: int
    one: _LocalMult | None = dc_field(compare=False, repr=False)  # None for m = 1
    # The lookup memo, filled by dlog and dropped with the group: reduced
    # primitive pair (a, b), coprime to m -> coordinates in `group` of
    # [a, b + w]. A miss fills the whole rho-cycle of the reduced ideal.
    vectors: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def n_ideal(self) -> int:
        return len(self.ideal_gens)

    def dlog(self, I: QIdeal) -> tuple[int, ...]:
        """The coordinates of [I] in `group`, I coprime to m: the shared
        lookup `_lookup` on I = g*[a, b + w]."""
        if not self.modulus.coprime_to(I):
            raise InputError("ideal is not coprime to the modulus")
        return self._lookup(I.g, I.a, I.b)

    def dlog_prime(self, p: int, root: int) -> tuple[int, ...]:
        """`dlog` of the prime over p, prime to N(m), on which w maps to
        `w_mod(p, root)` for a root of D mod p (`prime_above_from_root`): the
        scan's entry to the same lookup, which builds no ideal."""
        if math.gcd(p, self.modulus.norm()) != 1:
            raise InputError("prime is not coprime to the modulus")
        return self._lookup(1, p, -self.field.w_mod(p, root) % p)

    def _lookup(self, g: int, a0: int, b0: int) -> tuple[int, ...]:
        """The coordinates of I = g*[a0, b0 + w], coprime to m.

        I = g*J with J primitive reduces to R = mu*J, so
        [I] = [R] + [(g / mu)]. [R] comes from the memo; [(g / mu)] is the
        class of the residue of g/mu, read off the local data of mu at the
        primes of m (`_LocalMult`), which takes on the walks' step factors
        in one fold. Without residue factors no multiplier is built and
        [I] = [R]. When R meets m, the walk goes on along R's rho-cycle to
        the first member coprime to m; only a class with no reduced ideal
        coprime to m builds I and walks I*C_v to [1, w] (see
        `_generator_vector`). Cohen, GTM 193, section 4.2, computes ray
        class logs through (O/m)^* in the same way."""
        f = self.field
        a, b, steps = _reduce_primitive(f, a0, b0)
        coprime = self.modulus.coprime_to_primitive
        if not coprime(a, b):
            member = _walk_to(f, a, b, steps, coprime)
            if member is None:
                I = QIdeal(f, g, a0, b0)
                vec = self._generator_vector(I, self.ray_table[class_key(I)])
                return self.group.dlog_ambient(vec)
            a, b = member
        vec = self.vectors.get((a, b))
        if vec is None:
            vec = self._fill(a, b)
        return vec if self.one is None else self._moved(vec, self.one.fold(steps), g, 1)

    def _generator_vector(self, I: QIdeal, v: tuple[int, ...]) -> tuple[int, ...]:
        """The ambient vector of [I] from its class vector v: v, then the
        residue part of I against C_v = prod conj(P_i)^(v_i)
        (`_cofactor_residue`) mod the factor orders."""
        res = _cofactor_residue(I, self.ideal_gens, v, self.residue, self.one)
        require(res is not None, "the class vector's cofactor leaves a non-principal ideal")
        return v + tuple(r % o for r, o in zip(res, self.residue.orders))

    @cached_property
    def _residue_rows(self) -> tuple[tuple[int, ...], ...]:
        """`group.to_canonical` rows of the residue factor generators."""
        return self.group.to_canonical[self.n_ideal:]

    def _moved(self, vec: tuple[int, ...], mu: _LocalMult, g: int, sign: int):
        """vec + sign * [(g / mu)], with one discrete log per residue factor."""
        exps = [e * sign for e in mu.dlogs(self.residue, g)]
        return tuple(
            (c + sum(e * row[j] for e, row in zip(exps, self._residue_rows))) % n
            for j, (c, n) in enumerate(zip(vec, self.group.invariants))
        )

    def _fill(self, a: int, b: int) -> tuple[int, ...]:
        """Memoize the coordinates of each ideal coprime to m in the cycle
        of the reduced R0 = [a, b + w], itself coprime to m, and return
        R0's. R0's come through one cofactor walk; each member R_k = mu_k*R0
        then gets [R0] + [(mu_k)]."""
        f = self.field
        key, members = _class_cycle(f, a, b)
        vec = self.group.dlog_ambient(
            self._generator_vector(QIdeal(f, 1, a, b), self.ray_table[key])
        )
        mu = self.one
        for ak, bk, B in members:  # R0 itself first, with mu_0 = 1
            if self.modulus.coprime_to_primitive(ak, bk):
                self.vectors[ak, bk] = vec if mu is None else self._moved(vec, mu, 1, -1)
            if mu is not None:
                mu = mu.fold(((B + f.t, -2, 2 * ak),))
        return vec

    def class_of_principal(self, z: QElt) -> tuple[int, ...]:
        """Ray class of the principal ideal (z), z coprime to m."""
        vec = (0,) * self.n_ideal + self.residue.dlog(z)
        return self.group.dlog_ambient(vec)


def _ray_ideal_gens(field: QuadField, modulus: Modulus, cl: ClassGroupData):
    """Prime-ideal generators of Cl avoiding the modulus support."""
    if cl.h == 1:
        return (), {class_key(QIdeal.unit_ideal(field)): ()}, []
    skip = frozenset(modulus.residue_chars())
    gens: list[QIdeal] = []
    limit = 1000 * max(abs(field.D), 100)
    for p in primes_in_progression(1, 1, start=2):
        if p > limit:
            break
        if p in skip:
            continue
        kind, data = factor_prime(field, p)
        if kind == "inert":
            continue
        gens.append(data[0][0])
        table, relations = _bfs_closure(field, gens)
        if len(table) == cl.h:
            return tuple(gens), table, relations
    raise BudgetError(f"no primes below {limit} generate the class group away from m")


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def ray_class_group(field: QuadField, modulus: Modulus) -> RayClassData:
    """Cl^m_K presented over prime-ideal generators and residue generators."""
    cl = class_group(field)
    ideal_gens, table, cl_relations = _ray_ideal_gens(field, modulus, cl)
    residue = residue_system(field, modulus)
    r, s = len(ideal_gens), len(residue.factors)
    labels = tuple(f"P{i}" for i in range(r)) + tuple(f"U{i}" for i in range(s))
    one = _LocalMult.one(field, modulus) if s else None  # every fold of the group starts here
    rows: list[list[int]] = []
    for rel in cl_relations:
        # rel = pos - neg, and Jp * C = (alpha) for Jp = prod P_i^pos_i and
        # C = prod conj(P_i)^neg_i: rel less Jp's residue part is a relation
        Jp = QIdeal.unit_ideal(field)
        for P, e in zip(ideal_gens, rel):
            Jp = Jp * (P ** max(e, 0))
        res = _cofactor_residue(Jp, ideal_gens, [max(-e, 0) for e in rel], residue, one)
        require(res is not None, "a harvested relation is not principal")
        rows.append(list(rel) + [-c for c in res])
    for u in unit_gens(field):
        rows.append([0] * r + list(residue.dlog(u)))
    for i, o in enumerate(residue.orders):
        rows.append([0] * r + [o if j == i else 0 for j in range(s)])
    if r + s == 0:
        rows = []
    group = group_from_relations(rows, labels)
    # unit image inside (O/m)^*, for the exact-sequence order identity
    unit_image = residue.group.subgroup_order(
        [residue.vector(u) for u in unit_gens(field)]
    )
    data = RayClassData(
        field, modulus, group, cl, ideal_gens, residue, table, unit_image, one
    )
    expected = cl.h * residue.order() // unit_image
    require(group.order() == expected, "the exact-sequence order identity fails")
    return data


def aug_unit_data(field: QuadField, modulus: Modulus) -> tuple[QElt, int]:
    """(eps, k) with eps = u^k the smallest power of the fundamental unit
    that has norm +1 and is 1 mod^x m. Conjugation then inverts eps."""
    if not field.is_real:
        raise InputError("augmentation unit requires a real field")
    u = fundamental_unit(field)
    k0 = 1 if u.norm() == 1 else 2
    base = u**k0
    residue = ray_class_group(field, modulus).residue
    e = residue.group.element_order(residue.vector(base))
    return base**e, k0 * e
