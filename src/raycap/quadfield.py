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
from functools import cached_property, lru_cache, partial
from itertools import repeat, starmap
from typing import Iterable, Iterator, Sequence

from .abgroup import FiniteAbelianGroup, group_from_relations, hnf_rows, lattice_index, xgcd
from .errors import BudgetError, InputError, InvariantError, require
from .exactmath import (
    crt,
    factor,
    is_prime,
    power,
    primes_1_mod,
    primes_up_to,
    roots_mod_p,
)

# Entries kept by each per-field LRU cache (class and ray class groups with
# their lookup memos, units, residue fields, the scan's checkers); an evicted
# entry rebuilds equal.
FIELD_CACHE_SIZE = 256


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(d)). Equality and hashing look at d alone. The discriminant D,
    t and u with w^2 = t*w + u, isqrt_D = floor(sqrt(|D|)) and minpoly, the
    coefficients of w^2 - t*w - u low to high for `roots_mod_p`, are set
    once in `__post_init__` (they sit on every arithmetic path, isqrt_D on
    every rho step) and travel with a pickled field. `factor_D`, the
    factorization of |D|, is computed on first use and kept."""

    d: int
    D: int = dc_field(init=False, compare=False)
    t: int = dc_field(init=False, compare=False)
    u: int = dc_field(init=False, compare=False)
    isqrt_D: int = dc_field(init=False, compare=False)
    minpoly: tuple[int, int, int] = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        D = self.d if self.d % 4 == 1 else 4 * self.d
        t = D % 2
        u = (D - t) // 4
        # frozen, so the instance dict is filled directly
        self.__dict__.update(D=D, t=t, u=u, isqrt_D=math.isqrt(abs(D)), minpoly=(-u, -t, 1))

    @property
    def factor_D(self) -> dict[int, int]:
        """{p: v_p(D)} over the primes of |D|, ascending, kept in the
        instance dict after the first read."""
        if (out := self.__dict__.get("_factor_D")) is None:
            out = factor(abs(self.D))
            require(math.prod(starmap(pow, out.items())) == abs(self.D),
                    "the factors of D do not multiply back to |D|")
            self.__dict__["_factor_D"] = out
        return out

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
    """Q(sqrt(d)) for a squarefree d, read off the factorization of D that
    the field keeps: D = d or 4d, so d is squarefree exactly when
    v_2(D) <= 3 and every odd prime divides D once."""
    if d in (0, 1):
        raise InputError(f"d = {d} does not define a quadratic field")
    field = QuadField(d)
    if any(k > (3 if p == 2 else 1) for p, k in field.factor_D.items()):
        raise InputError(f"d = {d} is not squarefree")
    return field


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
        """The product by `_compose`."""
        return QIdeal(self.field, *_compose(self.field, self.key(), o.key()))

    def scale(self, n: int) -> "QIdeal":
        if n < 1:
            raise ValueError("scale wants a positive integer")
        return QIdeal(self.field, self.g * n, self.a, self.b)

    def __pow__(self, e: int) -> "QIdeal":
        # `power` reads its identity only at e = 0
        return power(self, e, QIdeal.unit_ideal(self.field) if e == 0 else None)

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


def _compose(field: QuadField, I1: tuple[int, int, int],
             I2: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of g1*[a1, b1 + w] and g2*[a2, b2 + w], any b_i mod a_i,
    as a checked (g, a, b): Dirichlet composition on (a, B) with B = 2b + t,
    so that b + w is (B + sqrt D)/2. With d1 = gcd(a1, a2) = x1*a1 + y1*a2
    and d = gcd(d1, s) = x2*d1 + z*s for s = (B1 + B2)/2, the primitive
    parts multiply to d * [a1*a2/d^2, (B3 + sqrt D)/2] (Cohen, GTM 138,
    section 5.4). When d1 = 1, y1 = a2^-1 mod a1 gives B3 = B1 mod a1 and
    B2 mod a2 with no extended gcd; B3 is unique mod 2*a1*a2, so b is the
    same."""
    (g1, a1, b1), (g2, a2, b2) = I1, I2
    t = field.t
    B1, B2 = 2 * b1 + t, 2 * b2 + t
    if math.gcd(a1, a2) == 1:
        y1a2 = pow(a2, -1, a1) * a2  # 0 when a1 = 1
        d, a, B3 = 1, a1 * a2, B2 + y1a2 * (B1 - B2)
    else:
        d1, x1, y1 = xgcd(a1, a2)
        d, x2, z = xgcd(d1, (B1 + B2) // 2)
        a = a1 * a2 // (d * d)
        B3 = (x2 * (x1 * a1 * B2 + y1 * a2 * B1) + z * ((B1 * B2 + field.D) // 2)) // d
    b = ((B3 - t) // 2) % a
    require((b * (b + t) - field.u) % a == 0, "a composed lattice is not an ideal")
    return g1 * g2 * d, a, b


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
    if I.g == 1:
        return is_prime(I.a)
    return I.a == 1 and is_prime(I.g) and not any(_prime_triples(I.field, (I.g,)))


def _prime_triples(field: QuadField, primes: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(1, p, b) for the first prime [p, b + w] over each p of `primes` not
    inert in K (w^2 - t*w - u has a root mod p), in the order given: w maps
    to the least root r there, so b = -r mod p. The one place that splits p."""
    for p in primes:
        if roots := roots_mod_p(field.minpoly, p):
            yield 1, p, -roots[0] % p


def factor_prime(field: QuadField, p: int) -> tuple[str, list[tuple[QIdeal, int, int]]]:
    """Splitting of p*O_K: ("split"|"inert"|"ramified", [(prime, e, f), ...]),
    from `_prime_triples`' prime [p, b + w] and its conjugate, b' = -b - t
    mod p; p ramifies when b' = b."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    first = next(_prime_triples(field, (p,)), None)
    if first is None:
        return "inert", [(QIdeal(field, p, 1, 0), 1, 2)]
    P = QIdeal(field, *first)
    if (Q := P.conj()) == P:
        return "ramified", [(P, 2, 1)]
    return "split", [(P, 1, 1), (Q, 1, 1)]


def prime_above_from_root(field: QuadField, p: int, root: int) -> QIdeal:
    """The degree-one prime over p on which w maps to (t + root)/2 mod p."""
    return QIdeal(field, 1, p, -field.w_mod(p, root) % p)


# ---------------------------------------------------------------------------
# reduction theory on (a, B) pairs, B = 2b + t


def _B_centered(a: int, B0: int) -> int:
    """The representative of B0 mod 2a in (-a, a]."""
    return B0 - 2 * a * ((B0 + a - 1) // (2 * a))


def _rho_cycle(field: QuadField, a: int, b: int):
    """The reduced ideals of the class of the reduced [a, b+w], each once
    and itself first, as (a_k, b_k, B_k) (Cohen, GTM 138, 5.4 and 5.8). An
    imaginary class has one, with B = 2b + t centred in (-a, a]. A real
    class is the rho-cycle: B_k, the representative of 2b_k + t mod 2a_k in
    (s - 2a_k, s], s = floor(sqrt(D)), gives the step out of [a_k, b_k+w]
    to the next member, by the factor (B_k - sqrt(D))/(2a_k), that is
    (x + y*w)/den = ((B_k + t) - 2w)/(2a_k)."""
    if not field.is_real:
        yield a, b, _B_centered(a, 2 * b + field.t)
        return
    D, t, s = field.D, field.t, field.isqrt_D
    a0, b0, steps = a, b, 0
    while True:
        B = s - ((s - 2 * b - t) % (2 * a))
        yield a, b, B
        steps += 1
        if steps > _CYCLE_BOUND:
            raise BudgetError("rho cycle failed to close")
        c = abs((D - B * B) // (4 * a))
        if c == 0:  # the hot loop of every walk: no call when the check passes
            raise InvariantError("invariant failed: a rho step met a norm-zero form")
        a, b = c, ((-B - t) // 2) % c
        if a == a0 and b == b0:
            return


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
# Reduced ideals that one memo of them (`_class_keys`, `RayClassData.vectors`)
# may hold; d = 10^12 + 39 (h = 3) has 1,597,180.
_MEMO_BOUND = 4 * 10**6


def _memo_add(memo: dict, keys: list[int], values: Iterable, name: str) -> None:
    """memo.update(zip(keys, values)) for new reduced ideals [a, b + w],
    each named by the int a*a + b, distinct for distinct pairs since
    0 <= b < a puts it in [a^2, (a + 1)^2); a BudgetError when the memo
    would pass _MEMO_BOUND."""
    if len(memo) + len(keys) > _MEMO_BOUND:
        raise BudgetError(f"the {name} memo would hold more than {_MEMO_BOUND} reduced ideals")
    memo.update(zip(keys, values))


def _walk_to(field: QuadField, a: int, b: int, steps: list, meets):
    """The first (a_k, b_k) with meets(a_k, b_k) among the `_rho_cycle`
    members of the reduced [a, b+w], the factors of the steps to it
    appended to `steps`; None if none does."""
    t = field.t
    for ak, bk, B in _rho_cycle(field, a, b):
        if meets(ak, bk):
            return ak, bk
        steps.append((B + t, -2, 2 * ak))
    return None


def _cycle_key(field: QuadField, a: int, b: int, packed: list | None = None) -> tuple[int, int]:
    """The class key of the reduced [a, b + w]: the least (a_k, B_k) of its
    class's `_rho_cycle`, kept as the members stream past. When `packed`
    is given, each member's a_k*a_k + b_k is appended to it."""
    ka, kB = a + 1, 0  # beaten by the first member, [a, b + w] itself
    for ak, bk, B in _rho_cycle(field, a, b):
        if packed is not None:
            packed.append(ak * ak + bk)
        if ak < ka or (ak == ka and B < kB):
            ka, kB = ak, B
    return ka, kB


def _steps_product(field: QuadField, steps) -> tuple[QElt, int]:
    """(num, den), unreduced, with num / den the product of the factors
    (x + y*w) / den of `steps`: the exact multiplier of a walk, for
    `is_principal_with_generator`. Both products are taken as balanced
    trees, so n steps cost O(M(n) log n) instead of the n^2 of a running
    product."""
    return (_tree_product([QElt(field, x, y) for x, y, _ in steps], QElt(field, 1, 0)),
            _tree_product([e for *_, e in steps], 1))


def _tree_product(xs: list, one, mul=operator.mul):
    """The product of `xs`, multiplied pairwise level by level."""
    while len(xs) > 1:
        xs = [mul(x, y) for x, y in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0] if xs else one


def _mat_mul(m: tuple, n: tuple) -> tuple:
    """The product of 2x2 integer matrices, each flat as (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def class_key(I: QIdeal) -> tuple[int, int]:
    """Canonical key for the (wide) ideal class of I."""
    return _cycle_key(I.field, *_reduce_primitive(I.field, I.a, I.b)[:2])


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


def _generates(I, z) -> bool:
    """Whether (z) = I, without building the HNF of (z); for ideals of K
    and of the biquadratic fields in `biquad` alike."""
    # (z) inside I has index N((z))/N(I) = |N(z)|/N(I), so equal norms force (z) = I
    return I.contains(z) and abs(z.norm()) == I.norm()


# ---------------------------------------------------------------------------
# fundamental unit and class group


def _period_quotients(field: QuadField) -> Iterator[int]:
    """The partial quotients of one period of the regular continued fraction
    of w = (t + sqrt(D))/2 in a real field (Cohen, GTM 138, §5.7). The
    complete quotient (P + sqrt(D))/Q, Q > 0 dividing D - P^2, starts at w
    and is w plus an integer again when Q is 2 again."""
    if not field.is_real:
        raise InputError("fundamental unit requires a real field")
    D, s = field.D, field.isqrt_D
    P, Q, k = field.t, 2, 0
    while not k or Q != 2:
        a = (P + s) // Q
        yield a
        k += 1
        if k > _CYCLE_BOUND:
            raise BudgetError("rho cycle failed to close")
        P = a * Q - P
        Q = (D - P * P) // Q


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def fundamental_unit(field: QuadField) -> QElt:
    """Smallest unit > 1 of a real quadratic field: the partial quotients a
    of `_period_quotients` multiply, as matrices [[a, 1], [1, 0]], to a
    matrix whose first column (h, k) gives h - k*w' = (h - k*t) + k*w. Its
    norm is (-1)^(period length), which `fundamental_unit_norm` reads
    without building the unit."""
    mats = [(a, 1, 1, 0) for a in _period_quotients(field)]
    h, _, k, _ = _tree_product(mats, (1, 0, 0, 1), _mat_mul)
    eps = QElt(field, h - k * field.t, k)
    require(eps.norm() == (-1) ** len(mats) and eps > QElt(field, 1, 0),
            "the fundamental unit is not a unit > 1 of norm -1 to the period")
    return eps


def fundamental_unit_norm(field: QuadField) -> int:
    """N(eps) = (-1)^k of a real field, k the period length of w's
    continued fraction: the sign `fundamental_unit` checks on every unit it
    builds, counted here without multiplying the quotients."""
    return -1 if len(list(_period_quotients(field))) % 2 else 1


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
    """Cl_K with the closure that built it: `table` maps each class key to
    its exponent vector over the k generator primes, coordinate i in
    [0, e_i), and `relations` are the k x k lower-triangular rows, row i
    ending in e_i on the diagonal, that present the group on those vectors.
    `normal_form` reads any exponent vector back into the table's range, so
    the class of a sum of vectors needs no ideal product."""

    field: QuadField
    group: FiniteAbelianGroup
    table: dict = dc_field(compare=False, repr=False)  # class key -> vector
    relations: tuple = dc_field(compare=False, repr=False)

    @property
    def h(self) -> int:
        return self.group.order()

    def normal_form(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The table vector of the class of `vec`: coordinate i reduced into
        [0, e_i) by row i, from the last coordinate down (row i touches no
        later coordinate)."""
        v = list(vec)
        for i in range(len(v) - 1, -1, -1):
            row = self.relations[i]
            if q := v[i] // row[i]:
                for j in range(i + 1):
                    v[j] -= q * row[j]
        return tuple(v)


def _candidate_primes(field: QuadField) -> Iterator[tuple[int, int, int]]:
    """`_prime_triples` in ascending order up to sqrt(D)/2 + 2 (above the
    Minkowski constant) in a real field. Every imaginary class holds a
    reduced [a, b + w], 3a^2 <= |D|, whose prime factors lie below
    sqrt(|D|/3): the closure drops any later prime."""
    bound = (field.isqrt_D // 2 if field.is_real else math.isqrt(-field.D // 3)) + 2
    return _prime_triples(field, primes_up_to(bound))


def _class_keys(field: QuadField):
    """key_of(a, b): the class key of [a, b + w] (`_cycle_key`'s) after one
    reduction. In a real field it comes from a memo of reduced ideals
    (`_memo_add`) that `_cycle_key` fills a whole cycle at a time, so each
    class's rho-cycle is walked once however many ideals land on it."""
    memo: dict[int, tuple[int, int]] = {}
    t, real = field.t, field.is_real

    def key_of(a: int, b: int) -> tuple[int, int]:
        a, b, _ = _reduce_primitive(field, a, b)
        if not real:  # `_cycle_key`'s, inline on this hot path
            return a, _B_centered(a, 2 * b + t)
        if (key := memo.get(a * a + b)) is None:
            packed: list[int] = []
            key = _cycle_key(field, a, b, packed)
            _memo_add(memo, packed, repeat(key), "class-key")
        return key
    return key_of


def _coset_closure(
    field: QuadField, primes: Iterable[tuple[int, int, int]]
) -> tuple[list[tuple[int, int, int]], dict, list[list[int]]]:
    """The subgroup generated by the classes of the given prime triples,
    grown one prime at a time (Cohen, GTM 138, 5.4). With H the subgroup
    so far, e is the least exponent with [P]^e in H. A prime with e = 1
    adds no class and is dropped; otherwise it becomes generator x_i, the
    cosets P^k * H for 0 < k < e join the table, and the relation
    e*x_i - vec([P]^e) is kept. Each new class costs one product of integer
    triples (`_compose`) and one key (`_class_keys`). Returns (generators,
    table: key -> exponent vector of length k, relation rows): the rows a
    k x k lower-triangular matrix, every diagonal entry > 1, whose diagonal
    multiplies to len(table)."""
    t, key_of = field.t, _class_keys(field)

    def times(key: tuple[int, int], P: tuple[int, int, int]) -> tuple[int, int]:
        a, B = key
        return key_of(*_compose(field, (1, a, (B - t) // 2), P)[1:])

    gens: list[tuple[int, int, int]] = []
    identity = key_of(1, 0)
    table = {identity: ()}
    relations: list[list[int]] = []
    for P in primes:
        if (lead := times(identity, P)) in table:
            continue  # e = 1: H is not copied for it
        i, base = len(gens), list(table)  # the keys of H, identity first
        coset, e = base, 1
        while lead not in table:
            coset = [lead] + [times(c, P) for c in coset[1:]]
            table.update((new, (*table[old], *[0] * (i - len(table[old])), e))
                         for old, new in zip(base, coset))
            e += 1
            lead = times(coset[0], P)
        gens.append(P)
        relations.append([-c for c in table[lead]] + [0] * (i - len(table[lead])) + [e])
    k = len(gens)
    table = {key: vec + (0,) * (k - len(vec)) for key, vec in table.items()}
    return gens, table, [row + [0] * (k - len(row)) for row in relations]


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def class_group(field: QuadField) -> ClassGroupData:
    """Wide ideal class group via the prime classes of `_candidate_primes`
    (below sqrt(D)/2 + 2 in a real field, sqrt(|D|/3) + 2 in an imaginary
    one), presented by the k x k relation matrix of `_coset_closure` on the
    k primes that each enlarge the subgroup before them. Each class's
    rho-cycle is walked once, and the closure's table and rows are kept,
    so ray class groups read class sums off them instead of walking again.

    The SNF basis of this group is seen nowhere outside it: ray class
    groups, biquadratic unit groups and the CLI read only `h`, and ray
    class groups read the table and rows besides."""
    gens, table, relations = _coset_closure(field, _candidate_primes(field))
    group = group_from_relations(relations, len(gens))
    require(group.order() == len(table), "the relations do not present the closure")
    return ClassGroupData(field, group, table, tuple(map(tuple, relations)))


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


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _residue_field(p: int, tu: tuple[int, int] | None):
    """(order, one, mul, gen, (s, baby, giant)) of F_p, tu None, or of
    F_p[w]/(w^2 - t*w - u), (t, u) = tu mod p, shared by every residue
    factor over it, of K or of L: gen is the least primitive root, or the
    first (x, y), y slowest, of order p^2 - 1, where at a prime r of p - 1
    z^((p^2 - 1)/r) = N(z)^((p - 1)/r), N(x + y*w) = x^2 + t*x*y - u*y^2;
    baby maps gen^j to j < s = isqrt(order) + 1 and giant is gen^-s."""
    if tu is None:
        order, one, gen = p - 1, 1, _primitive_root(p) % p
        mul = lambda A, B: A * B % p
    else:
        (t, u), order, one = tu, p * p - 1, (1, 0)
        mul, fs = _Fp2(p, t, u).mul, list(factor(order))

        def primitive(x: int, y: int) -> bool:
            n = (x * x + t * x * y - u * y * y) % p
            return all(pow(n, (p - 1) // r, p) != 1 if (p - 1) % r == 0
                       else power((x, y), order // r, one, mul) != one for r in fs)
        gen = next(((x, y) for y in range(1, p) for x in range(p) if primitive(x, y)), None)
        require(gen is not None, "no generator found in F_p^2")
    s = math.isqrt(order) + 1
    baby, cur = {}, one
    for j in range(s):
        baby.setdefault(cur, j)
        cur = mul(cur, gen)
    return order, one, mul, gen, (s, baby, power(gen, -s % order, one, mul))


class ResidueFactor:
    """(O/Q)^* for one prime Q of K or of L, as a cyclic group with a
    generator and discrete logs.

    The residue field is F_p (f = 1; residues are ints, tu is None) or
    F_{p^2} presented as F_p[w]/(w^2 - t*w - u) with (t, u) = tu (f = 2;
    residues are pairs (x, y) for x + y*w). `images` are the residues of the
    ring's integral basis, in the order of `coords()`, so an element's
    residue is the combination of its coordinates with them. The field's
    order, generator and discrete-log steps are `_residue_field`'s."""

    def __init__(
        self, p: int, f: int, tu: tuple[int, int] | None, images: Sequence
    ):
        self.p, self.f, self.images = p, f, tuple(images)
        key = None if f == 1 else (tu[0] % p, tu[1] % p)
        self.order, self.one, self.mul, self.gen, self._steps = _residue_field(p, key)
        self.zero = 0 if f == 1 else (0, 0)
        if f == 2:
            self._columns = tuple(zip(*self.images))

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


class QuadResidueFactor(ResidueFactor):
    """(O_K/Q)^* at one prime Q of K, with the Q-adic valuation and the
    unit-part residue of a multiplier, which is all a ray class needs of it:
    w maps to -b in F_p when Q = [p, b + w], and to itself in
    F_{p^2} = O_K/(p) when p is inert (b is None). With v = v_Q(x), `unit`
    reads the residue of x / p^v for Q = (p) inert, and of x * s^v / p^v for
    Q = [p, b + w], s = conj(b + w): s lies outside Q when p splits and has
    v_Q(s) = 1 when (p) = Q^2, so for x in Q, x * s / p is integral with one
    less Q-valuation. The map is multiplicative and is the residue on
    Q-units; in a multiplier of Q-valuation 0, the only kind whose residue
    is read (by `quotient`), the factors s^v / p^v of numerator and
    denominator cancel."""

    def __init__(self, field: QuadField, q: QIdeal):
        self.t, self.u, self.b = field.t, field.u, None if q.g > 1 else q.b
        if q.g > 1:
            super().__init__(q.g, 2, (field.t, field.u), ((1, 0), (0, 1)))
        else:
            super().__init__(q.a, 1, None, (1, -q.b % q.a))

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


class ResidueSystem:
    """(O/m)^* as a product of cyclic factors with discrete logs. `dlog`
    gives the exponents over the factors' generators, and subgroups are
    read in those coordinates, modulo the factor orders (`kernel`,
    `image_order`). `field` is set for a modulus of K, where dlog_int and
    crt_lift build elements and a multiplier is known by its local state
    at each factor (`one`, `fold`, `dlogs`)."""

    def __init__(
        self, factors: Sequence[ResidueFactor], field: QuadField | None = None
    ):
        self.field = field
        self.factors = list(factors)
        self.orders = tuple(f.order for f in self.factors)
        self.one = tuple((0, f.one, 1) for f in self.factors)  # the state of 1

    def fold(self, state, steps):
        """The local state of a multiplier times each (x + y*w) / den of the
        walks' `steps` (`QuadResidueFactor.fold`); only a generator forms
        the element (`_steps_product`)."""
        if not steps:
            return state
        return tuple([f.fold(s, steps) for f, s in zip(self.factors, state)])

    def dlogs(self, state, g: int) -> tuple[int, ...]:
        """The discrete logs of g / mu at each factor, for g prime to m and
        the multiplier mu whose local state is `state`."""
        return tuple(f.dlog_residue(f.quotient(g, s))
                     for f, s in zip(self.factors, state, strict=True))

    def order(self) -> int:
        return math.prod(self.orders)

    def dlog(self, z) -> tuple[int, ...]:
        return tuple(f.dlog(z) for f in self.factors)

    def dlog_int(self, n: int) -> tuple[int, ...]:
        return self.dlog(QElt(self.field, n, 0))

    def is_unit(self, z) -> bool:
        return all(f.is_unit_residue(z) for f in self.factors)

    def _stacked(self, rows, pad: int = 0) -> list[list[int]]:
        """`rows` above the relations orders[i] * e_i, padded by `pad` zeros."""
        width = len(self.orders) + pad
        return [*map(list, rows), *([o * (i == j) for j in range(width)]
                                    for i, o in enumerate(self.orders))]

    def kernel(self, elements) -> list[list[int]]:
        """HNF basis of the c with prod z_i^c_i = 1 mod m, z = `elements`:
        the rows of the HNF of [dlogs | I] above [relations | 0] with zero
        log part. An SNF with its row transform finds the same lattice, but
        on some small unit matrices its entries grow to thousands of digits."""
        r, s = len(elements), len(self.orders)
        rows = [[*self.dlog(z), *(int(i == j) for j in range(r))] for i, z in enumerate(elements)]
        kernel = [h[s:] for h in hnf_rows(self._stacked(rows, r)) if not any(h[:s])]
        require(len(kernel) == r, "the unit kernel is not of full rank")
        return kernel

    def image_order(self, logs) -> int:
        """Order of the subgroup generated by the units mod m whose
        discrete logs are `logs`: |(O/m)^*| over the index of the lattice
        they span with the relations."""
        return self.order() // lattice_index(self._stacked(logs))

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
    return ResidueSystem([QuadResidueFactor(field, q) for q in modulus.primes], field)


def adjust_by_units(y, residue: ResidueSystem, units: Sequence):
    """y * prod u_i^c_i with residue 1 at every factor, or None when the
    unit images cannot reach the class of 1/y. Each c_i is reduced mod the
    order of u_i's image. The images are read in (O/m)^* in invariant-factor
    form, whose basis fixes `express`'s witness and so the multiple."""
    group = group_from_relations(residue._stacked([]), len(residue.orders))
    uvecs = [group.dlog_ambient(residue.dlog(u)) for u in units]
    coeffs = group.express(uvecs, group.scale(-1, group.dlog_ambient(residue.dlog(y))))
    if coeffs is None:
        return None
    out = y
    for u, v, c in zip(units, uvecs, coeffs):
        out = out * u ** (c % group.element_order(v))
    require(not any(residue.dlog(out)), "the unit adjustment is not 1 mod m")
    return out


# ---------------------------------------------------------------------------
# ray class groups


def _class_product(field: QuadField, residue: ResidueSystem):
    """The product of triples that cofactor walks take: `_compose`, exact,
    when the walk reads residues; for m = 1, whose walk asks only whether
    the class is trivial, `_compose` then `_reduce_primitive` with g
    dropped, so a power P^e keeps its operands reduced instead of growing
    to norm N(P)^e. For m != 1 the product stays exact, because the walk of
    the exact product to [1, w] fixes the generator a relation gets. A
    reduced product, each step's multiplier folded into the residue state,
    can reach a unit multiple of it instead (-alpha for alpha); its residue
    moves the relation by a unit row, and with it the Smith basis whose
    coordinates targets and certificates name. That moved 94 of the 1,444
    cases of `test_ray_class_coordinates`, 92 of them imaginary."""
    if residue.factors:
        return partial(_compose, field)

    def reduced(I, J):
        return (1, *_reduce_primitive(field, *_compose(field, I, J)[1:])[:2])
    return reduced


def _cofactor_residue(field: QuadField, I: tuple[int, int, int], gens: Sequence[QIdeal],
                      v: Sequence[int], residue: ResidueSystem):
    """The residue part of the triple I against the primes P_i of `gens`:
    with C = prod conj(P_i)^(v_i) and I*C = (y) principal, dlog(y) -
    dlog_int(N C), unreduced, since P_i * conj(P_i) = (N P_i); None when
    I*C is not principal. C and I*C = g*J are triples (`_compose`), and
    y = g/mu is not built: the walk of J to [1, w] = mu*J folds into mu's
    local state (`ResidueSystem.fold`). For m = 1 the part is empty, and
    C and I*C are taken up to class (`_class_product`)."""
    mul = _class_product(field, residue)
    C = (1, 1, 0)
    for P, e in zip(gens, v):
        if e:
            C = mul(C, power((P.g, P.a, (-P.b - field.t) % P.a), e, None, mul))
    g, a, b = mul(I, C)
    a, b, steps = _reduce_primitive(field, a, b)
    if _walk_to(field, a, b, steps, lambda a, _: a == 1) is None:
        return None
    if not residue.factors:
        return ()
    logs = residue.dlogs(residue.fold(residue.one, steps), g)
    return tuple(map(operator.sub, logs, residue.dlog_int(C[0] * C[0] * C[1])))


@dataclass(frozen=True)
class RayClassData:
    field: QuadField
    modulus: Modulus
    group: FiniteAbelianGroup
    cl: ClassGroupData
    ideal_gens: tuple[QIdeal, ...]
    residue: ResidueSystem
    ray_table: dict  # class key -> exponent vector over ideal_gens
    unit_image_order: int
    # The lookup memo, filled by dlog and dropped with the group: reduced
    # [a, b + w] coprime to m, named as `_memo_add` names it -> coordinates
    # in `group`. A miss fills the coprime members of its class (`_fill`).
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
        """`dlog` of `prime_above_from_root(field, p, root)`, p prime to N(m),
        on its triple: the scan's hot entry to the same lookup builds no ideal."""
        if math.gcd(p, self.modulus.norm()) != 1:
            raise InputError("prime is not coprime to the modulus")
        return self._lookup(1, p, -self.field.w_mod(p, root) % p)

    def _lookup(self, g: int, a0: int, b0: int) -> tuple[int, ...]:
        """The coordinates of I = g*[a0, b0 + w], coprime to m.

        I = g*J with J primitive reduces to R = mu*J, so
        [I] = [R] + [(g / mu)]. [R] comes from the memo; [(g / mu)] is the
        class of the residue of g/mu, read off the local state of mu at the
        primes of m (`ResidueSystem.fold`), which takes on the walks' step
        factors in one fold. Without residue factors no multiplier is built
        and [I] = [R]. When R meets m, the walk goes on to the first member
        of R's class coprime to m; only a class with none walks I*C_v to
        [1, w] (`_generator_vector`). Cohen, GTM 193, section 4.2, computes
        ray class logs through (O/m)^* in the same way."""
        f = self.field
        a, b, steps = _reduce_primitive(f, a0, b0)
        coprime = self.modulus.coprime_to_primitive
        if not coprime(a, b):
            member = _walk_to(f, a, b, steps, coprime)
            if member is None:
                vec = self.ray_table[_cycle_key(f, a, b)]
                return self.group.dlog_ambient(self._generator_vector((g, a0, b0), vec))
            a, b = member
        vec = self.vectors.get(a * a + b)
        if vec is None:
            vec = self._fill(a, b)
        res = self.residue
        return self._moved(vec, res.fold(res.one, steps), g, 1) if res.factors else vec

    def _generator_vector(self, I: tuple[int, int, int], v: tuple[int, ...]) -> tuple[int, ...]:
        """The ambient vector of [I], I = (g, a, b), from its class vector v:
        v, then the residue part of I against C_v = prod conj(P_i)^(v_i)
        (`_cofactor_residue`) mod the factor orders."""
        res = _cofactor_residue(self.field, I, self.ideal_gens, v, self.residue)
        require(res is not None, "the class vector's cofactor leaves a non-principal ideal")
        return v + tuple(r % o for r, o in zip(res, self.residue.orders))

    @cached_property
    def _residue_rows(self) -> tuple[tuple[int, ...], ...]:
        """`group.to_canonical` rows of the residue factor generators."""
        return self.group.to_canonical[self.n_ideal:]

    def _moved(self, vec: tuple[int, ...], mu: tuple, g: int, sign: int):
        """vec + sign * [(g / mu)] for the multiplier of local state mu, with
        one discrete log per residue factor."""
        exps = [e * sign for e in self.residue.dlogs(mu, g)]
        return tuple(
            (c + sum(e * row[j] for e, row in zip(exps, self._residue_rows))) % n
            for j, (c, n) in enumerate(zip(vec, self.group.invariants))
        )

    def _fill(self, a: int, b: int) -> tuple[int, ...]:
        """Memoize the coordinates of each ideal coprime to m among the
        reduced ideals of the class of R0 = [a, b + w], itself coprime to m,
        and return R0's, which come through one cofactor walk. For m = 1
        every member gets R0's, from the walk that finds the key; otherwise
        a second walk folds each step, and R_k = mu_k*R0 gets [R0] + [(mu_k)]."""
        f, res = self.field, self.residue
        packed: list[int] = []
        key = _cycle_key(f, a, b, packed)
        vec = self.group.dlog_ambient(self._generator_vector((1, a, b), self.ray_table[key]))
        vecs = repeat(vec)
        if res.factors:
            packed, vecs, mu = [], [], res.one
            for ak, bk, B in _rho_cycle(f, a, b):  # R0 itself first, with mu_0 = 1
                if self.modulus.coprime_to_primitive(ak, bk):
                    packed.append(ak * ak + bk)
                    vecs.append(self._moved(vec, mu, 1, -1))
                mu = res.fold(mu, ((B + f.t, -2, 2 * ak),))
        _memo_add(self.vectors, packed, vecs, "ray")
        return vec


def _ray_ideal_gens(field: QuadField, modulus: Modulus, cl: ClassGroupData):
    """Prime-ideal generators of Cl off the modulus support: the
    `_prime_triples` in ascending order, each keyed once, until their
    table vectors and Cl's relation rows span Z^k; with (table: key ->
    exponent vector over them, relation rows) of their closure
    (`_vector_closure`), run once on the final list."""
    if cl.h == 1:
        return (), dict(cl.table), []
    skip = modulus.residue_chars()
    gens: list[QIdeal] = []
    vecs: list[tuple[int, ...]] = []
    limit = 1000 * max(abs(field.D), 100)
    primes = (p for p in primes_1_mod(1, 2, limit) if p not in skip)
    for _, p, b in _prime_triples(field, primes):
        gens.append(QIdeal(field, 1, p, b))
        vecs.append(cl.table[class_key(gens[-1])])
        if lattice_index([*vecs, *cl.relations]) == 1:
            return tuple(gens), *_vector_closure(cl, vecs)
    raise BudgetError(f"no primes below {limit} generate the class group away from m")


def _vector_closure(
    cl: ClassGroupData, vecs: Sequence[tuple[int, ...]]
) -> tuple[dict, list[list[int]]]:
    """Breadth-first closure of the classes whose table vectors are `vecs`.
    Returns (table: key -> exponent vector over `vecs`, relation rows). A
    class times generator i is the normal form of the sum of their table
    vectors, named by the inverted table, so no ideal is multiplied.

    Its relation rows, in this order, fix the SNF basis of Cl^m, and that
    basis fixes the coordinates that `--class` targets name and that
    certificates record. The visiting order and the rows must therefore
    stay those of the closure that multiplies each class's reduced ideal
    by each prime and keys the product (`tests/oracles.py` keeps it)."""
    key_of = {vec: key for key, vec in cl.table.items()}
    r = len(vecs)
    start = key_of[(0,) * len(cl.relations)]
    table = {start: (0,) * r}
    frontier = deque([start])
    relations: list[list[int]] = []
    while frontier:
        key = frontier.popleft()
        vec, c = table[key], cl.table[key]
        for i, v in enumerate(vecs):
            jk = key_of[cl.normal_form(map(operator.add, c, v))]
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


def _relation_residue(field: QuadField, rel: Sequence[int], gens: Sequence[QIdeal],
                      residue: ResidueSystem) -> tuple[int, ...]:
    """The residue part of the relation rel = pos - neg on the primes P_i
    of `gens`: Jp * C = (alpha) for Jp = prod P_i^pos_i and
    C = prod conj(P_i)^neg_i, so rel less Jp's residue part (by
    `_cofactor_residue`) is a relation of Cl^m."""
    mul = _class_product(field, residue)
    Jp = (1, 1, 0)
    for P, e in zip(gens, rel):
        if e > 0:
            Jp = mul(Jp, power(P.key(), e, None, mul))
    res = _cofactor_residue(field, Jp, gens, [max(-e, 0) for e in rel], residue)
    require(res is not None, "a harvested relation is not principal")
    return res


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def ray_class_group(field: QuadField, modulus: Modulus) -> RayClassData:
    """Cl^m_K presented over prime-ideal generators and residue generators:
    the closure's relation rows, each with its residue part, the unit
    images and the factor orders. For m = 1 the rows are the closure's
    alone (the unit rows would be zero and never pivot, so the Smith form
    is the same), and their principality is proved on the basis
    `hnf_rows` of their lattice, one reduced walk per basis row: principal
    products are closed under sums and inverses."""
    cl = class_group(field)
    ideal_gens, table, cl_relations = _ray_ideal_gens(field, modulus, cl)
    residue = residue_system(field, modulus)
    r, s = len(ideal_gens), len(residue.factors)
    if not residue.factors:
        for rel in hnf_rows(cl_relations):
            _relation_residue(field, rel, ideal_gens, residue)
        group = group_from_relations(cl_relations, r)
        unit_image = 1
    else:
        rows = [list(rel) + [-c for c in _relation_residue(field, rel, ideal_gens, residue)]
                for rel in cl_relations]
        unit_logs = [residue.dlog(u) for u in unit_gens(field)]
        rows += [[0] * r + row for row in residue._stacked(unit_logs)]
        group = group_from_relations(rows, r + s)
        # unit image inside (O/m)^*, for the exact-sequence order identity
        unit_image = residue.image_order(unit_logs)
    data = RayClassData(field, modulus, group, cl, ideal_gens, residue, table, unit_image)
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
    e = residue.image_order([residue.dlog(base)])
    return base**e, k0 * e
