"""Arithmetic in L = Q(sqrt d, sqrt p) for the composite capitulation check.

p is an odd prime = 1 mod 4 coprime to d, so disc(k2) = p is coprime to
disc(k1) and O_L is the tensor product of the two subrings: every integer of
L is an exact Z-combination of 1, w1, w2, w1*w2. All arithmetic below is
integer arithmetic on those four coordinates; nothing is floating point.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache, reduce
from itertools import product

from .abgroup import hnf_rows
from .errors import InputError, require
from .exactmath import is_prime, kronecker, power, primes_up_to, roots_mod_p
from .quadfield import (
    FIELD_CACHE_SIZE,
    Modulus,
    QElt,
    QIdeal,
    QuadField,
    ResidueFactor,
    ResidueSystem,
    _Fp2,
    _generates,
    _ideal_from_rows,
    adjust_by_units,
    class_group,
    factor_prime,
    fundamental_unit,
    is_principal_with_generator,
    prime_above_from_root,
    quadratic_field,
)
from .report import plain


@dataclass(frozen=True)
class BiquadField:
    k1: QuadField
    k2: QuadField
    k3: QuadField

    @property
    def d(self) -> int:
        return self.k1.d

    @property
    def p(self) -> int:
        return self.k2.d

    def elt(self, a: int, b: int, c: int, e: int) -> "BqElt":
        return BqElt(self, a, b, c, e)

    def one(self) -> "BqElt":
        return BqElt(self, 1, 0, 0, 0)

    def __repr__(self) -> str:
        return f"Q(sqrt({self.d}), sqrt({self.p}))"


def biquad_field(d: int, p: int) -> BiquadField:
    k1 = quadratic_field(d)
    if not k1.is_real:
        raise InputError("the base field must be real")
    if not is_prime(p) or p % 4 != 1:
        raise InputError("p must be a prime congruent to 1 mod 4")
    if (2 * d) % p == 0 or d % p == 0:
        raise InputError("p must be coprime to 2d")
    k2 = quadratic_field(p)
    k3 = quadratic_field(d * p)
    # coprime discriminants make the product basis integral, and the third
    # discriminant factors through the first two
    require(k3.D == k1.D * p and k3.t == k1.t and k2.t == 1,
            "the subfield discriminants do not factor as D3 = D1 * p")
    return BiquadField(k1, k2, k3)


def _mul4(L: BiquadField, x, y) -> tuple[int, int, int, int]:
    """The product of two coordinate 4-tuples: (A + B*w2)(C + E*w2) with
    A, B, C, E in k1 = Z[w1], w1^2 = t1*w1 + u1 and w2^2 = t2*w2 + u2."""
    t1, u1, t2, u2 = L.k1.t, L.k1.u, L.k2.t, L.k2.u
    a, b, c, e = x
    f, g, h, k = y
    bg, bk, eg, ek = b * g, b * k, e * g, e * k
    be0, be1 = c * h + u1 * ek, c * k + e * h + t1 * ek  # B*E
    return (
        a * f + u1 * bg + u2 * be0,
        a * g + b * f + t1 * bg + u2 * be1,
        a * h + u1 * bk + c * f + u1 * eg + t2 * be0,
        a * k + b * h + t1 * bk + c * g + e * f + t1 * eg + t2 * be1,
    )


@dataclass(frozen=True)
class BqElt:
    """a + b*w1 + c*w2 + e*w1*w2; internally (A, B) with z = A + B*w2 and
    A = a + b*w1, B = c + e*w1 living in k1."""

    L: BiquadField
    a: int
    b: int
    c: int
    e: int

    def _split(self) -> tuple[QElt, QElt]:
        k1 = self.L.k1
        return QElt(k1, self.a, self.b), QElt(k1, self.c, self.e)

    @staticmethod
    def _join(L: BiquadField, A: QElt, B: QElt) -> "BqElt":
        return BqElt(L, A.x, A.y, B.x, B.y)

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.e)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.e)

    def __add__(self, o: "BqElt") -> "BqElt":
        return BqElt(self.L, self.a + o.a, self.b + o.b, self.c + o.c, self.e + o.e)

    def __sub__(self, o: "BqElt") -> "BqElt":
        return BqElt(self.L, self.a - o.a, self.b - o.b, self.c - o.c, self.e - o.e)

    def __neg__(self) -> "BqElt":
        return BqElt(self.L, -self.a, -self.b, -self.c, -self.e)

    def __mul__(self, o: "BqElt | int") -> "BqElt":
        if isinstance(o, int):
            return BqElt(self.L, self.a * o, self.b * o, self.c * o, self.e * o)
        return BqElt(self.L, *_mul4(self.L, self.coords(), o.coords()))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BqElt":
        return power(self, k, self.L.one())

    def tau(self, j: int) -> "BqElt":
        """The involution fixing k_j."""
        t2 = self.L.k2.t
        A, B = self._split()
        if j == 1:
            return BqElt._join(self.L, A + B * t2, -B)
        if j == 2:
            return BqElt._join(self.L, A.conj(), B.conj())
        if j == 3:
            return BqElt._join(self.L, A.conj() + B.conj() * t2, -B.conj())
        raise ValueError("j must be 1, 2 or 3")

    def rel_norm(self, j: int) -> QElt:
        """z * tau_j(z) as an element of k_j: a + b*w1 for j = 1, a + c*w2
        for j = 2."""
        z = self * self.tau(j)
        if j == 3:
            return as_k3(z)
        return QElt(self.L.k1, z.a, z.b) if j == 1 else QElt(self.L.k2, z.a, z.c)

    def norm(self) -> int:
        return self.rel_norm(1).norm()

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def divide_int(self, n: int) -> "BqElt | None":
        if any(v % n for v in self.coords()):
            return None
        return BqElt(self.L, self.a // n, self.b // n, self.c // n, self.e // n)

    def __repr__(self) -> str:
        return f"({self.a}, {self.b}, {self.c}, {self.e})@{self.L!r}"


def embed(L: BiquadField, z: QElt) -> BqElt:
    """Image x + y*w_j of an element x + y*w of k_j under the inclusion."""
    for j, k in enumerate((L.k1, L.k2, L.k3), 1):
        if z.field == k:
            w = _w_elt(L, j)
            return BqElt(L, z.x + z.y * w.a, z.y * w.b, z.y * w.c, z.y * w.e)
    raise ValueError("element does not live in a subfield of L")


def as_k3(z: BqElt) -> QElt:
    """Read z as x + y*w3, failing if z is not in k3."""
    y, odd = divmod(z.e, 2)
    x = z - _w_elt(z.L, 3) * y
    if odd or x.b or x.c:
        raise ValueError("element is not in k3")
    return QElt(z.L.k3, x.a, y)


_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# A product keeps the pairwise products of its factors' generators up to this
# many; past the rank of O_L the four rows of the HNF serve as well.
_MAX_GENS = 4


@dataclass(frozen=True)
class BqIdeal:
    """Integral ideal as the canonical HNF basis of its coordinate lattice.
    `gens`, when not empty, are coordinate 4-tuples that generate the ideal
    over O_L; they shorten products. `residue_map`, set on the primes of
    `primes_above`, is the map O_L -> O_L/Q that Q is the kernel of, as the
    arguments of its `ResidueFactor`. `rel_norms`, set by `extend_ideal`,
    holds N_{L/k_j} of the ideal for j = 1, 2, 3. None takes part in
    equality."""

    L: BiquadField
    rows: tuple[tuple[int, int, int, int], ...]
    gens: tuple[tuple[int, int, int, int], ...] = dc_field(default=(), compare=False)
    residue_map: tuple | None = dc_field(default=None, compare=False)
    rel_norms: tuple[QIdeal, QIdeal, QIdeal] | None = dc_field(default=None, compare=False)

    @staticmethod
    def _from_span(L: BiquadField, rows, gens=()) -> "BqIdeal":
        """The ideal whose lattice the coordinate rows span over Z; the span
        must already be an ideal."""
        h = hnf_rows(rows)
        if len(h) != 4:
            raise ValueError("generators span a rank-deficient lattice")
        return BqIdeal(L, tuple(tuple(r) for r in h), tuple(gens))

    @staticmethod
    def from_generators(L: BiquadField, gens) -> "BqIdeal":
        gens = [(g, 0, 0, 0) if isinstance(g, int) else g.coords() for g in gens]
        return BqIdeal._from_span(L, [_mul4(L, g, m) for g in gens for m in _BASIS], gens)

    @staticmethod
    def from_int(L: BiquadField, n: int) -> "BqIdeal":
        if n < 1:
            raise ValueError("from_int wants a positive integer")
        return BqIdeal(L, tuple(tuple(n if i == j else 0 for j in range(4)) for i in range(4)))

    @staticmethod
    def unit_ideal(L: BiquadField) -> "BqIdeal":
        return BqIdeal.from_int(L, 1)

    def elements(self) -> list[BqElt]:
        return [BqElt(self.L, *r) for r in self.rows]

    def norm(self) -> int:
        return self.rows[0][0] * self.rows[1][1] * self.rows[2][2] * self.rows[3][3]

    def contains(self, z: BqElt) -> bool:
        """Back-substitution down the upper-triangular basis, one pivot per
        coordinate."""
        v = list(z.coords())
        for i, r in enumerate(self.rows):
            q, rem = divmod(v[i], r[i])
            if rem:
                return False
            for j in range(i + 1, 4):
                v[j] -= q * r[j]
        return True

    def __mul__(self, o: "BqIdeal") -> "BqIdeal":
        """I*J is the sum of g*I over generators g of J, so the Z-span of
        the rows of one factor times the generators of the other is the
        product; the factor with fewer generators (its four rows when it
        keeps none) supplies them."""
        L = self.L
        a, b = (self, o) if len(o.gens or o.rows) <= len(self.gens or self.rows) else (o, self)
        rows = [_mul4(L, x, g) for x in a.rows for g in b.gens or b.rows]
        gens = ()
        if 0 < len(self.gens) * len(o.gens) <= _MAX_GENS:
            gens = [_mul4(L, x, y) for x in self.gens for y in o.gens]
        return BqIdeal._from_span(L, rows, gens)

    def __pow__(self, k: int) -> "BqIdeal":
        # `power` reads its identity only at k = 0
        return power(self, k, BqIdeal.unit_ideal(self.L) if k == 0 else None)

    def scale(self, n: int) -> "BqIdeal":
        if n < 1:
            raise ValueError("scale wants a positive integer")
        return BqIdeal(self.L, tuple(tuple(n * v for v in r) for r in self.rows))

    def conj(self, j: int) -> "BqIdeal":
        L = self.L
        return BqIdeal._from_span(
            L, [z.tau(j).coords() for z in self.elements()],
            [BqElt(L, *g).tau(j).coords() for g in self.gens],
        )

    def __repr__(self) -> str:
        return f"BqIdeal(norm={self.norm()})@{self.L!r}"


def _w_elt(L: BiquadField, j: int) -> BqElt:
    """w_j, with O_{k_j} = Z[w_j], in the coordinates of L."""
    if j == 1:
        return BqElt(L, 0, 1, 0, 0)
    if j == 2:
        return BqElt(L, 0, 0, 1, 0)
    t1 = L.k1.t
    return BqElt(L, t1, -1, -t1, 2)


def primes_above(L: BiquadField, p0: int) -> list[tuple[BqIdeal, int, int]]:
    """The primes of L over the rational prime p0 as (ideal, e, f) triples,
    validated against e*f*g = 4 and the product decomposition. Each ideal
    keeps the residue map read off the roots that build it: w_j goes to x
    when w_j - x is one of its generators, and an inert w1, else an inert
    w2, presents F_{p0^2}."""
    if not is_prime(p0):
        raise InputError(f"{p0} is not prime")
    ks = (L.k1, L.k2, L.k3)
    chis = tuple(kronecker(k.D, p0) for k in ks)
    tu1, tu2 = (L.k1.t, L.k1.u), (L.k2.t, L.k2.u)
    out: list[tuple[BqIdeal, int, int]] = []

    def w_minus(j: int, x: int) -> BqElt:
        return _w_elt(L, j) - BqElt(L, x, 0, 0, 0)

    def add(gens, e: int, tu, im1, im2) -> None:
        """The prime (gens) with w1 -> im1 and w2 -> im2 in F_p0 when tu is
        None, else in F_p0[w]/(w^2 - t*w - u) for (t, u) = tu."""
        f = 1 if tu is None else 2
        Q = BqIdeal.from_generators(L, gens)
        require(Q.norm() == p0**f, "a prime of L over p has norm != p^f")
        mul = _Fp2(p0, *tu).mul if tu else lambda x, y: x * y % p0
        ims = ((1, 0) if tu else 1, im1, im2, mul(im1, im2))
        out.append((BqIdeal(L, Q.rows, Q.gens, (p0, f, tu, ims)), e, f))

    def other_inert(i: int, r: int):
        """(tu, im1, im2) when w_i -> r and the other of w1, w2 is inert."""
        return (tu2, (r, 0), (0, 1)) if i == 1 else (tu1, (0, 1), (r, 0))

    if 0 not in chis:
        split = [j for j in (1, 2, 3) if chis[j - 1] == 1]
        if len(split) == 3:
            for x1 in roots_mod_p(L.k1.minpoly, p0):
                for x2 in roots_mod_p(L.k2.minpoly, p0):
                    add([p0, w_minus(1, x1), w_minus(2, x2)], 1, None, x1, x2)
        else:
            # the product of the three characters is +1, so exactly one splits
            require(len(split) == 1, "the characters at p do not multiply to 1")
            j = split[0]
            for x in roots_mod_p(ks[j - 1].minpoly, p0):
                if j < 3:
                    add([p0, w_minus(j, x)], 1, *other_inert(j, x))
                else:
                    # w1 and w2 inert, w3 -> x: w2 = (w3 - t1 + w1) / (2 w1 - t1)
                    fp2, t1 = _Fp2(p0, *tu1), L.k1.t
                    inv = power((-t1 % p0, 2 % p0), p0 * p0 - 2, (1, 0), fp2.mul)
                    im2 = fp2.mul(((x - t1) % p0, 1), inv)
                    add([p0, w_minus(3, x)], 1, tu1, (0, 1), im2)
    else:
        # ramification: p0 divides exactly two of the three discriminants,
        # always including D3
        zs = [j for j in (1, 2, 3) if chis[j - 1] == 0]
        require(len(zs) == 2 and 3 in zs, "p divides D3 and not one other D_j")
        a = zs[0] if zs[0] != 3 else zs[1]
        c = 2 if a == 1 else 1
        kind, facs = factor_prime(ks[a - 1], p0)
        require(kind == "ramified", "p divides D_a but does not ramify in k_a")
        P_a = facs[0][0]
        gens = [embed(L, g) for g in P_a.gen_pair()]
        r = -P_a.b % p0  # w_a -> r, as P_a = [p0, b + w_a]
        if chis[c - 1] == 1:
            for x in roots_mod_p(ks[c - 1].minpoly, p0):
                add(gens + [w_minus(c, x)], 2, None, *((r, x) if a == 1 else (x, r)))
        else:
            add(gens, 2, *other_inert(a, r))
    require(sum(e * f for _, e, f in out) == 4, "the primes above p have sum e*f != 4")
    prod = reduce(operator.mul, (Q**e for Q, e, _ in out))
    require(prod == BqIdeal.from_int(L, p0), "the product of Q^e over p is not p*O_L")
    out.sort(key=lambda t: (t[0].norm(), t[0].rows))
    return out


def extend_ideal(L: BiquadField, I: QIdeal) -> BqIdeal:
    """I * O_L for an ideal I of one of the three quadratic subfields k_j,
    with its relative norms: L = k_j * k_i is linearly disjoint over Q, so
    N_{L/k_j}(I O_L) = I^2, and for i != j the involution fixing k_i acts
    on k_j as its conjugation, so N_{L/k_i}(I O_L) = N(I) O_{k_i}."""
    ks = (L.k1, L.k2, L.k3)
    if I.field not in ks:
        raise ValueError("ideal does not live in a subfield of L")
    ext = BqIdeal.from_generators(L, [embed(L, g) for g in I.gen_pair()])
    n = I.norm()
    require(ext.norm() == n**2, "N(I*O_L) is not N(I)^2")
    norms = tuple(I * I if k == I.field else QIdeal(k, n, 1, 0) for k in ks)
    return BqIdeal(L, ext.rows, ext.gens, rel_norms=norms)


def ramified_prime(L: BiquadField, P: QIdeal) -> BqIdeal:
    """P O_L + P_2 O_L for a degree-one prime P of k1 over p = disc(k2), with
    P_2 = [p, (p - 1)/2 + w2] = (sqrt p) the ramified prime of k2: the prime
    of L over P, whose square is P O_L, built from the three generators
    p, b + w1 and (p - 1)/2 + w2 without splitting p in L."""
    p = L.p
    P_2 = QIdeal(L.k2, 1, p, (p - 1) // 2)
    return BqIdeal.from_generators(L, [embed(L, g) for g in (*P.gen_pair(), P_2.gen_pair()[1])])


def _primes_over(L: BiquadField, q: QIdeal, above) -> list[tuple[BqIdeal, int, int]]:
    """The (ideal, e, f) triples of `above`, the `primes_above` of the
    rational prime below the prime q of a quadratic subfield, that lie over q."""
    gens = [embed(L, g) for g in q.gen_pair()]
    return [t for t in above if all(t[0].contains(g) for g in gens)]


def extend_modulus(L: BiquadField, m: Modulus) -> tuple[BqIdeal, ...]:
    """All primes of L above the primes of m, each with multiplicity one;
    one `primes_above` per rational prime below m."""
    above = {p0: primes_above(L, p0) for p0 in {q.entry()[0] for q in m.primes}}
    seen = {
        Q.rows: Q for q in m.primes for Q, _, _ in _primes_over(L, q, above[q.entry()[0]])
    }
    return tuple(sorted(seen.values(), key=lambda Q: (Q.norm(), Q.rows)))


# ---------------------------------------------------------------------------
# exact square roots


def _isqrt_exact(n: int) -> int | None:
    """The square root of n when n is the square of an integer, else None."""
    r = math.isqrt(n) if n >= 0 else -1
    return r if r * r == n else None


def _div_int(x: int, n: int) -> int | None:
    q, r = divmod(x, n)
    return None if r else q


def _div_k1(z: QElt, n: int) -> QElt | None:
    return None if z.x % n or z.y % n else QElt(z.field, z.x // n, z.y // n)


def _sqrt_by_norm(theta, field, U, V, D: int, t: int, sqrt, divide, join):
    """rho = (X + Y sqrt D)/2 with rho^2 = theta = (U + V sqrt D)/2, or None,
    over a base ring with exact `sqrt` and `divide`; `join(field, (X - Y t)/2,
    Y)` builds rho. X^2 and D Y^2 are the roots U + r and U - r, in one order
    or the other, of z^2 - 2Uz + D V^2, with r^2 = U^2 - D V^2."""
    r = sqrt(U * U - V * V * D)
    if r is None:
        return None
    for X2, DY2 in ((U + r, U - r), (U - r, U + r)):
        Y2 = divide(DY2, D)
        X = None if Y2 is None else sqrt(X2)
        Y = None if X is None else sqrt(Y2)
        if Y is None:
            continue
        for sx in (X, -X):
            for sy in (Y, -Y):
                if sx * sy != V:
                    continue
                A = divide(sx - sy * t, 2)
                if A is not None:
                    rho = join(field, A, sy)
                    if rho * rho == theta:
                        return rho
    return None


def sqrt_in_quadratic(theta: QElt) -> QElt | None:
    """rho in O_K with rho^2 = theta, or None: `_sqrt_by_norm` over Z."""
    K = theta.field
    U = 2 * theta.x + theta.y * K.t
    return _sqrt_by_norm(theta, K, U, theta.y, K.D, K.t, _isqrt_exact, _div_int, QElt)


# Degree-one primes of L that `sqrt_in_biquad` tests a candidate at before any
# integer square root; a non-square passes each with chance about one half.
_SQUARE_TEST_PRIMES = 8


# The square roots of one field come in a run (a unit group, a norm descent),
# so only the field in hand is kept: 256 fields' primes were 0.2 MB.
@lru_cache(maxsize=1)
def _square_test_primes(L: BiquadField) -> tuple[tuple[int, int, int, int], ...]:
    """(q, r1, r2, r1*r2 mod q) for the first _SQUARE_TEST_PRIMES odd primes q
    that split completely in L, with r1, r2 the images of w1, w2 at one prime
    of L above q (O_L = Z[w1, w2], so any pair of roots names one). About a
    quarter of all primes split completely; a field with fewer such q below
    1024 keeps fewer, which weakens the test but never makes it wrong."""
    out = []
    D1, p = L.k1.D, L.p
    for q in primes_up_to(1024)[1:]:
        # Euler's criterion: (D1 / q) = (p / q) = 1
        if pow(D1 % q, q >> 1, q) == 1 and pow(p % q, q >> 1, q) == 1:
            r1 = roots_mod_p(L.k1.minpoly, q)[0]
            r2 = roots_mod_p(L.k2.minpoly, q)[0]
            out.append((q, r1, r2, r1 * r2 % q))
            if len(out) == _SQUARE_TEST_PRIMES:
                break
    return tuple(out)


def _residue_signs(w: BqElt) -> tuple[int, int]:
    """(zero, nonres): bit i of `zero` is set when w is 0 at the i-th
    square-test prime, bit i of `nonres` when w is a nonzero non-residue
    there. The residue map is a ring map onto F_q, so the signs of a product
    are the XOR of its factors' signs wherever no factor is 0."""
    zero = nonres = 0
    for i, (q, r1, r2, r12) in enumerate(_square_test_primes(w.L)):
        x = (w.a + w.b * r1 + w.c * r2 + w.e * r12) % q
        if not x:
            zero |= 1 << i
        elif pow(x, q >> 1, q) != 1:
            nonres |= 1 << i
    return zero, nonres


def sqrt_in_biquad(w: BqElt) -> BqElt | None:
    """xi in O_L with xi^2 = w, or None: `_sqrt_by_norm` over k1 on
    w = A + B w2, with t2 = 1 as p = 1 mod 4. Complete, since the k1-norm of
    a square is a square in k1. A non-residue at a square-test prime (no
    square is one) rejects w before any integer square root."""
    L = w.L
    if w.is_zero():
        return BqElt(L, 0, 0, 0, 0)
    if _residue_signs(w)[1]:
        return None
    A, B = w._split()
    return _sqrt_by_norm(w, L, A + A + B, B, L.p, 1, sqrt_in_quadratic, _div_k1, BqElt._join)


# ---------------------------------------------------------------------------
# units and class number


@dataclass(frozen=True)
class UnitGroupData:
    """A fundamental system for E_L: the subfield units corrected by the
    square roots that exist in L (index q over the naive product)."""

    units: tuple[BqElt, BqElt, BqElt]
    index_q: int


def _sign_unit_classes(L: BiquadField, units, base: BqElt | None = None):
    """((m1, m2, m3), eta) with eta = (-1)^s * u1^m1 * u2^m2 * u3^m3 for the
    patterns in {0, 1}^4, s slowest: one representative of each class of
    <-1, u1, u2, u3> modulo squares. Only the classes for which base * eta
    (eta alone when there is no base) is not proved a non-square by
    `_residue_signs` are yielded; the signs of -1, the units and the base
    are taken once, and a class's are their XOR."""
    factors = (-L.one(), *units)
    signs = [_residue_signs(x) for x in (*factors, L.one() if base is None else base)]
    zero = reduce(operator.or_, (z for z, _ in signs))
    for s, *ms in product((0, 1), repeat=4):
        nonres = signs[-1][1]
        for m, (_, bits) in zip((s, *ms), signs):
            if m:
                nonres ^= bits
        if nonres & ~zero:
            continue
        eta = factors[0] if s else L.one()
        for m, u in zip(ms, units):
            if m:
                eta = eta * u
        yield ms, eta


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def unit_group(L: BiquadField) -> UnitGroupData:
    basis = [embed(L, fundamental_unit(k)) for k in (L.k1, L.k2, L.k3)]
    q = 1
    changed = True
    while changed:
        changed = False
        for ms, eta in _sign_unit_classes(L, tuple(basis)):
            if not any(ms):
                continue
            xi = sqrt_in_biquad(eta)
            if xi is not None:
                basis[max(i for i, m in enumerate(ms) if m)] = xi
                q *= 2
                changed = True
                break
    require(all(u.is_unit() for u in basis), "a unit group generator is not a unit")
    return UnitGroupData(tuple(basis), q)


def class_number(L: BiquadField) -> int:
    """h(L) = q * h1 * h2 * h3 / 4, the V4 class number relation, with q
    the unit index of `unit_group` and h_j the class numbers of k1, k2, k3."""
    num = unit_group(L).index_q * math.prod(
        class_group(k).h for k in (L.k1, L.k2, L.k3)
    )
    require(num % 4 == 0, "the class number relation does not give an integer")
    return num // 4


# ---------------------------------------------------------------------------
# principality


def intersect_subfield(P: BqIdeal, j: int) -> QIdeal:
    """P intersected with O_{k_j}, as an ideal of k_j: the last two rows of
    the HNF of P in the coordinates of a Z-basis of O_L ending in 1, w_j."""
    t1 = P.L.k1.t
    to_basis = {
        1: lambda a, b, c, e: (c, e, a, b),
        2: lambda a, b, c, e: (b, e, a, c),
        3: lambda a, b, c, e: (c - b * t1, e + 2 * b, a + b * t1, -b),
    }[j]
    h = hnf_rows([to_basis(*r) for r in P.rows])
    k = (P.L.k1, P.L.k2, P.L.k3)[j - 1]
    return _ideal_from_rows(k, [[r[3], r[2]] for r in h[2:]])  # (coef_w, coef_1)


def relative_norm_ideal(I: BqIdeal, j: int) -> QIdeal:
    """N_{L/k_j}(I): the one `extend_ideal` recorded, else computed as
    (I * tau_j I) intersect k_j."""
    if I.rel_norms is not None:
        return I.rel_norms[j - 1]
    return intersect_subfield(I * I.conj(j), j)


def is_principal(I: BqIdeal) -> BqElt | None:
    """A generator of I, or None with certainty.

    The three relative norms must be principal, say (beta_j); then
    (beta1 beta2 beta3) = I^2 * (n) with n = N(I), so a generator gamma
    satisfies gamma^2 = unit * beta1 beta2 beta3 / n. Scanning the sixteen
    unit square classes of E_L decides existence exactly; the classes whose
    product with b * n is a non-residue at a square-test prime are skipped
    unbuilt. The first check also certifies recorded relative norms."""
    L = I.L
    n = I.norm()
    if I == BqIdeal.unit_ideal(L):
        return L.one()
    betas = []
    for j in (1, 2, 3):
        A_j = relative_norm_ideal(I, j)
        beta = is_principal_with_generator(A_j)
        if beta is None:
            return None
        betas.append(beta)
    b = embed(L, betas[0]) * embed(L, betas[1]) * embed(L, betas[2])
    require(_generates((I * I).scale(n), b), "(beta1 beta2 beta3) != I^2 (N I)")
    base = b * n
    for _, w in _sign_unit_classes(L, unit_group(L).units, base):
        eta = sqrt_in_biquad(w * base)
        if eta is None:
            continue
        gamma = eta.divide_int(n)
        require(gamma is not None and _generates(I, gamma),
                "the norm-descent root does not generate I")
        return gamma
    return None


# ---------------------------------------------------------------------------
# residues mod an extended modulus, for the congruence condition on generators


def l_residue_system(primes: tuple[BqIdeal, ...]) -> ResidueSystem:
    """(O_L/m_L)^* as a product of cyclic factors, one per prime, each from
    the residue map that `primes_above` gave its prime."""
    require(all(Q.residue_map for Q in primes), "a residue prime carries no residue map")
    return ResidueSystem([ResidueFactor(*Q.residue_map) for Q in primes])


def adjust_to_congruence(
    gen: BqElt, primes: tuple[BqIdeal, ...]
) -> BqElt | None:
    """A unit multiple of gen that is 1 mod every prime in the list, if the
    unit image reaches the needed residue class."""
    if not primes:
        return gen
    units = [-gen.L.one()] + list(unit_group(gen.L).units)
    return adjust_by_units(gen, l_residue_system(primes), units)


# ---------------------------------------------------------------------------
# the end-to-end capitulation check


@dataclass
class CapitulationReport:
    status: str  # capitulates | failed | failed_congruence |
    #              invalid_certificate | unverified_composite
    d: int
    p: int
    generator: tuple[int, int, int, int] | None = None
    checks: dict = dc_field(default_factory=dict)
    detail: str = ""

    def as_dict(self) -> dict:
        return plain(self)


def verify_certificate(cert) -> CapitulationReport:
    """Rebuild the certificate from its (d, modulus, target, ell, n, h,
    bound, p) with the search's builder, compare the whole record, then
    hand the quadratic step to `decide_capitulation`."""
    from .capsearch import certificate_at
    from .kummerfrob import ConditionChecker, SearchParams

    K = quadratic_field(cert.d)
    rep = CapitulationReport(status="", d=cert.d, p=cert.p)
    if cert.p > cert.bound:
        rep.status, rep.detail = "invalid_certificate", f"p exceeds the bound {cert.bound}"
        return rep
    try:
        modulus = Modulus.from_entries(K, cert.modulus)
        checker = ConditionChecker(
            K, modulus, cert.target,
            SearchParams(cert.ell, cert.n, cert.h, cert.bound),
        )
        check = checker.check(cert.p)
    except InputError as err:
        rep.status, rep.detail = "invalid_certificate", str(err)
        return rep
    if not check.ok:
        rep.checks["conditions"] = False
        rep.status = "invalid_certificate"
        rep.detail = f"condition re-check failed at ({check.failed_at})"
        return rep
    rebuilt = certificate_at(checker, check)
    rep.checks["conditions"] = replace(rebuilt, cyclic_field=cert.cyclic_field) == cert
    if not rep.checks["conditions"]:
        rep.status = "invalid_certificate"
        rep.detail = "certificate data does not match the re-check"
        return rep
    degree = rebuilt.cyclic_field.degree
    if rebuilt.cyclic_field != cert.cyclic_field:
        rep.status = "invalid_certificate"
        rep.detail = f"the cyclic field is not the degree {degree} field of conductor {cert.p}"
        return rep
    if degree != 2:
        rep.status = "unverified_composite"
        rep.detail = (
            f"direct verification only covers quadratic steps; "
            f"degree {degree} certificate is recorded unverified"
        )
        return rep
    core = decide_capitulation(K, modulus, cert.p, cert.root)
    core.checks = {**rep.checks, **core.checks}
    return core


def decide_capitulation(K: QuadField, modulus: Modulus, p: int, root: int) -> CapitulationReport:
    """The capitulation core: whether the prime of K over p named by `root`
    becomes principal in L = K(sqrt p) with a generator that is 1 mod the
    primes of L above the modulus. p must be a prime = 1 mod 4 that splits
    in K; the report carries the status, the generator and the checks."""
    rep = CapitulationReport(status="", d=K.d, p=p)
    L = biquad_field(K.d, p)
    p_K = prime_above_from_root(K, p, root)
    ext = extend_ideal(L, p_K)
    q_L = ramified_prime(L, p_K)
    # with N(p_K O_L) = p^2 this gives N(q_L) = p, so q_L is prime
    rep.checks["ramified_square"] = q_L**2 == ext
    require(rep.checks["ramified_square"], "q_L^2 != p_K O_L")

    gamma = is_principal(ext)
    if gamma is None:
        rep.status = "failed"
        rep.detail = "extended ideal is not principal at this step"
        return rep
    m_L = extend_modulus(L, modulus)
    alpha = adjust_to_congruence(gamma, m_L)
    if alpha is None:
        rep.status = "failed_congruence"
        rep.detail = "no unit multiple of the generator is 1 mod the modulus"
        return rep
    rep.checks["generates"] = _generates(ext, alpha)
    rep.checks["congruent_to_one"] = all(
        Q.contains(alpha - L.one()) for Q in m_L
    )
    require(rep.checks["generates"], "the adjusted generator does not generate p_K O_L")
    require(rep.checks["congruent_to_one"], "the adjusted generator is not 1 mod m_L")
    rep.status = "capitulates"
    rep.generator = alpha.coords()
    return rep
