"""Reference implementations that only the tests use: a fraction-free
determinant, matrix products, multiplicative orders, divisor lists,
splitting degrees of polynomials mod q, analytic class numbers of
imaginary fields, synthetic abelian groups given by their invariants, the
identity, sums and element list of a group in invariant-factor form, the
cyclic complement of an element of an ell-group, ideals of K as the HNF of
their generators' lattice, exact ideal division, ray-principal generators,
real reduction by a rho walk that moves its multiplier at every step,
with an exact multiplier num/den kept in lowest terms as a reference,
ideals of L = Q(sqrt d, sqrt p) as the HNF of all products of basis
elements, and the unit norm index of a quadratic field over Q by exponent
lattices. The library never calls them. The ideal oracles stand on the
library's `QIdeal`, `BqIdeal` and its HNF, division and ray principality
also on its ideal product and generator search, the rho walk on its
local multiplier class, and the norm index on its residue systems and unit
lattice; the rest share no code with it.
"""
from __future__ import annotations

import itertools
import math
from itertools import zip_longest
from typing import Iterator, Sequence

from raycap.abgroup import FiniteAbelianGroup, hnf_rows, solve_left
from raycap.ambigcheck import _unit_lattice
from raycap.biquad import BqElt, BqIdeal
from raycap.exactmath import factor, power, valuation
from raycap.errors import InvariantError
from raycap.quadfield import (
    QElt,
    QIdeal,
    QuadField,
    RayClassData,
    _LocalMult,
    _ideal_from_rows,
    adjust_by_units,
    class_key,
    is_principal_with_generator,
    modulus_from_rational,
    residue_system,
    unit_gens,
)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def group_identity(G: FiniteAbelianGroup) -> tuple[int, ...]:
    return (0,) * G.rank


def group_add(G: FiniteAbelianGroup, y1: Sequence[int], y2: Sequence[int]) -> tuple[int, ...]:
    return G.reduce([a + b for a, b in zip(y1, y2, strict=True)])


def group_elements(G: FiniteAbelianGroup) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(d) for d in G.invariants))


def group_from_invariants(ds: Sequence[int]) -> FiniteAbelianGroup:
    """Synthetic group with the given invariants as its own ambient."""
    ds = tuple(int(d) for d in ds if d != 1)
    if any(d < 1 for d in ds):
        raise ValueError("invariants must be positive")
    for a, b in zip(ds, ds[1:]):
        if b % a != 0:
            raise ValueError("invariants must form a divisibility chain")
    k = len(ds)
    eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    labels = tuple(f"g{i}" for i in range(k))
    return FiniteAbelianGroup(ds, labels, eye)


def cyclic_complement(
    invariants: Sequence[int], c: Sequence[int], ell: int
) -> tuple[int, list[tuple[int, ...]]]:
    """For an ell-group A = prod Z/d_i and an element c, pick the coordinate
    i0 where d_i/gcd(c_i, d_i) peaks and return (i0, basis of B) where
    B = <e_i : i != i0>. Then A/B is cyclic and c keeps its full order in
    the quotient; dropping any other coordinate can shrink the image order.
    """
    k = len(invariants)
    if k == 0:
        raise ValueError("trivial group has no distinguished coordinate")
    if len(c) != k:
        raise ValueError("element length disagrees with the group rank")
    n = []
    for d in invariants:
        v = valuation(d, ell)
        if ell**v != d:
            raise ValueError(f"invariant {d} is not a power of {ell}")
        n.append(v)
    gaps = []
    for ci, di, ni in zip(c, invariants, n):
        ci %= di
        gaps.append(0 if ci == 0 else ni - min(valuation(ci, ell), ni))
    best = max(gaps)
    i0 = gaps.index(best)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k) if i != i0]
    return i0, basis


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, k in factor(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def multiplicative_order(a: int, m: int, group_exponent: int | None = None) -> int:
    """Order of a in (Z/m)^*. If the caller knows a multiple of the order
    (e.g. p - 1 for prime p) passing it avoids factoring m."""
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if group_exponent is None:
        group_exponent = _carmichael(m)
    e = group_exponent
    if pow(a, e, m) != 1:
        raise ValueError("group_exponent is not a multiple of the order")
    for p in factor(e):
        while e % p == 0 and pow(a, e // p, m) == 1:
            e //= p
    return e


def _carmichael(m: int) -> int:
    lam = 1
    for p, k in factor(m).items():
        if p == 2:
            piece = 2 ** max(k - 2, 1) if k > 1 else 1
        else:
            piece = p ** (k - 1) * (p - 1)
        lam = lam * piece // math.gcd(lam, piece)
    return lam


# ---------------------------------------------------------------------------
# splitting degrees mod q on coefficient lists (low to high), the reference
# for the Gaussian period check; the library solves only quadratics


def _poly_trim(f: Sequence[int], q: int) -> list[int]:
    out = [c % q for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(f: Sequence[int], g: list[int], q: int) -> list[int]:
    """f mod g over F_q, for g trimmed and nonzero."""
    f = _poly_trim(f, q)
    inv = pow(g[-1], -1, q)
    while len(f) >= len(g):
        c, shift = f[-1] * inv % q, len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] -= c * gi
        f = _poly_trim(f, q)
    return f


def _poly_mulmod(f: list[int], g: list[int], h: list[int], q: int) -> list[int]:
    """f*g mod h over F_q."""
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _poly_mod(out, h, q)


def _gcd_degree(f: Sequence[int], g: Sequence[int], q: int) -> int:
    """The degree of gcd(f, g) over F_q, -1 when both are zero."""
    f, g = _poly_trim(f, q), _poly_trim(g, q)
    while g:
        f, g = g, _poly_mod(f, g, q)
    return len(f) - 1


def splitting_degree(coeffs: Sequence[int], q: int) -> int:
    """Common degree of the irreducible factors of f mod q, for squarefree f
    mod q whose factors all share one degree (the Frobenius orbit length):
    the least j >= 1 with x^(q^j) = x mod (f, q). Raises ValueError when f
    is constant, not squarefree, or has factors of different degrees."""
    f = _poly_trim(coeffs, q)
    n = len(f) - 1
    if n < 1:
        raise ValueError("need a nonconstant polynomial")
    if _gcd_degree(f, [i * c for i, c in enumerate(f)][1:], q) != 0:
        raise ValueError(f"polynomial is not squarefree mod {q}")
    x = _poly_mod([0, 1], f, q)
    w = x
    for j in range(1, n + 1):
        w = power(w, q, [1], lambda a, b: _poly_mulmod(a, b, f, q))
        g = _gcd_degree([a - b for a, b in zip_longest(w, x, fillvalue=0)], f, q)
        if g == n:
            return j
        if g > 0:  # some factor has degree exactly j while another does not
            raise ValueError(f"factor degrees are not uniform mod {q}")
    raise ArithmeticError("Frobenius order exceeded the degree")  # unreachable


# ---------------------------------------------------------------------------
# class numbers of imaginary fields by the analytic formula


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] for 0 <= k < n: the least prime factor of k >= 2."""
    spf = list(range(n))
    for q in range(2, math.isqrt(n) + 1):
        if spf[q] == q:
            for k in range(q * q, n, q):
                if spf[k] == k:
                    spf[k] = q
    return spf


def analytic_class_number(D: int, spf: list[int]) -> int:
    """h = -(w/(2|D|)) * sum_{0<a<|D|} (D/a) * a for a fundamental D < 0,
    w the number of roots of unity (6 at D = -3, 4 at D = -4, else 2), with
    spf a smallest-prime-factor table past |D|. The Kronecker character
    comes from Euler's criterion on primes, extended multiplicatively, so
    it shares no code with the library."""
    n = -D
    chi = [0, 1] + [0] * (n - 2)
    for a in range(2, n):
        p = spf[a]
        if p != a:
            chi[a] = chi[p] * chi[a // p]
        elif p == 2:
            chi[a] = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            r = pow(D, (p - 1) // 2, p)
            chi[a] = 0 if r == 0 else (1 if r == 1 else -1)
    total = sum(chi[a] * a for a in range(1, n)) * {-3: 3, -4: 2}.get(D, 1)
    if total % n:
        raise ArithmeticError(f"the class number sum is not divisible by |D| = {n}")
    return -total // n


# ---------------------------------------------------------------------------
# ideals of K by lattice HNF, the product the library had before composition


def hnf_ideal(field: QuadField, gens: Sequence[QElt]) -> QIdeal:
    """The ideal generated by gens: the HNF of the lattice spanned by each
    z and z*w, as rows (coefficient of w, coefficient of 1), so the pivots
    are [[p, q], [0, r]] with r the least rational integer."""
    t, u = field.t, field.u
    rows = []
    for z in gens:
        rows.append([z.y, z.x])
        rows.append([z.x + z.y * t, z.y * u])  # z * w
    return _ideal_from_rows(field, rows)


def principal_ideal(z: QElt) -> QIdeal:
    if z.is_zero():
        raise ValueError("zero element generates no ideal")
    return hnf_ideal(z.field, [z])


def divide_exact(I: QIdeal, J: QIdeal) -> QIdeal:
    """I / J when J divides I, from I * conj(J) = (N J) * (I / J)."""
    prod = I * J.conj()
    n = J.norm()
    if prod.g % n:
        raise ValueError("ideal does not divide")
    return QIdeal(I.field, prod.g // n, prod.a, prod.b)


def is_ray_principal(ray: RayClassData, I: QIdeal) -> QElt | None:
    """A generator x of I with x = 1 mod^x m, when I's ray class is trivial."""
    if any(ray.dlog(I)):
        return None
    # a trivial ray class is principal outright, so the table vector is 0
    assert not any(ray.ray_table[class_key(I)])
    y = is_principal_with_generator(I)
    assert y is not None
    out = adjust_by_units(y, ray.residue, unit_gens(ray.field))
    assert out is None or principal_ideal(out).key() == I.key()
    return out


# ---------------------------------------------------------------------------
# real reduction along the rho orbit, as the library walked it before its
# reduction became one loop that folds the steps' factors in once


class Mult:
    """A running multiplier num/den with num in O_K, den a positive integer,
    kept in lowest terms: the exact element, moved one factor at a time."""

    __slots__ = ("num", "den")

    def __init__(self, num: QElt, den: int):
        g = math.gcd(math.gcd(abs(num.x), abs(num.y)), den)
        self.num = QElt(num.field, num.x // g, num.y // g) if g > 1 else num
        self.den = den // g

    def fold(self, factors) -> "Mult":
        """This multiplier times each (x + y*w) / den of `factors` in turn."""
        mult = self
        for x, y, den in factors:
            mult = Mult(mult.num * QElt(mult.num.field, x, y), mult.den * den)
        return mult


def _local_times(P, state, x: int, y: int, den: int):
    """One step of a `_LocalMult`'s data at the `_LocalPrime` P: the
    (v, num, den) of the multiplier times (x + y*w) / den."""
    v, num, dr = state
    if P.b is not None and (rx := (x - y * P.b) % P.p):
        vx = 0
    else:
        vx, rx = P.unit(x, y)
    r = den % P.p
    if r == 0:
        vd, r = P.unit(den, 0)
        if P.b is None:
            r = r[0]
        vx -= vd
    return v + vx, P.mul(num, rx), dr * r % P.p


def _step_times(mult, x: int, y: int, den: int):
    """mult times (x + y*w) / den, for a `Mult` as an element of K, for a
    `_LocalMult` by `_local_times` at each prime."""
    if isinstance(mult, _LocalMult):
        return _LocalMult(mult.primes, tuple(
            _local_times(P, st, x, y, den) for P, st in zip(mult.primes, mult.state)
        ))
    return mult.fold(((x, y, den),))


def rho_orbit(field: QuadField, a: int, b: int, mult=None):
    """[a, b+w] and the ideals the rho steps lead to from it, without end,
    as (a, b, mult): B centered in (-a, a] while a > sqrt(D), in the window
    (s-2a, s] after, and the multiplier moved at every step."""
    D, t, s = field.D, field.t, field.isqrt_D
    while True:
        yield a, b, mult
        B0 = 2 * b + t
        if a > s:
            B = B0 - 2 * a * ((B0 + a - 1) // (2 * a))
        else:
            B = s - ((s - B0) % (2 * a))
        c = abs((D - B * B) // (4 * a))
        if c == 0:
            raise InvariantError("a rho step met a norm-zero form")
        if mult is not None:
            mult = _step_times(mult, B + t, -2, 2 * a)
        a, b = c, ((-B - t) // 2) % c


def is_reduced_real(field: QuadField, a: int, b: int) -> bool:
    """|sqrt(D) - 2a| < B < sqrt(D) for B = 2b + t taken in (s-2a, s]."""
    s = field.isqrt_D
    B = s - ((s - 2 * b - field.t) % (2 * a))
    return B > 0 and (2 * a <= B or (2 * a - B) ** 2 < field.D)


def reduce_real_by_orbit(field: QuadField, a: int, b: int, mult=None):
    """(a*, b*, mult*): the first reduced ideal on the rho orbit of
    [a, b+w], with the same step limit as the library's reduction."""
    limit = 64 + 4 * (a.bit_length() + abs(field.D).bit_length())
    for steps, (a, b, mult) in enumerate(rho_orbit(field, a, b, mult)):
        if is_reduced_real(field, a, b):
            return a, b, mult
        if steps == limit:
            raise ArithmeticError("reduction failed to terminate")


# ---------------------------------------------------------------------------
# ideals of L = Q(sqrt d, sqrt p) by lattice HNF, the product the library had
# before its multiplication table: every element split into k1 coordinates


def bq_elt_product(x: BqElt, y: BqElt) -> BqElt:
    """(A + B*w2)(C + E*w2) with A, B, C, E in k1 = Z[w1] multiplied as
    `QElt`s and w2^2 = t2*w2 + u2."""
    k1, k2 = x.L.k1, x.L.k2
    A, B = QElt(k1, x.a, x.b), QElt(k1, x.c, x.e)
    C, E = QElt(k1, y.a, y.b), QElt(k1, y.c, y.e)
    BE = B * E
    lo, hi = A * C + BE * k2.u, A * E + B * C + BE * k2.t
    return BqElt(x.L, lo.x, lo.y, hi.x, hi.y)


def _bq_span(L, elts) -> BqIdeal:
    h = hnf_rows([list(z.coords()) for z in elts])
    assert len(h) == 4
    return BqIdeal(L, tuple(tuple(r) for r in h))


def bq_ideal_product(I: BqIdeal, J: BqIdeal) -> BqIdeal:
    """I*J as the HNF of the 16 products of their basis elements."""
    return _bq_span(I.L, [bq_elt_product(x, y) for x in I.elements() for y in J.elements()])


def bq_ideal_conj(I: BqIdeal, j: int) -> BqIdeal:
    """tau_j(I) as the HNF of the images of its basis elements."""
    return _bq_span(I.L, [z.tau(j) for z in I.elements()])


def bq_contains(I: BqIdeal, z: BqElt) -> bool:
    """Whether z is an integer combination of I's basis, by a Smith form."""
    return solve_left([list(r) for r in I.rows], list(z.coords())) is not None


# ---------------------------------------------------------------------------
# the unit norm index over Q by lattices


def quadratic_norm_index(L: QuadField, m: int) -> int:
    """(E^m_Q : N_{L/Q}(E^{m_L}_L)) over E_Q = <-1>: the exponent lattice of
    the units of L that are 1 mod m_L (the kernel of their classes in
    (O_L/m_L)^*), pushed down by the unit norms (-1)^s, against E^m_Q,
    which is E_Q when -1 = 1 mod m (m <= 2) and trivial otherwise."""
    ug = unit_gens(L)
    lattice = _unit_lattice(residue_system(L, modulus_from_rational(L, m)), ug)
    signs = [0 if u.norm() == 1 else 1 for u in ug]
    norm_rows = [[sum(a * s for a, s in zip(row, signs))] for row in lattice]
    over_norms = hnf_rows([[2]] + norm_rows)[0][0]
    over_em = 1 if m <= 2 else 2
    assert over_norms % over_em == 0
    return over_norms // over_em
