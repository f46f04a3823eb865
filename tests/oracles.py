"""Reference implementations that only the tests use: a fraction-free
determinant, matrix products, multiplicative orders, divisor lists,
synthetic abelian groups given by their invariants, the cyclic complement
of an element of an ell-group, ideals of K as the HNF of their generators'
lattice, exact ideal division and ray-principal generators. The library
never calls them. The ideal oracles stand on the library's `QIdeal` and its
HNF, and division and ray principality also on its ideal product and
generator search; the rest share no code with it.
"""
from __future__ import annotations

import math
from typing import Sequence

from raycap.abgroup import FiniteAbelianGroup
from raycap.exactmath import factor, valuation
from raycap.quadfield import (
    QElt,
    QIdeal,
    QuadField,
    RayClassData,
    _ideal_from_rows,
    adjust_by_units,
    class_key,
    is_principal_with_generator,
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
    return FiniteAbelianGroup(ds, labels, eye, eye)


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
