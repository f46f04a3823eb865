"""Reference implementations that only the tests use: a fraction-free
determinant, matrix products, multiplicative orders, divisor lists, and
synthetic abelian groups given by their invariants. The library never calls
them, so a test that checks it against one of these shares no code with it.
"""
from __future__ import annotations

import math
from typing import Sequence

from raycap.abgroup import FiniteAbelianGroup
from raycap.exactmath import factor


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
