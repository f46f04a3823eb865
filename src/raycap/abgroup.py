"""Integer matrix normal forms and finitely generated abelian groups.

Groups are presented by relation matrices over Z. The Smith normal form
carries all the structure we need: invariant factors and discrete logs of
ambient elements. Everything is exact: the column transform V is updated
with each column operation, so no rational arithmetic ever appears. The
row transform U is rows x rows, far larger than a tall relation matrix
itself, so `snf` builds it only when asked; only `solve_left` reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def vec_mat(v: Sequence[int], m: Sequence[Sequence[int]]) -> list[int]:
    if len(v) != len(m):
        raise ValueError("shape mismatch")
    cols = len(m[0]) if m else 0
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(cols)]


@dataclass(frozen=True)
class SNF:
    """U @ M @ V == diag(diag), with U, V unimodular and diag[i] | diag[i+1].
    U is None unless `snf` was asked for it."""

    diag: tuple[int, ...]
    U: tuple[tuple[int, ...], ...] | None
    V: tuple[tuple[int, ...], ...]
    nrows: int
    ncols: int


def snf(m: Sequence[Sequence[int]], with_u: bool = False) -> SNF:
    """Smith normal form with transforms. Pivots are chosen as the smallest
    nonzero magnitude in the remaining block, which keeps entries tame at
    the sizes this library meets.

    V is always built. The row transform U is built only when `with_u` is
    set; the pivot and column sequence never reads it, so diag and V are
    the same either way."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    u = _identity(nr) if with_u else None
    v = _identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        # col dst += k * col src
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate smallest nonzero entry in the trailing block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear the pivot column, then the pivot row
            dirty = False
            for i in range(nr):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                    dirty = True
            for j in range(nc):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                # pivot must divide the whole trailing block
                bad = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if a[i][j] % a[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(bad, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SNF(
        diag,
        None if u is None else tuple(map(tuple, u)),
        tuple(map(tuple, v)),
        nr,
        nc,
    )


def solve_left(m: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """An integer row x with x @ M = target, or None."""
    s = snf(m, with_u=True)
    u = vec_mat(list(target), [list(r) for r in s.V])
    w = [0] * s.nrows
    for j in range(s.ncols):
        d = s.diag[j] if j < len(s.diag) else 0
        if d != 0:
            if u[j] % d != 0:
                return None
            if j < s.nrows:
                w[j] = u[j] // d
        elif u[j] != 0:
            return None
    return vec_mat(w, [list(r) for r in s.U])


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = ax + by and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hnf_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Hermite normal form of the row space: echelon, positive pivots,
    entries above each pivot reduced into [0, pivot). Canonical for the
    row lattice, so two bases agree iff their HNFs are equal."""
    h = [list(row) for row in m]
    row = 0
    nc = len(h[0]) if h else 0
    for col in range(nc):
        piv = next((i for i in range(row, len(h)) if h[i][col] != 0), None)
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        for i in range(row + 1, len(h)):
            a, b = h[row][col], h[i][col]
            if b % a == 0:  # the pivot stays; no extended gcd needed
                if b:
                    q = b // a
                    h[i] = [y - q * x for x, y in zip(h[row], h[i])]
                continue
            g, x, y = xgcd(a, b)
            r0 = [x * p + y * q for p, q in zip(h[row], h[i])]
            r1 = [(a // g) * q - (b // g) * p for p, q in zip(h[row], h[i])]
            h[row], h[i] = r0, r1
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
        row += 1
    return h[:row]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor coordinates.

    invariants: d_1 | d_2 | ... | d_k, all > 1. Elements are int tuples of
    length k, component i taken mod d_i. `to_canonical` maps an exponent
    vector on the ambient generators to coordinates.
    """

    invariants: tuple[int, ...]
    labels: tuple[str, ...]
    to_canonical: tuple[tuple[int, ...], ...]  # len(labels) x k

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def order(self) -> int:
        return math.prod(self.invariants)

    def reduce(self, y: Sequence[int]) -> tuple[int, ...]:
        return tuple(c % d for c, d in zip(y, self.invariants, strict=True))

    def scale(self, k: int, y: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([k * c for c in y])

    def dlog_ambient(self, exponents: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of prod(gen_i ^ exponents_i)."""
        if len(exponents) != len(self.labels):
            raise ValueError("exponent vector has the wrong length")
        return self.reduce(vec_mat(list(exponents), [list(r) for r in self.to_canonical]))

    def element_order(self, y: Sequence[int]) -> int:
        out = 1
        for c, d in zip(self.reduce(y), self.invariants):
            out = math.lcm(out, d // math.gcd(c, d))
        return out

    def contains_power(self, k: int, y: Sequence[int]) -> bool:
        """Whether y lies in the subgroup of k-th powers."""
        return all(c % math.gcd(k, d) == 0 for c, d in zip(self.reduce(y), self.invariants))

    def stacked(self, gens: Sequence[Sequence[int]]) -> Matrix:
        """The reduced gens above the group's relations d_i * e_i."""
        rows = [list(self.reduce(g)) for g in gens]
        rows += [
            [d if i == j else 0 for j in range(self.rank)]
            for i, d in enumerate(self.invariants)
        ]
        return rows

    def subgroup_order(self, gens: Sequence[Sequence[int]]) -> int:
        """Order of the subgroup generated by the given elements."""
        if self.rank == 0:
            return 1
        quotient = math.prod(snf(self.stacked(gens)).diag)
        return self.order() // quotient

    def express(
        self, gens: Sequence[Sequence[int]], y: Sequence[int]
    ) -> list[int] | None:
        """Coefficients c with sum c_j gens_j == y, or None when y is not in
        the span. Coefficients are not unique; any valid witness is fine."""
        if self.rank == 0:
            return [0] * len(gens)
        x = solve_left(self.stacked(gens), list(self.reduce(y)))
        if x is None:
            return None
        return x[: len(gens)]


def group_from_relations(
    relations: Iterable[Sequence[int]], labels: Sequence[str]
) -> FiniteAbelianGroup:
    """Z^n modulo the row span of `relations`. Raises if the quotient is
    infinite, since everything downstream expects finite groups."""
    labels = tuple(labels)
    n = len(labels)
    rows = [list(r) for r in relations]
    if any(len(r) != n for r in rows):
        raise ValueError("relation width disagrees with generator count")
    if not rows:
        rows = [[0] * n]
    s = snf(rows)
    diag = list(s.diag) + [0] * (n - len(s.diag))
    if any(d == 0 for d in diag):
        raise ValueError("presented group is infinite")
    kept = [i for i in range(n) if diag[i] != 1]
    invariants = tuple(diag[i] for i in kept)
    to_canon = tuple(tuple(s.V[i][j] % diag[j] for j in kept) for i in range(n))
    return FiniteAbelianGroup(invariants, labels, to_canon)

