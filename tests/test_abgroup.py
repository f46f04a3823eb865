import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    cyclic_complement,
    det_bareiss,
    group_add,
    group_elements,
    group_from_invariants,
    group_identity,
    mat_mul,
)
from raycap.abgroup import (
    group_from_relations,
    hnf_rows,
    lattice_index,
    snf,
    solve_left,
    vec_mat,
)
from raycap.errors import InvariantError

small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def gcd_of_minors(m, k):
    """gcd of all k x k minors; the classic determinantal-divisor oracle."""
    rows, cols = len(m), len(m[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = math.gcd(g, det_bareiss(sub))
    return g


class TestSNF:
    @given(small_matrix)
    def test_transform_identity(self, m):
        s = snf(m, with_u=True)
        u, v = [list(r) for r in s.U], [list(r) for r in s.V]
        prod = mat_mul(mat_mul(u, m), v)
        for i in range(len(m)):
            for j in range(len(m[0])):
                want = s.diag[i] if i == j and i < len(s.diag) else 0
                assert prod[i][j] == want

    @given(small_matrix)
    def test_unimodular_and_inverse(self, m):
        s = snf(m, with_u=True)
        assert det_bareiss([list(r) for r in s.U]) in (1, -1)
        assert det_bareiss([list(r) for r in s.V]) in (1, -1)

    @given(small_matrix)
    def test_row_transform_does_not_steer(self, m):
        # U is built on request only; the pivot and column sequence must not
        # depend on it, so diag and V agree bit for bit
        bare, full = snf(m), snf(m, with_u=True)
        assert bare.U is None and full.U is not None
        assert (bare.diag, bare.V) == (full.diag, full.V)

    @given(small_matrix)
    def test_divisibility_chain(self, m):
        d = snf(m).diag
        for a, b in zip(d, d[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    @given(small_matrix)
    def test_determinantal_divisors(self, m):
        # prod of the first k invariants == gcd of all k x k minors
        d = snf(m).diag
        for k in range(1, min(len(m), len(m[0])) + 1):
            assert math.prod(d[:k]) == gcd_of_minors(m, k)


class TestDetBareiss:
    def test_known(self):
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert det_bareiss([]) == 1

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_matches_cofactor_expansion(self, m):
        (a, b, c), (d, e, f), (g, h, i) = m
        want = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert det_bareiss(m) == want


class TestHNF:
    def test_known(self):
        assert hnf_rows([[0, 1], [1, 0]]) == [[1, 0], [0, 1]]
        assert hnf_rows([[2, 4], [4, 2]]) == [[2, 4], [0, 6]]

    @given(small_matrix, st.permutations(range(4)))
    def test_canonical_under_row_shuffle(self, m, perm):
        shuffled = [m[perm[i] % len(m)] for i in range(len(m))]
        base = hnf_rows(m + shuffled)
        assert hnf_rows(m + m) == hnf_rows(m)
        assert base == hnf_rows(m)  # duplicated rows span the same lattice


def _seeded_full_rank(n: int):
    """Full-rank n-column rows: a nonzero diagonal seed, random rows, each
    row shuffled into place, then row additions, which keep the lattice."""
    return st.tuples(
        st.lists(st.integers(1, 12), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=3),
        st.randoms(use_true_random=False),
    ).map(lambda t: _mix([[d * (i == j) for j in range(n)] for i, d in enumerate(t[0])]
                         + t[1], t[2]))


def _mix(rows, rng):
    rng.shuffle(rows)
    for _ in range(len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


class TestLatticeIndex:
    @given(st.integers(0, 4).flatmap(_seeded_full_rank))
    def test_equals_the_smith_diagonal_product(self, rows):
        assert lattice_index(rows) == math.prod(snf(rows).diag)

    def test_zero_columns_and_known(self):
        assert lattice_index([]) == lattice_index([[], []]) == 1
        assert lattice_index([[2, 4], [4, 2]]) == 12
        assert group_from_relations([], 0).subgroup_order([(), ()]) == 1

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0]], [[3, 0, 1]]])
    def test_rank_deficient_lattice_raises(self, rows):
        with pytest.raises(InvariantError, match="infinite index") as err:
            lattice_index(rows)
        assert err.value.exit_code == 8


class TestKernelAndSolve:
    @given(small_matrix, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_solve_roundtrip(self, m, xraw):
        x = (xraw * 4)[: len(m)]
        target = vec_mat(x, m)
        sol = solve_left(m, target)
        assert sol is not None
        assert vec_mat(sol, m) == target

    def test_unsolvable(self):
        assert solve_left([[2]], [1]) is None
        assert solve_left([[1, 0]], [0, 1]) is None


class TestGroupFromRelations:
    def test_diagonal_relations(self):
        g = group_from_relations([[2, 0], [0, 4]], 2)
        assert g.invariants == (2, 4)
        assert g.order() == 8

    def test_mixing_relations(self):
        # 2a + b = 0 and a + 2b = 0 force a cyclic group of order 3
        g = group_from_relations([[2, 1], [1, 2]], 2)
        assert g.invariants == (3,)
        assert g.element_order(g.dlog_ambient([1, 0])) == 3

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            group_from_relations([[2, 0]], 2)

    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3)
    )
    def test_order_is_det(self, m):
        d = det_bareiss(m)
        if d == 0:
            return
        g = group_from_relations(m, 3)
        assert g.order() == abs(d)
        # dlog kills every relation row
        for row in m:
            assert g.dlog_ambient(row) == group_identity(g)

    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2),
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    )
    def test_dlog_is_homomorphism(self, m, x, y):
        if det_bareiss(m) == 0:
            return
        g = group_from_relations(m, 2)
        lhs = g.dlog_ambient([a + b for a, b in zip(x, y)])
        assert lhs == group_add(g, g.dlog_ambient(x), g.dlog_ambient(y))


def brute_span(group, gens):
    seen = {group_identity(group)}
    frontier = [group_identity(group)]
    while frontier:
        cur = frontier.pop()
        for gvec in gens:
            nxt = group_add(group, cur, gvec)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestSubgroupOps:
    @given(
        st.sampled_from([(2, 4), (3, 9), (2, 2, 8), (5,), (2, 6)]),
        st.lists(st.lists(st.integers(0, 7), min_size=3, max_size=3), min_size=1, max_size=3),
        st.lists(st.integers(0, 7), min_size=3, max_size=3),
    )
    def test_against_brute_enumeration(self, invs, gens_raw, y_raw):
        g = group_from_invariants(invs)
        gens = [g.reduce(v[: g.rank] + [0] * max(0, g.rank - 3)) for v in gens_raw]
        y = g.reduce(y_raw[: g.rank] + [0] * max(0, g.rank - 3))
        span = brute_span(g, gens)
        assert g.subgroup_order(gens) == len(span)
        coeffs = g.express(gens, y)
        if y in span:
            assert coeffs is not None
            acc = group_identity(g)
            for cj, gj in zip(coeffs, gens):
                acc = group_add(g, acc, g.scale(cj, gj))
            assert acc == y
        else:
            assert coeffs is None

    @given(
        st.sampled_from([(2, 4), (3, 9), (2, 2, 8), (12,)]),
        st.integers(1, 12),
        st.lists(st.integers(0, 11), min_size=3, max_size=3),
    )
    def test_contains_power_against_brute(self, invs, k, y_raw):
        g = group_from_invariants(invs)
        y = g.reduce(y_raw[: g.rank] + [0] * max(0, g.rank - 3))
        powers = {g.scale(k, a) for a in group_elements(g)}
        assert g.contains_power(k, y) == (y in powers)


class TestCyclicComplement:
    def test_worked_example(self):
        # Z/2 x Z/8, c = (1, 2): the second gap 3 - 1 beats the first 1 - 0
        i0, basis = cyclic_complement((2, 8), (1, 2), 2)
        assert i0 == 1
        assert basis == [(1, 0)]

    @given(
        st.sampled_from([(2,), (4,), (2, 2), (2, 8), (4, 4), (2, 4, 8), (3, 9), (9, 27)]),
        st.lists(st.integers(0, 30), min_size=3, max_size=3),
    )
    def test_order_preserved_in_quotient(self, invs, c_raw):
        ell = 2 if invs[0] % 2 == 0 else 3
        g = group_from_invariants(invs)
        c = g.reduce(c_raw[: g.rank] + [0] * max(0, g.rank - 3))
        i0, basis = cyclic_complement(invs, c, ell)
        assert len(basis) == g.rank - 1
        d = invs[i0]
        image_order = d // math.gcd(c[i0], d)
        assert image_order == g.element_order(c)
