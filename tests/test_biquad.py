"""Composite-field arithmetic: exact integer arithmetic in Q(sqrt d, sqrt p),
ideal decomposition, the Kubota unit index, norm-descent principality, and
the end-to-end capitulation verdict."""
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bq_contains,
    bq_elt_product,
    bq_ideal_conj,
    bq_ideal_product,
    bq_principal,
    l_residue_factor_by_scan,
    principal_ideal,
    rel_norm_closed_form,
    sqrt_in_biquad_unfiltered,
    sqrt_in_quadratic_by_integers,
    square_test_primes_by_kronecker,
    unit_closure,
)

from raycap.biquad import (
    _residue_signs,
    _sign_unit_classes,
    _square_test_primes,
    BqElt,
    BqIdeal,
    BiquadField,
    adjust_to_congruence,
    as_k3,
    biquad_field,
    class_number,
    decide_capitulation,
    embed,
    extend_ideal,
    extend_modulus,
    intersect_subfield,
    is_principal,
    l_residue_system,
    primes_above,
    ramified_prime,
    relative_norm_ideal,
    sqrt_in_biquad,
    sqrt_in_quadratic,
    unit_group,
    verify_certificate,
)
from raycap.capsearch import CyclicFieldDesc, find_principalizing_prime
from raycap.errors import InputError, InvariantError
from raycap.abgroup import hnf_rows, lattice_index
from raycap.exactmath import factor, is_prime, kronecker, power, primes_up_to, squarefree_part
from raycap.kummerfrob import SearchParams
from raycap.quadfield import (
    Modulus,
    QElt,
    class_group,
    factor_prime,
    fundamental_unit,
    modulus_from_rational,
    prime_above_from_root,
    quadratic_field,
    _generates,
    is_principal_with_generator,
    residue_system,
    unit_gens,
)

L345 = biquad_field(34, 5)

coord = st.integers(min_value=-9, max_value=9)


def belt(L):
    return st.tuples(coord, coord, coord, coord).map(lambda t: BqElt(L, *t))


def embeddings(z):
    """The four real images of z, ordered by the sign pattern of the two
    square roots."""
    L = z.L
    s1 = math.sqrt(L.k1.D)
    s2 = math.sqrt(L.k2.D)
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            w1 = (L.k1.t + e1 * s1) / 2
            w2 = (L.k2.t + e2 * s2) / 2
            out.append(z.a + z.b * w1 + z.c * w2 + z.e * w1 * w2)
    return out


def solve4(rows, rhs):
    """Gaussian elimination with partial pivoting; the embedding matrix is
    well conditioned (determinant sqrt of the field discriminant)."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(4):
        piv = max(range(col, 4), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        for r in range(4):
            if r != col:
                f = m[r][col] / m[col][col]
                for c in range(col, 5):
                    m[r][c] -= f * m[col][c]
    return [m[r][4] / m[r][r] for r in range(4)]


def square_by_embeddings(z):
    """Independent square detector: try all sign choices of the real square
    roots, reconstruct integer coordinates by solving the linear system, and
    confirm exactly."""
    L = z.L
    vals = embeddings(z)
    if any(v < 0 for v in vals):
        return None
    roots = [math.sqrt(v) for v in vals]
    s1 = math.sqrt(L.k1.D)
    s2 = math.sqrt(L.k2.D)
    rows = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            w1 = (L.k1.t + e1 * s1) / 2
            w2 = (L.k2.t + e2 * s2) / 2
            rows.append([1.0, w1, w2, w1 * w2])
    for mask in range(8):
        signs = [1, 1 if mask & 1 else -1, 1 if mask & 2 else -1, 1 if mask & 4 else -1]
        sol = solve4(rows, [s * r for s, r in zip(signs, roots)])
        cand = BqElt(L, *(round(v) for v in sol))
        if cand * cand == z:
            return cand
    return None


class TestFieldConstruction:
    def test_flagship_invariants(self):
        assert L345.d == 34 and L345.p == 5
        assert L345.k3.D == L345.k1.D * 5
        assert L345.k2.t == 1 and L345.k2.u == 1

    @pytest.mark.parametrize(
        "d,p",
        [(34, 7), (34, 9), (10, 5), (-5, 13), (34, 2), (34, 17)],
    )
    def test_rejects_bad_inputs(self, d, p):
        # p must be a prime = 1 mod 4, coprime to 2d, over a real base
        with pytest.raises(InputError):
            biquad_field(d, p)


class TestEltArithmetic:
    @given(belt(L345), belt(L345), belt(L345))
    def test_ring_axioms(self, x, y, z):
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(belt(L345), belt(L345))
    def test_involutions(self, x, y):
        for j in (1, 2, 3):
            assert x.tau(j).tau(j) == x
            assert (x * y).tau(j) == x.tau(j) * y.tau(j)
        assert x.tau(1).tau(2) == x.tau(3)

    @given(st.data())
    def test_relative_norms_match_involution_products(self, data):
        """In each field of ORACLE_FIELDS, with t1 = 0 and t1 = 1: N_{L/k_j}(x)
        lies in k_j, embeds as x * tau_j(x) and, for j = 1, 2, equals the
        closed form (`tests/oracles.py`)."""
        for dp in ORACLE_FIELDS:
            L = biquad_field(*dp)
            x = data.draw(belt(L))
            for j in (1, 2, 3):
                nj = x.rel_norm(j)
                assert nj.field == (L.k1, L.k2, L.k3)[j - 1]
                assert embed(L, nj) == x * x.tau(j)
                if j < 3:
                    assert nj == rel_norm_closed_form(x, j)

    @given(belt(L345), belt(L345))
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() == x.rel_norm(2).norm() == x.rel_norm(3).norm()

    def test_generator_minimal_polynomials(self):
        for j, k in ((1, L345.k1), (2, L345.k2), (3, L345.k3)):
            w = embed(L345, QElt(k, 0, 1))
            assert w * w - w * k.t - BqElt(L345, k.u, 0, 0, 0) == BqElt(L345, 0, 0, 0, 0)

    def test_pow_and_divide(self):
        z = BqElt(L345, 2, -1, 3, 1)
        assert z**3 == z * z * z
        assert z**0 == L345.one()
        assert (z * 6).divide_int(6) == z
        assert BqElt(L345, 7, 1, 0, 0).divide_int(2) is None

    @given(belt(L345))
    def test_subfield_round_trips(self, x):
        assert embed(L345, QElt(L345.k1, x.a, x.b)).coords() == (x.a, x.b, 0, 0)
        assert embed(L345, QElt(L345.k2, x.a, x.b)).coords() == (x.a, 0, x.b, 0)
        z = QElt(L345.k3, x.a, x.b)
        assert as_k3(embed(L345, z)) == z

    def test_embed_is_a_ring_hom(self):
        k3 = L345.k3
        z, w = QElt(k3, 3, -2), QElt(k3, -1, 4)
        assert embed(L345, z * w) == embed(L345, z) * embed(L345, w)
        assert embed(L345, z + w) == embed(L345, z) + embed(L345, w)


class TestIdeals:
    @given(belt(L345), belt(L345))
    @settings(max_examples=30)
    def test_norm_multiplicative(self, x, y):
        if x.norm() == 0 or y.norm() == 0:
            return
        I, J = bq_principal(x), bq_principal(y)
        assert (I * J).norm() == I.norm() * J.norm()
        assert I * J == bq_principal(x * y)

    @given(belt(L345))
    @settings(max_examples=30)
    def test_principal_norm_and_membership(self, z):
        if z.norm() == 0:
            return
        I = bq_principal(z)
        assert I.norm() == abs(z.norm())
        assert I.contains(z) and I.contains(z * BqElt(L345, 1, 1, 1, 1))
        if abs(z.norm()) > 1:
            assert not I.contains(L345.one())

    @given(belt(L345))
    @settings(max_examples=30)
    def test_conj_commutes_with_principal(self, z):
        if z.norm() == 0:
            return
        for j in (1, 2, 3):
            assert bq_principal(z).conj(j) == bq_principal(z.tau(j))

    def test_pow_and_rank_errors(self):
        z = BqElt(L345, 1, 1, 0, 1)
        I = bq_principal(z)
        assert I**3 == I * I * I
        assert I**0 == BqIdeal.unit_ideal(L345)
        with pytest.raises(ValueError):
            BqIdeal.from_generators(L345, [BqElt(L345, 0, 0, 0, 0)])

    def test_prime_powers_build_the_unit_ideal_only_at_zero(self, monkeypatch):
        """P ** 0 is the unit ideal for each prime of L over 5; a positive
        power is a product of P alone and builds no unit ideal."""
        primes = [Q for Q, _, _ in primes_above(L345, 5)]
        unit = BqIdeal.unit_ideal(L345)
        squares = [Q * Q for Q in primes]
        assert [Q**0 for Q in primes] == [unit] * len(primes)
        monkeypatch.setattr(BqIdeal, "unit_ideal", None)
        assert [Q**2 for Q in primes] == squares
        assert [Q**1 for Q in primes] == primes

    def test_nonpositive_integers_rejected(self):
        I = bq_principal(BqElt(L345, 1, 1, 0, 1))
        for n in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                BqIdeal.from_int(L345, n)
            with pytest.raises(ValueError, match="positive"):
                I.scale(n)


# t1 = 0 and t1 = 1 for k1, and every splitting pattern among p0 < 60
ORACLE_FIELDS = [(2, 5), (3, 13), (34, 5), (5, 29), (21, 17), (6, 53)]
# and 2 totally split, and ramified with a split residue degree
GENERATOR_FIELDS = ORACLE_FIELDS + [(17, 89), (2, 17)]


class TestIdealOracle:
    """`BqIdeal` arithmetic against the HNF of all basis products, with
    elements multiplied through k1 (`tests/oracles.py`)."""

    @given(st.sampled_from(ORACLE_FIELDS), st.data())
    @settings(max_examples=40)
    def test_element_product(self, dp, data):
        L = biquad_field(*dp)
        x, y = data.draw(belt(L)), data.draw(belt(L))
        assert x * y == bq_elt_product(x, y)

    @pytest.mark.parametrize("d,p", ORACLE_FIELDS)
    def test_primes_below_60(self, d, p):
        L = biquad_field(d, p)
        primes = [Q for p0 in primes_up_to(59) for Q, _, _ in primes_above(L, p0)]
        for x, Q in enumerate(primes):
            assert Q**2 == bq_ideal_product(Q, Q)
            for j in (1, 2, 3):
                assert Q.conj(j) == bq_ideal_conj(Q, j)
            for R in primes[x + 1:]:
                assert Q * R == bq_ideal_product(Q, R)
            n = Q.norm()
            near = primes[max(x - 1, 0):x + 2]
            zs = [z for R in near for z in (R * R).elements() + R.elements()]
            zs += [L.elt(n, 0, 0, 0), L.elt(1, n, 0, 0), L.elt(0, 0, n, 1)]
            zs += [z + L.one() for z in Q.elements()]
            for z in zs:
                assert Q.contains(z) == bq_contains(Q, z), (Q.rows, z)

    @pytest.mark.parametrize("d,p", GENERATOR_FIELDS)
    def test_products_over_generators(self, d, p):
        """Ideals that keep O_L-generators multiply through them (8 or 12
        rows, not 16); squares, products with conjugates, cross products,
        scaled and integer ideals all equal the HNF of the 16 basis products."""
        L = biquad_field(d, p)
        primes = [Q for p0 in (2, 3, 5, 7, 11, 13, p) for Q, _, _ in primes_above(L, p0)]
        assert all(Q.gens for Q in primes)
        for x, Q in enumerate(primes):
            sq = Q * Q
            assert sq == bq_ideal_product(Q, Q)
            for j in (1, 2, 3):
                Qj = Q.conj(j)
                assert Q * Qj == bq_ideal_product(Q, bq_ideal_conj(Q, j))
            assert Q.scale(3) * Q == bq_ideal_product(Q.scale(3), Q)
            assert BqIdeal.from_int(L, 6) * Q == Q.scale(6)
            for R in primes[x + 1:x + 4]:
                assert Q * R == bq_ideal_product(Q, R)
                assert sq * R == bq_ideal_product(sq, R)
                assert (sq * R) * R == bq_ideal_product(bq_ideal_product(sq, R), R)

    def test_generator_fields_cover_every_splitting_shape(self):
        """The fields and rational primes above take every (e, f) shape of a
        prime of L, with p0 = 2 in each of them."""
        shapes, over_two = set(), set()
        for d, p in GENERATOR_FIELDS:
            L = biquad_field(d, p)
            for p0 in (2, 3, 5, 7, 11, 13, p):
                got = tuple(sorted((e, f) for _, e, f in primes_above(L, p0)))
                shapes.add(got)
                if p0 == 2:
                    over_two.add(got)
        want = {((1, 1),) * 4, ((1, 2),) * 2, ((2, 1),) * 2, ((2, 2),)}
        assert shapes == over_two == want


def _generates_by_hnf(I, z):
    return not z.is_zero() and bq_principal(z) == I


class TestGenerationByNorm:
    """z generates I exactly when z lies in I and |N(z)| = N(I): the test
    the verifier runs agrees with equality of HNFs."""

    @given(st.sampled_from([(34, 5), (2, 5), (21, 17)]), st.data())
    @settings(max_examples=30)
    def test_agrees_with_hnf_equality(self, dp, data):
        L = biquad_field(*dp)
        z = data.draw(belt(L))
        if z.norm() == 0:
            return
        I = bq_principal(z)
        units = [-L.one()] + list(unit_group(L).units)
        cases = [(z, True)]
        cases += [(z * u, True) for u in units]  # unit multiples
        cases += [(z * 2, False), (z * z, abs(z.norm()) == 1)]  # inside I, wrong norm
        cases += [(z + L.one(), None), (L.elt(1, 1, 0, 0), None)]  # mostly outside I
        for x, want in cases:
            got = _generates(I, x)
            assert got == _generates_by_hnf(I, x)
            if want is not None:
                assert got == want

    @pytest.mark.parametrize("d,p", ORACLE_FIELDS)
    def test_primes_and_their_elements(self, d, p):
        L = biquad_field(d, p)
        for p0 in (2, 3, 5, 7, p):
            for Q, _, _ in primes_above(L, p0):
                zs = list(Q.elements()) + [BqElt(L, *g) for g in Q.gens]
                zs += [z + L.one() for z in zs] + [z * 2 for z in zs]
                g = is_principal(Q)
                if g is not None:
                    zs += [g, g * unit_group(L).units[0], g * 2, -g]
                for z in zs:
                    if not z.is_zero():
                        assert _generates(Q, z) == _generates_by_hnf(Q, z), (Q.rows, z)


class TestPrimeDecomposition:
    @pytest.mark.parametrize("d,p", [(34, 5), (6, 13), (2, 5), (82, 241)])
    def test_patterns_follow_characters(self, d, p):
        L = biquad_field(d, p)
        for p0 in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, p):
            chis = [kronecker(k.D, p0) for k in (L.k1, L.k2, L.k3)]
            got = sorted((e, f) for _, e, f in primes_above(L, p0))
            if 0 not in chis:
                n_split = chis.count(1)
                want = [(1, 1)] * 4 if n_split == 3 else [(1, 2)] * 2
            else:
                # the non-ramified character decides the residue degree
                c = [c for c in chis if c != 0][0]
                want = [(2, 1)] * 2 if c == 1 else [(2, 2)]
            assert got == want, (d, p, p0, chis)

    def test_primes_are_distinct_and_contain_p0(self):
        for p0 in (5, 11, 29):
            pr = primes_above(L345, p0)
            keys = {Q.rows for Q, _, _ in pr}
            assert len(keys) == len(pr)
            for Q, _, _ in pr:
                assert Q.contains(BqElt(L345, p0, 0, 0, 0))
                assert not Q.contains(L345.one())

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            primes_above(L345, 15)

    @pytest.mark.parametrize("p0", [3, 11, 5])
    def test_wrong_roots_raise_under_any_optimisation(self, monkeypatch, p0):
        """The decomposition's checks are raised, not asserted, so `python -O`
        keeps them: residues that are not roots give ideals of the wrong
        norm (3 has one split subfield in L = Q(sqrt 34, sqrt 5), 11 three,
        and 5 ramifies with k1 split), and the decomposition stops."""
        import raycap.biquad as bq

        real = bq.roots_mod_p
        monkeypatch.setattr(bq, "roots_mod_p", lambda f, p: [(r + 1) % p for r in real(f, p)])
        with pytest.raises(InvariantError, match="norm") as err:
            primes_above(L345, p0)
        assert err.value.exit_code == 8


class TestExtensions:
    def test_extend_principal_matches_embedding(self):
        z = QElt(L345.k1, 7, 2)
        I = principal_ideal(z)
        assert extend_ideal(L345, I) == bq_principal(embed(L345, z))

    def test_extend_then_intersect_is_identity(self):
        from raycap.quadfield import factor_prime

        for k, j in ((L345.k1, 1), (L345.k2, 2), (L345.k3, 3)):
            for p0 in (3, 7, 11, 13):
                kind, facs = factor_prime(k, p0)
                for P, _, _ in facs:
                    assert intersect_subfield(extend_ideal(L345, P), j) == P

    # 2 ramifies in L for d = 34, 3 and 2543; p = 853 is the verified step of
    # 2543 mod 7, whose k3 has discriminant 4 * 2543 * 853
    @pytest.mark.parametrize("d,p", [(34, 5), (3, 13), (5, 29), (21, 17), (2543, 853)])
    def test_recorded_relative_norms_match_the_hnf_route(self, d, p):
        """The norms `extend_ideal` records in closed form, I^2 in the field
        of I and N(I) O_{k_i} in the other two, equal (E * tau_j E) meet k_j
        for every prime below 60 of k1, k2 and k3."""
        L = biquad_field(d, p)
        count = 0
        for k in (L.k1, L.k2, L.k3):
            for p0 in primes_up_to(59):
                for P, _, _ in factor_prime(k, p0)[1]:
                    E = extend_ideal(L, P)
                    hnf = tuple(intersect_subfield(E * E.conj(j), j) for j in (1, 2, 3))
                    assert E.rel_norms == hnf
                    assert tuple(relative_norm_ideal(E, j) for j in (1, 2, 3)) == hnf
                    count += 1
        assert count > 60

    def test_ideal_without_recorded_norms_takes_the_hnf_route(self):
        P = factor_prime(L345.k1, 3)[1][0][0]
        E = extend_ideal(L345, P)
        bare = BqIdeal(L345, E.rows, E.gens)
        assert bare == E and bare.rel_norms is None
        assert [relative_norm_ideal(bare, j) for j in (1, 2, 3)] == list(E.rel_norms)

    def test_relative_norm_of_principal(self):
        z = BqElt(L345, 3, 1, -2, 1)
        I = bq_principal(z)
        for j in (1, 2, 3):
            k = (L345.k1, L345.k2, L345.k3)[j - 1]
            assert relative_norm_ideal(I, j) == principal_ideal(z.rel_norm(j))

    def test_extend_modulus_covers_generators(self):
        K = quadratic_field(6)
        L = biquad_field(6, 53)
        m = modulus_from_rational(K, 13)
        ext = extend_modulus(L, m)
        assert len(ext) >= len(m.primes)
        for q in m.primes:
            gens = [embed(L, g) for g in q.gen_pair()]
            assert any(all(Q.contains(g) for g in gens) for Q in ext)


qcoord = st.integers(min_value=-25, max_value=25)


class TestSquareRoots:
    @given(qcoord, qcoord)
    def test_quadratic_round_trip(self, x, y):
        for d in (34, 5, -5):
            K = quadratic_field(d)
            z = QElt(K, x, y)
            r = sqrt_in_quadratic(z * z)
            assert r is not None and r * r == z * z

    @given(qcoord, qcoord)
    def test_quadratic_root_is_the_integer_routes(self, x, y):
        """The very root of the integer route (`tests/oracles.py`), not just
        some root, for squares, zero and non-squares, in real and imaginary
        fields with t = 0 and t = 1."""
        for d in (34, 5, -5, -1, -3, 2, 13):
            K = quadratic_field(d)
            z = QElt(K, x, y)
            for w in (z * z, -(z * z), z, z + QElt(K, 1, 0), QElt(K, 0, 0)):
                assert sqrt_in_quadratic(w) == sqrt_in_quadratic_by_integers(w), (d, w)

    @given(qcoord, qcoord)
    def test_quadratic_rejections_are_sound(self, x, y):
        # anything the routine rejects must fail the sign test or squaring
        K = quadratic_field(34)
        w = QElt(K, x, y)
        r = sqrt_in_quadratic(w)
        if r is not None:
            assert r * r == w

    @given(st.sampled_from(ORACLE_FIELDS), st.data())
    def test_biquad_round_trip(self, dp, data):
        # the residue test at split primes never rejects a square
        z = data.draw(belt(biquad_field(*dp)))
        assert sqrt_in_biquad(z * z) in (z, -z)

    @given(belt(L345))
    @settings(max_examples=40)
    def test_biquad_agrees_with_embedding_oracle(self, w):
        exact = sqrt_in_biquad(w)
        oracle = square_by_embeddings(w)
        assert (exact is None) == (oracle is None)
        if exact is not None:
            assert exact * exact == w

    def test_zero_and_one(self):
        assert sqrt_in_biquad(BqElt(L345, 0, 0, 0, 0)) == BqElt(L345, 0, 0, 0, 0)
        r = sqrt_in_biquad(L345.one())
        assert r is not None and r * r == L345.one()


# real fields with t1 = 0 and 1, unit index q = 1 and 2, class numbers 1 and 2
SQUARE_CORPUS = [(2, 5), (3, 5), (2, 13), (3, 13), (34, 5), (5, 29), (21, 17), (6, 53)]


class TestSquareTestPrefilter:
    """The residue test in front of `sqrt_in_biquad` changes no answer: the
    unit groups and generators match the ones built on the square root
    without it (`tests/oracles.py`), and it rejects most non-squares."""

    @pytest.mark.parametrize("d,p", SQUARE_CORPUS)
    def test_units_and_generators_match_the_unfiltered_root(self, monkeypatch, d, p):
        import raycap.biquad as bq

        L = biquad_field(d, p)
        ideals = [Q for p0 in (2, 3, 7, 11, p) for Q, _, _ in primes_above(L, p0)]
        ideals += [Q * R for Q, R in zip(ideals, ideals[1:])]
        ideals += [extend_ideal(L, P) for p0 in (3, 7, 11) for P, _, _ in factor_prime(L.k1, p0)[1]]
        with monkeypatch.context() as m:
            # signs that prove nothing: every unit class is tried, by the
            # square root alone
            m.setattr(bq, "_residue_signs", lambda w: (0, 0))
            m.setattr(bq, "sqrt_in_biquad", sqrt_in_biquad_unfiltered)
            ref_units = bq.unit_group.__wrapped__(L)
            m.setattr(bq, "unit_group", lambda L: ref_units)
            ref = [is_principal(I) for I in ideals]
        assert unit_group(L) == ref_units
        assert [is_principal(I) for I in ideals] == ref
        assert any(g is not None for g in ref)

    @pytest.mark.parametrize("d,p", SQUARE_CORPUS)
    def test_unit_classes_filtered_by_residues(self, d, p):
        """`_sign_unit_classes` yields, in order, exactly the classes eta for
        which base * eta is not a non-residue at a square-test prime, for
        the subfield units and for a fundamental system, with no base, with
        random bases and with bases that are 0 at one or all test primes."""
        L = biquad_field(d, p)
        rng = random.Random(d * p)
        q0 = _square_test_primes(L)[0][0]
        subfield = tuple(embed(L, fundamental_unit(k)) for k in (L.k1, L.k2, L.k3))
        bases = [None, BqElt(L, 0, 0, 0, 0), BqElt(L, q0, 0, 0, 0)]
        bases += [BqElt(L, *[rng.randint(-99, 99) for _ in range(4)]) for _ in range(12)]
        bases += [BqElt(L, *[q0 * rng.randint(-99, 99) for _ in range(4)]) for _ in range(4)]
        kept = 0
        for units in (subfield, unit_group(L).units):
            for base in bases:
                every = []
                for s, m1, m2, m3 in itertools.product((0, 1), repeat=4):
                    eta = -L.one() if s else L.one()
                    for m, u in zip((m1, m2, m3), units):
                        eta = eta * u if m else eta
                    every.append(([m1, m2, m3], eta))
                want = [(ms, eta) for ms, eta in every
                        if not _residue_signs(eta if base is None else base * eta)[1]]
                got = list(_sign_unit_classes(L, units, base))
                assert got == want
                kept += len(got)
        assert kept < 16 * 2 * len(bases)

    def test_non_squares_are_rejected_by_residues(self):
        rng = random.Random(20)
        L = biquad_field(21, 17)
        rejected = trials = 0
        for _ in range(300):
            w = BqElt(L, *[rng.randint(-10**6, 10**6) for _ in range(4)])
            if sqrt_in_biquad_unfiltered(w) is not None:
                continue
            trials += 1
            rejected += _residue_signs(w)[1] != 0
            assert sqrt_in_biquad(w) is None
        assert trials > 250 and rejected >= 0.95 * trials

    def test_primes_match_the_kronecker_rule(self, certify_certificates):
        """For the 317 fields L = K(sqrt p) of the certificates of the
        `certify` population, the square-test primes that Euler's criterion picks are
        the tuple of the Kronecker rule (`tests/oracles.py`), with all
        _SQUARE_TEST_PRIMES of them found below 1024."""
        import raycap.biquad as bq

        fields = sorted({(c.d, c.p) for c in certify_certificates})
        assert len(fields) == 317
        for d, p in fields:
            L = biquad_field(d, p)
            got = _square_test_primes(L)
            assert got == square_test_primes_by_kronecker(L, bq._SQUARE_TEST_PRIMES), (d, p)
            assert len(got) == bq._SQUARE_TEST_PRIMES


class TestUnits:
    # index q and resulting class numbers through the V4 relation
    # h(L) = q * h1 * h2 * h3 / 4 for totally real biquadratic fields
    @pytest.mark.parametrize(
        "d,p,q,h",
        [(2, 5, 2, 1), (3, 5, 2, 1), (2, 13, 2, 1), (3, 13, 2, 1), (34, 5, 1, 2)],
    )
    def test_kubota_index_and_class_number(self, d, p, q, h):
        L = biquad_field(d, p)
        assert unit_group(L).index_q == q
        assert class_number(L) == h

    def test_units_are_units_and_terminal(self):
        ug = unit_group(L345)
        for u in ug.units:
            assert abs(u.norm()) == 1
        # terminal state: no +-product of a nonempty subset is a square,
        # confirmed through the independent embedding oracle
        from itertools import product as iproduct

        for s, m1, m2, m3 in iproduct((0, 1), repeat=4):
            if not (m1 or m2 or m3):
                continue
            eta = L345.one() if s == 0 else -L345.one()
            for m, u in zip((m1, m2, m3), ug.units):
                if m:
                    eta = eta * u
            assert square_by_embeddings(eta) is None

    def test_index_doubling_recovers_known_unit(self):
        # in Q(sqrt 2, sqrt 5) the product of all three fundamental units
        # is a square, so q = 2 and some basis element is a proper root
        L = biquad_field(2, 5)
        assert unit_group(L).index_q == 2
        assert tuple(class_group(k).h for k in (L.k1, L.k2, L.k3)) == (1, 1, 2)
        assert class_number(L) == 2 * 1 * 1 * 2 // 4


class TestPrincipality:
    @given(belt(L345))
    @settings(max_examples=25)
    def test_round_trip(self, z):
        if z.norm() == 0:
            return
        I = bq_principal(z)
        g = is_principal(I)
        assert g is not None
        assert bq_principal(g) == I

    def test_unit_ideal(self):
        assert is_principal(BqIdeal.unit_ideal(L345)) == L345.one()

    def test_nonprincipal_is_refused(self):
        # h(L) = 2 for Q(sqrt 34, sqrt 5): some degree-one prime over a
        # split rational prime represents the nontrivial class
        found = None
        for p0 in (11, 29, 41, 59):
            for Q, e, f in primes_above(L345, p0):
                if f == 1 and is_principal(Q) is None:
                    found = Q
                    break
            if found:
                break
        assert found is not None
        # and its square is principal (the class group is Z/2)
        sq = is_principal(found * found)
        assert sq is not None

    def test_ramified_prime_over_2_is_principal(self):
        Q = primes_above(L345, 2)[0][0]
        g = is_principal(Q)
        assert g is not None and bq_principal(g) == Q


def _k_factors(d, p0):
    K = quadratic_field(d)
    return [
        (q, residue_system(K, Modulus(K, (q,))).factors[0], lambda c, K=K: K.elt(*c), 2)
        for q, _, _ in factor_prime(K, p0)[1]
    ]


def _l_factors(d, p, p0):
    L = biquad_field(d, p)
    return [
        (Q, l_residue_system((Q,)).factors[0], lambda c, L=L: BqElt(L, *c), 4)
        for Q, _, _ in primes_above(L, p0)
    ]


# (label, residue degree f, factors) for every way a factor is built: K primes
# that split, stay inert (w = sqrt(d) and w = (1+sqrt(d))/2) or ramify; L
# primes of degree one and of degree two presented through w1 or through w2,
# or with both w1 and w2 inert; ramified L primes where w1 (p0 | d) or w2
# (p0 = p) maps to the double root of its minimal polynomial, of degree one
# and two; and p = 2 factors of order 1 on each side.
RESIDUE_CASES = [
    ("K split", 1, lambda: _k_factors(2, 7)),
    ("K inert, w = sqrt(2)", 2, lambda: _k_factors(2, 3)),
    ("K inert, w = (1+sqrt(13))/2", 2, lambda: _k_factors(13, 5)),
    ("K ramified", 1, lambda: _k_factors(-5, 5)),
    ("K order 1 over 2", 1, lambda: _k_factors(17, 2)),
    ("L degree one", 1, lambda: _l_factors(34, 5, 29)),
    ("L w1 inert", 2, lambda: _l_factors(3, 109, 5)),
    ("L w2 inert", 2, lambda: _l_factors(11, 181, 7)),
    ("L w1 and w2 inert", 2, lambda: _l_factors(6, 2837, 11)),
    ("L order 1 over 2", 1, lambda: _l_factors(17, 89, 2)),
    ("L ramified in k1, degree one", 1, lambda: _l_factors(3, 13, 3)),
    ("L ramified in k1, degree two", 2, lambda: _l_factors(3, 5, 3)),
    ("L ramified in k2, degree one", 1, lambda: _l_factors(2, 17, 17)),
    ("L ramified in k2, degree two", 2, lambda: _l_factors(2, 5, 5)),
]


def _residue_factors():
    for label, f, build in RESIDUE_CASES:
        facs = build()
        assert facs and all(fac.f == f for _, fac, _, _ in facs), label
        for Q, fac, make, n in facs:
            assert Q.norm() == fac.p**f and fac.order == fac.p**f - 1, label
            yield label, Q, fac, make, n


class TestResidues:
    def test_factors_are_ring_homs_with_kernel(self):
        # the residue map respects + and *, sends 1 to 1, and vanishes
        # exactly on the prime, for K and L factors alike
        rng = random.Random(5)
        for label, Q, fac, make, n in _residue_factors():
            p0 = fac.p
            if fac.f == 1:
                add, zero = (lambda a, b: (a + b) % p0), 0
            else:
                add = lambda a, b: tuple((x + y) % p0 for x, y in zip(a, b))
                zero = (0, 0)
            assert fac.residue(make((1,) + (0,) * (n - 1))) == fac.one, label
            for _ in range(40):
                x = make([rng.randint(-30, 30) for _ in range(n)])
                y = make([rng.randint(-30, 30) for _ in range(n)])
                rx, ry = fac.residue(x), fac.residue(y)
                assert fac.residue(x * y) == fac.mul(rx, ry), label
                assert fac.residue(x + y) == add(rx, ry), label
                assert (rx == zero) == Q.contains(x), label
                assert (rx == zero) == (not fac.is_unit_residue(x)), label

    def test_dlog_inverts_generator_power(self):
        rng = random.Random(8)
        for label, Q, fac, make, n in _residue_factors():
            # gen has exact order `order`, so dlog(gen^k) == k is the same
            # as dlog landing in [0, order) with gen^dlog(z) = residue(z)
            assert fac.lift_power(fac.order) == fac.one, label
            assert all(
                fac.lift_power(fac.order // r) != fac.one for r in factor(fac.order)
            ), label
            for _ in range(25):
                x = make([rng.randint(-30, 30) for _ in range(n)])
                y = make([rng.randint(-30, 30) for _ in range(n)])
                if not (fac.is_unit_residue(x) and fac.is_unit_residue(y)):
                    with pytest.raises(ValueError):
                        fac.dlog(x * y)
                    continue
                k = fac.dlog(x)
                assert 0 <= k < fac.order, label
                assert fac.lift_power(k) == fac.residue(x), label
                assert fac.dlog(x * y) == (k + fac.dlog(y)) % fac.order, label

    def test_residue_maps_match_root_scan(self):
        """Each prime of L keeps the map `primes_above` built it from; the
        factor made from it equals the one found by deciding the splitting
        again and scanning roots for membership, over every splitting shape:
        real squarefree d < 40, p = 1 mod 4 below 110 and prime to d, and
        every prime of L over p0 <= 60, over p and over the primes of d."""
        ps = [p for p in primes_up_to(109) if p % 4 == 1]
        shapes = set()
        for d in (d for d in range(2, 40) if squarefree_part(d) == d):
            for p in (p for p in ps if d % p):
                L = biquad_field(d, p)
                for p0 in sorted({*primes_up_to(60), p, *factor(d)}):
                    above = primes_above(L, p0)
                    shapes.add(tuple(sorted((e, f) for _, e, f in above)))
                    for Q, _, _ in above:
                        got = l_residue_system((Q,)).factors[0]
                        want = l_residue_factor_by_scan(Q)
                        assert (got.p, got.f, got.images, got.gen, got.order) == (
                            want.p, want.f, want.images, want.gen, want.order
                        ), (d, p, p0, Q.rows)
        assert shapes == {((1, 1),) * 4, ((1, 2),) * 2, ((2, 1),) * 2, ((2, 2),)}

    def test_ideal_without_residue_map_is_refused(self):
        """Only `primes_above` gives a prime its residue map: the same ideal
        rebuilt from its generators is equal, hashes alike and carries none,
        and a residue system over it or over a product is refused with a
        raised check that `python -O` keeps."""
        L = biquad_field(3, 13)
        Q = primes_above(L, 13)[0][0]
        rebuilt = BqIdeal.from_generators(L, [BqElt(L, *g) for g in Q.gens])
        assert Q.residue_map is not None and rebuilt.residue_map is None
        assert rebuilt == Q and hash(rebuilt) == hash(Q)
        for bad in (rebuilt, Q * Q):
            with pytest.raises(InvariantError, match="residue map") as err:
                l_residue_system((Q, bad))
            assert err.value.exit_code == 8

    def test_vector_is_a_homomorphism_onto_group(self):
        # factor orders 4, 4, 6, 6 (5 and 7 split) are not in Smith form:
        # dlog's exponents are read mod each factor's order, in no
        # invariant-factor basis
        rng = random.Random(11)
        K, Ki, L = quadratic_field(29), quadratic_field(-6), biquad_field(11, 29)
        cases = [
            (residue_system(K, modulus_from_rational(K, 35)), K.elt, 2),
            (residue_system(Ki, modulus_from_rational(Ki, 35)), Ki.elt, 2),
            (l_residue_system(extend_modulus(L, modulus_from_rational(L.k1, 35))),
             lambda *c: BqElt(L, *c), 4),
        ]
        for res, make, n in cases:
            assert any(b % a for a, b in zip(res.orders, res.orders[1:]))
            assert math.prod(res.orders) == res.order()
            k = len(res.orders)
            relations = [[o * (i == j) for j in range(k)] for i, o in enumerate(res.orders)]
            images = []
            while len(images) < 30:
                x = make(*[rng.randint(-40, 40) for _ in range(n)])
                y = make(*[rng.randint(-40, 40) for _ in range(n)])
                if not (res.is_unit(x) and res.is_unit(y)):
                    continue
                vx, vy = res.dlog(x), res.dlog(y)
                assert len(vx) == k and all(0 <= c < o for c, o in zip(vx, res.orders))
                assert res.dlog(x * y) == tuple(
                    (a + b) % o for a, b, o in zip(vx, vy, res.orders))
                images.append(vx)
            if res.field is not None:  # the factor generators lift into K
                images = [res.dlog(res.crt_lift([int(i == j) for j in range(k)]))
                          for i in range(k)]
                assert images == [tuple(int(i == j) for j in range(k)) for i in range(k)]
            # onto: the images span Z^k modulo the factor orders
            assert lattice_index([*images, *relations]) == 1

    @pytest.mark.parametrize("which", ["K", "L"])
    def test_kernel_and_image_order_match_a_breadth_first_search(self, which):
        """`kernel` and `image_order` against `unit_closure`, which lists
        the products of the elements by their residues: the image's length
        is `image_order` of their logs, and the HNF of its relations is
        `kernel`, whose rows each multiply out to 1 at every factor. Small
        residue systems of real and imaginary K, and of L, over split,
        inert and ramified primes, with units and random units mod m."""
        rng = random.Random(50)
        systems = []
        if which == "K":
            for d, m in [(29, 35), (-6, 35), (2, 7), (-1, 3), (5, 5), (13, 1), (-3, 21)]:
                K = quadratic_field(d)
                systems.append((residue_system(K, modulus_from_rational(K, m)),
                                unit_gens(K), lambda *c, K=K: K.elt(*c), 2))
        else:
            for d, p, m in [(11, 29, 35), (2, 5, 3), (6, 5, 7), (10, 29, 11)]:
                L = biquad_field(d, p)
                systems.append((l_residue_system(extend_modulus(L, modulus_from_rational(L.k1, m))),
                                [-L.one(), *unit_group(L).units],
                                lambda *c, L=L: BqElt(L, *c), 4))
        for res, units, make, n in systems:
            for _ in range(4):
                elements = list(units)
                while len(elements) < len(units) + rng.randint(0, 2):
                    z = make(*[rng.randint(-30, 30) for _ in range(n)])
                    if res.is_unit(z):
                        elements.append(z)
                image, relations = unit_closure(res, elements)
                assert res.image_order([res.dlog(z) for z in elements]) == len(image)
                kernel = res.kernel(elements)
                assert kernel == hnf_rows(relations)
                for row in kernel:
                    product = [f.one for f in res.factors]
                    for z, c in zip(elements, row):
                        for i, f in enumerate(res.factors):
                            product[i] = f.mul(product[i], power(
                                f.residue(z), c % f.order, f.one, f.mul))
                    assert product == [f.one for f in res.factors]

    def test_order_one_factor_adjusts_without_hanging(self):
        # every prime of L over 2 has residue field F_2 here, so each factor
        # has order 1 and the discrete log must not need a giant step
        K = quadratic_field(17)
        L = biquad_field(17, 89)
        m_L = extend_modulus(L, modulus_from_rational(K, 2))
        assert len(m_L) == 4
        assert adjust_to_congruence(L.one(), m_L) == L.one()

    def test_adjust_recovers_planted_congruence(self):
        L = biquad_field(6, 53)
        prs = tuple(Q for Q, _, _ in primes_above(L, 13))
        inter = prs[0]
        for Q in prs[1:]:
            inter = inter * Q
        units = unit_group(L).units
        rng = random.Random(3)
        recovered = 0
        for _ in range(12):
            v = BqElt(L, 0, 0, 0, 0)
            for c, row in zip([rng.randint(-2, 2) for _ in range(4)], inter.rows):
                v = v + BqElt(L, *row) * c
            alpha = L.one() + v
            if not l_residue_system(prs).is_unit(alpha):
                continue
            g = alpha
            for u in units:
                g = g * u ** rng.randint(0, 2)
            out = adjust_to_congruence(g, prs)
            assert out is not None
            assert all(Q.contains(out - L.one()) for Q in prs)
            assert bq_principal(out) == bq_principal(g)
            recovered += 1
        assert recovered >= 8

    def test_trivial_modulus_is_a_pass_through(self):
        z = BqElt(L345, 3, 1, 0, 0)
        assert adjust_to_congruence(z, ()) == z


def _certificate(d, q0, target, n=1, bound=10**6):
    K = quadratic_field(d)
    m = Modulus(K, ()) if q0 is None else modulus_from_rational(K, q0)
    res = find_principalizing_prime(K, m, target, SearchParams(2, n, bound=bound))
    assert res.status == "found", res.status
    return res.certificate


class TestVerifyCertificate:
    def test_flagship_capitulates(self):
        cert = _certificate(34, None, (1,))
        assert cert.p == 5
        rep = verify_certificate(cert)
        assert rep.status == "capitulates"
        assert rep.checks == {
            "conditions": True,
            "ramified_square": True,
            "generates": True,
            "congruent_to_one": True,
        }
        # the generator really does generate p_K * O_L, re-checked here
        L = biquad_field(34, 5)
        K = quadratic_field(34)
        p_K = prime_above_from_root(K, 5, cert.root)
        assert is_principal_with_generator(p_K) is None
        alpha = BqElt(L, *rep.generator)
        assert bq_principal(alpha) == extend_ideal(L, p_K)

    @pytest.mark.parametrize("d", [15, 39, 51, 95])
    def test_scan_fields_capitulate(self, d):
        cert = _certificate(d, None, (1,))
        rep = verify_certificate(cert)
        assert rep.status == "capitulates"
        L = biquad_field(d, cert.p)
        K = quadratic_field(d)
        alpha = BqElt(L, *rep.generator)
        p_K = prime_above_from_root(K, cert.p, cert.root)
        assert bq_principal(alpha) == extend_ideal(L, p_K)

    @pytest.mark.parametrize("d,q0,target", [(3, 5, (2,)), (11, 3, (2,)), (6, 13, (6,))])
    def test_ray_class_cases_with_modulus(self, d, q0, target):
        cert = _certificate(d, q0, target, bound=30000)
        rep = verify_certificate(cert)
        assert rep.status == "capitulates"
        # independent congruence re-check
        L = biquad_field(d, cert.p)
        K = quadratic_field(d)
        alpha = BqElt(L, *rep.generator)
        for Q in extend_modulus(L, modulus_from_rational(K, q0)):
            assert Q.contains(alpha - L.one())

    def test_congruence_failure_is_reported_honestly(self):
        # conditions (i)-(iv) hold but the quadratic step is below the
        # ambiguity bound for this field and modulus: every qualifying prime
        # yields a generator that misses the ray congruence, and the driver
        # must escalate
        cert = _certificate(6, 11, (10,), bound=5000)
        assert cert.p == 2837
        rep = verify_certificate(cert)
        assert rep.status == "failed_congruence"
        assert rep.generator is None

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: verify_certificate reports 'failed' (extended "
        "ideal is not principal at this step) for the certificate search finds",
    )
    def test_d1011_order_two_certificate_capitulates(self):
        # Cl(Q(sqrt 1011)) = Z/4; (2,) is the order-2 class that
        # `--class auto-2` picks
        cert = _certificate(1011, None, (2,))
        assert cert.p == 37
        rep = verify_certificate(cert)
        assert rep.status == "capitulates", rep.detail

    def test_core_alone_matches_verify(self):
        """`decide_capitulation` on (K, m, p, root) gives verify's status,
        generator and checks but the re-checked search conditions."""
        for d, q0, target in ((34, None, (1,)), (3, 5, (2,)), (6, 11, (10,)), (1011, None, (2,))):
            cert = _certificate(d, q0, target, bound=30000)
            K = quadratic_field(d)
            core = decide_capitulation(K, Modulus.from_entries(K, cert.modulus), cert.p, cert.root)
            rep = verify_certificate(cert)
            assert rep.checks.pop("conditions") is True
            assert core.as_dict() == rep.as_dict()

    def test_ramified_prime_is_the_e2_prime_of_primes_above(self):
        """q_L from p_K and the ramified prime of k2 is the prime of
        `primes_above(L, p)` with e = 2 over p_K, for both primes of K over
        p in every field of the golden verify batch."""
        from test_golden import VERIFY_BATCH

        for d, _, _, p, _ in VERIFY_BATCH:
            L = biquad_field(d, p)
            above = primes_above(L, p)
            for P, _, _ in factor_prime(L.k1, p)[1]:
                over = [Q for Q, e, _ in above
                        if e == 2 and all(Q.contains(embed(L, g)) for g in P.gen_pair())]
                assert over == [ramified_prime(L, P)]
                assert ramified_prime(L, P) ** 2 == extend_ideal(L, P)

    def test_quartic_certificate_is_unverified(self):
        cert = _certificate(82, None, (2,), n=2, bound=10**4)
        assert cert.p == 241
        rep = verify_certificate(cert)
        assert rep.status == "unverified_composite"
        assert "degree 4" in rep.detail

    def test_tampered_certificates_are_refused(self):
        cert = _certificate(34, None, (1,), bound=100)
        for bad in (
            dataclasses.replace(cert, p=89),
            dataclasses.replace(cert, root=cert.root + 1),
            dataclasses.replace(cert, p=15),
            dataclasses.replace(cert, eps_character={"value": 1, "order": 1}),
            # a cyclic field that is not the certificate's degree-2 field of
            # conductor 5: a wrong polynomial, another conductor, another degree
            dataclasses.replace(cert, cyclic_field=CyclicFieldDesc(5, 2, (7, 7, 1))),
            dataclasses.replace(cert, cyclic_field=CyclicFieldDesc(13, 2, (-3, 1, 1))),
            dataclasses.replace(cert, cyclic_field=CyclicFieldDesc(5, 4, (1, 1, 1, 1, 1))),
        ):
            rep = verify_certificate(bad)
            assert rep.status == "invalid_certificate"

    def test_p_above_the_bound_is_refused(self):
        """A search stamps only a p at or below its bound, so a certificate
        whose p exceeds it is refused before any condition is re-checked."""
        cert = _certificate(34, None, (1,), bound=100)
        assert verify_certificate(dataclasses.replace(cert, bound=5)).status == "capitulates"
        rep = verify_certificate(dataclasses.replace(cert, bound=3))
        assert (rep.status, rep.detail) == ("invalid_certificate", "p exceeds the bound 3")
        assert rep.checks == {}

    def test_wrong_generator_raises_under_any_optimisation(self, monkeypatch):
        """The final re-checks are raised, not asserted: `python -O` keeps
        them, so a generator of the wrong ideal never reports `capitulates`."""
        import raycap.biquad as bq

        cert = _certificate(34, None, (1,))
        monkeypatch.setattr(bq, "adjust_to_congruence", lambda gen, primes: gen * 2)
        with pytest.raises(InvariantError, match="does not generate") as err:
            verify_certificate(cert)
        assert err.value.exit_code == 8

    def test_wrong_subfield_generator_raises(self, monkeypatch):
        import raycap.biquad as bq

        cert = _certificate(34, None, (1,))
        real = bq.is_principal_with_generator
        monkeypatch.setattr(
            bq, "is_principal_with_generator", lambda A: real(A) * 3
        )
        with pytest.raises(InvariantError, match="beta"):
            verify_certificate(cert)

    def test_verify_builds_no_principal_ideal(self, monkeypatch):
        """Generation is decided by membership and norm, and products run
        over generators: verifying the p = 853 certificate of 2543 mod 7
        builds no HNF of a principal ideal (no one-generator
        `from_generators`) and hands at most 164 rows to `hnf_rows` (260
        when each check compared HNFs of 16-row products)."""
        import raycap.biquad as bq

        cert = _certificate(2543, 7, (0, 0, 3), bound=10**5)
        assert cert.p == 853
        calls = {"principal": 0, "rows": 0}
        real_from_generators, real_hnf = BqIdeal.from_generators, bq.hnf_rows

        def from_generators(L, gens):
            calls["principal"] += len(gens) == 1
            return real_from_generators(L, gens)

        def hnf(rows):
            calls["rows"] += len(rows)
            return real_hnf(rows)

        monkeypatch.setattr(BqIdeal, "from_generators", staticmethod(from_generators))
        monkeypatch.setattr(bq, "hnf_rows", hnf)
        bq_principal(BqElt(biquad_field(cert.d, cert.p), 1, 1, 0, 0))
        assert calls["principal"] == 1  # the counter sees the oracle's (z)
        calls.update(principal=0, rows=0)
        assert verify_certificate(cert).status == "capitulates"
        assert calls["principal"] == 0
        assert 0 < calls["rows"] <= 164

    def test_report_round_trips_to_dict(self):
        cert = _certificate(34, None, (1,))
        rep = verify_certificate(cert)
        d = rep.as_dict()
        assert d["status"] == "capitulates"
        assert d["generator"] == list(rep.generator)
        assert d["p"] == 5 and d["d"] == 34
