"""Field, ideal, class group, and ray class group tests.

Class numbers are checked against an independent reduced-forms enumeration
(imaginary case) and a brute Pell solver (units), so none of the reduction
machinery is trusted twice.
"""
import collections
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    LocalMult,
    Mult,
    analytic_class_number,
    class_cycle,
    compose_by_xgcd,
    divide_exact,
    exact_local_value,
    factor_prime_by_roots,
    fundamental_unit_by_convergents,
    fundamental_unit_by_steps,
    group_add,
    hnf_ideal,
    is_ray_principal,
    local_value,
    principal_ideal,
    ray_class_of_principal,
    ray_ideal_gens_by_products,
    real_class_number,
    redei_ranks,
    reduce_real_by_orbit,
    smallest_prime_factors,
)
from raycap import abgroup, quadfield
from raycap.abgroup import hnf_rows
from raycap.biquad import biquad_field, embed, extend_modulus, l_residue_system
from raycap.errors import BudgetError, InputError, InvariantError
from raycap.exactmath import factor, kronecker, primes_up_to, sqrt_mod, squarefree_part
from raycap.quadfield import (
    Modulus,
    QElt,
    QIdeal,
    QuadField,
    _ray_ideal_gens,
    _reduce_primitive,
    _rho_cycle,
    _candidate_primes,
    _compose,
    _coset_closure,
    _generates,
    _prime_triples,
    aug_unit_data,
    class_group,
    class_key,
    factor_prime,
    fundamental_unit,
    fundamental_unit_norm,
    is_prime_ideal,
    is_principal_with_generator,
    modulus_from_rational,
    prime_above_from_root,
    quadratic_field,
    ray_class_group,
    residue_system,
    torsion_unit,
    unit_gens,
)


def reduced_form_count(D: int) -> int:
    """Number of reduced primitive positive definite forms of discriminant D."""
    assert D < 0 and D % 4 in (0, 1)
    count = 0
    a = 1
    while 4 * a * a <= -D * 4 // 3 + 4:  # a <= sqrt(|D|/3) with slack
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def brute_pell(d: int) -> tuple[int, int]:
    """Smallest (X, Y), Y >= 1, with X^2 - D*Y^2 = +-4. Exhaustive in Y."""
    D = d if d % 4 == 1 else 4 * d
    y = 1
    while True:
        for target in (-4, 4):
            x2 = D * y * y + target
            if x2 > 0:
                x = math.isqrt(x2)
                if x * x == x2:
                    return x, y
        y += 1


def is_fundamental(D: int) -> bool:
    """Trial division only, so no library code decides the corpus."""
    if D % 4 == 1:
        core = D
    elif D % 16 in (8, 12):
        core = D // 4
    else:
        return False
    n = abs(core)
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


FUNDAMENTAL_IMAG = [
    d
    for d in range(-1, -168, -1)
    if squarefree_part(d) == d and (d if d % 4 == 1 else 4 * d) >= -500
]


class TestFieldBasics:
    def test_rejects_non_squarefree(self):
        for bad in (0, 1, 4, 12, -8, 18):
            with pytest.raises(InputError):
                quadratic_field(bad)

    def test_validation_matches_the_squarefree_part(self):
        """`quadratic_field` reads squarefreeness off the factorization of
        D; for |d| < 3000 it accepts exactly the d with squarefree_part(d)
        = d and raises the same message as before for every other d."""
        for d in range(-2999, 3000):
            if d in (0, 1):
                expected = f"d = {d} does not define a quadratic field"
            elif squarefree_part(d) != d:
                expected = f"d = {d} is not squarefree"
            else:
                assert quadratic_field(d).d == d
                continue
            with pytest.raises(InputError) as err:
                quadratic_field(d)
            assert str(err.value) == expected

    def test_cached_factorization_is_the_factorization_of_D(self):
        """The factorization of |D| a field keeps is `factor`'s, for every
        squarefree |d| < 5000 and for d = 10^9 + 7, and a second read
        returns the kept dict."""
        ds = [d for d in range(-4999, 5000)
              if d not in (0, 1) and squarefree_part(d) == d] + [10**9 + 7]
        for d in ds:
            K = quadratic_field(d)
            assert K.factor_D == factor(abs(K.D)), d
            assert K.factor_D is K.factor_D
            assert list(K.factor_D) == sorted(K.factor_D)
        assert quadratic_field(10**9 + 7).factor_D == {2: 2, 10**9 + 7: 1}

    def test_a_factorization_that_misses_D_raises(self, monkeypatch):
        """The product check on the kept factorization is raised, not
        asserted (exit 8)."""
        monkeypatch.setattr(quadfield, "factor", lambda n: {2: 1})
        with pytest.raises(InvariantError, match="multiply back") as err:
            QuadField(-5).factor_D
        assert err.value.exit_code == 8

    def test_omega_relation(self):
        for d in (-1, -3, 2, 5, 34, -23):
            K = quadratic_field(d)
            w = K.elt(0, 1)
            assert w * w == K.elt(K.u, K.t)
            assert (w + w.conj()) == K.elt(K.t, 0)
            assert (w * w.conj()).x == -K.u

    @given(
        st.sampled_from([-1, -3, -5, 2, 5, 34]),
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.integers(-30, 30),
    )
    def test_norm_multiplicative(self, d, a, b, c, e):
        K = quadratic_field(d)
        z, w = K.elt(a, b), K.elt(c, e)
        assert (z * w).norm() == z.norm() * w.norm()
        assert z.norm() == (z * z.conj()).x and (z * z.conj()).y == 0

    @given(
        st.sampled_from([2, 3, 5, 13, 34, 35, 7, 17]),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.booleans(),
    )
    def test_sign_real_mixed_signs(self, d, a, b, x_negative):
        # d = 2, 34 (2 mod 4), 3, 35, 7 (3 mod 4), 5, 13, 17 (1 mod 4).
        # 2*(x + y*w) = A + y*sqrt(D) with A = 2x + t*y; with x and y of
        # opposite signs, decide its sign from floor(|y|*sqrt(D)) alone
        K = quadratic_field(d)
        x, y = (-a, b) if x_negative else (a, -b)
        A = 2 * x + K.t * y
        root = math.isqrt(y * y * K.D)  # floor(|y| sqrt(D)), never exact
        expected = (1 if root >= -A else -1) if y > 0 else (1 if A > root else -1)
        assert K.elt(x, y).sign_real() == expected

    def test_sign_real_examples(self):
        # -1 + sqrt(2) > 0, -2 + sqrt(3) < 0, -5 + sqrt(34) > 0, 1 - w < 0
        assert quadratic_field(2).elt(-1, 1).sign_real() == 1
        assert quadratic_field(3).elt(-2, 1).sign_real() == -1
        assert quadratic_field(34).elt(-5, 1).sign_real() == 1
        assert quadratic_field(5).elt(1, -1).sign_real() == -1

    def test_exact_div(self):
        K = quadratic_field(5)
        z = K.elt(3, 4) * K.elt(-2, 7)
        assert z.exact_div(K.elt(-2, 7)) == K.elt(3, 4)
        assert K.elt(1, 0).exact_div(K.elt(2, 0)) is None

    def test_constants_equality_hash_and_pickle(self):
        """For every |d| < 500 the five constants set at construction are
        the closed forms; two fields of one d are equal with one hash, and
        a pickle round trip keeps equality and D."""
        for d in range(-499, 500):
            K = QuadField(d)
            D = d if d % 4 == 1 else 4 * d
            t = D % 2
            u = (D - t) // 4
            assert (K.D, K.t, K.u, K.isqrt_D, K.minpoly) == (
                D, t, u, math.isqrt(abs(D)), (-u, -t, 1))
            assert K == QuadField(d) and hash(K) == hash(QuadField(d))
            assert K != QuadField(d + 1)
            back = pickle.loads(pickle.dumps(K))
            assert back == K and back.D == D and hash(back) == hash(K)


def hnf_product(I, J):
    """I * J as the HNF of the four products of their generator pairs."""
    x1, y1 = I.gen_pair()
    x2, y2 = J.gen_pair()
    return hnf_ideal(I.field, [x1 * x2, x1 * y2, y1 * x2, y1 * y2])


class TestIdeals:
    def test_principal_norm(self):
        K = quadratic_field(-5)
        z = K.elt(1, 1)  # 1 + sqrt(-5), norm 6
        I = principal_ideal(z)
        assert I.norm() == abs(z.norm()) == 6

    @given(
        st.sampled_from([-5, -1, 2, 34, -23]),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    def test_ideal_norm_multiplicative(self, d, a, b, c, e):
        K = quadratic_field(d)
        z, w = K.elt(a, b), K.elt(c, e)
        if z.is_zero() or w.is_zero():
            return
        I, J = principal_ideal(z), principal_ideal(w)
        assert (I * J).norm() == I.norm() * J.norm()
        assert (I * J).key() == principal_ideal(z * w).key()

    @given(
        # d = 1, 2, 3 (mod 4), each with both signs
        st.sampled_from([-3, -7, 5, 13, -2, -6, 2, 10, -1, -5, 3, 7]),
        st.lists(st.integers(-30, 30), min_size=8, max_size=8),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_product_matches_hnf(self, d, cs, g1, g2):
        # composition against the HNF of the four generator products; the
        # ideals come from two random elements each, so contents and shared
        # norm primes occur, and scale() puts g > 1 on either side
        K = quadratic_field(d)
        z1, z2, w1, w2 = (K.elt(x, y) for x, y in zip(cs[::2], cs[1::2]))
        if z1.is_zero() or w1.is_zero():
            return
        I = hnf_ideal(K, [z1, z2]).scale(g1)
        J = hnf_ideal(K, [w1, w2]).scale(g2)
        assert I * J == hnf_product(I, J)

    @pytest.mark.parametrize("d", [-23, -5, -1, 2, 5, 13])
    def test_product_matches_hnf_small_norms(self, d):
        # every pair of primitive ideals of norm at most 40
        K = quadratic_field(d)
        ideals = [
            QIdeal(K, 1, a, b)
            for a in range(1, 41)
            for b in range(a)
            if (b * (b + K.t) - K.u) % a == 0
        ]
        for I in ideals:
            for J in ideals:
                assert I * J == hnf_product(I, J)

    def test_normal_form_check(self):
        K = quadratic_field(-5)  # w^2 = -5: N(b + w) = b^2 + 5
        assert QIdeal(K, 1, 3, 1).norm() == 3
        with pytest.raises(ValueError, match="not an ideal"):
            QIdeal(K, 1, 3, 0)

    def test_prime_powers_build_the_unit_ideal_only_at_zero(self, monkeypatch):
        """P ** 0 is the unit ideal for each prime of K over 2, 3 and 5; a
        positive power is a product of P alone and builds no unit ideal."""
        K = quadratic_field(-14)
        primes = [P for p in (2, 3, 5) for P, _, _ in factor_prime(K, p)[1]]
        unit = QIdeal.unit_ideal(K)
        squares = [P * P for P in primes]
        assert [P**0 for P in primes] == [unit] * len(primes)
        monkeypatch.setattr(QIdeal, "unit_ideal", None)
        assert [P**2 for P in primes] == squares
        assert [P**1 for P in primes] == primes

    def test_compose_checks_the_product(self):
        """The integer product keeps the ideal check on what it returns: a
        triple that is no ideal, [3, 0 + w] in Q(sqrt -5), composed with
        the unit ideal raises under any optimisation."""
        K = quadratic_field(-5)
        assert _compose(K, (1, 3, 1), (1, 1, 0)) == (1, 3, 1)
        with pytest.raises(InvariantError, match="not an ideal"):
            _compose(K, (1, 3, 0), (1, 1, 0))

    @pytest.mark.parametrize("d", [-5, -14, -23, -1, -3, 34, 79, 5, 13, 7315])
    def test_compose_matches_the_xgcd_path(self, d):
        """`_compose`, which skips both extended gcds when gcd(a1, a2) = 1,
        against the composition that always takes them: 600 random pairs
        of products of small primes, their conjugates and the unit ideal,
        each with a content g and a b shifted by a multiple of a, so that
        coprime norms, a = 1 on either side and shared primes all occur."""
        K = quadratic_field(d)
        rng = random.Random(d)
        primes = [P.key() for p in primes_up_to(60)
                  for P, _, _ in factor_prime(K, p)[1] if P.g == 1]

        def random_triple():
            I = (rng.randint(1, 3), 1, 0)
            for _ in range(rng.randint(0, 3)):
                I = compose_by_xgcd(K, I, rng.choice(primes))
            g, a, b = I
            return g, a, b + a * rng.randint(-2, 2)

        seen = set()
        for _ in range(600):
            I1, I2 = random_triple(), random_triple()
            assert _compose(K, I1, I2) == compose_by_xgcd(K, I1, I2), (I1, I2)
            seen.add("a = 1" if 1 in (I1[1], I2[1]) else
                     "coprime" if math.gcd(I1[1], I2[1]) == 1 else "shared")
        assert seen == {"a = 1", "coprime", "shared"}

    def test_conj_product_is_norm(self):
        K = quadratic_field(-14)
        kind, data = factor_prime(K, 3)
        P = data[0][0]
        NP = QIdeal(K, P.norm(), 1, 0)
        assert (P * P.conj()).key() == NP.key()

    def test_divide_exact(self):
        K = quadratic_field(10)
        _, data = factor_prime(K, 3)
        P = data[0][0]
        I = P * P * P.conj()
        assert divide_exact(I, P).key() == (P * P.conj()).key()

    def test_contains(self):
        K = quadratic_field(-5)
        _, data = factor_prime(K, 2)
        P = data[0][0]  # (2, 1+sqrt(-5)) up to form
        assert P.contains(K.elt(2, 0))
        assert P.contains(K.elt(P.b, 1))
        assert not P.contains(K.elt(1, 0))

    def test_factor_prime_examples(self):
        K = quadratic_field(-1)
        kind, data = factor_prime(K, 5)
        assert kind == "split" and len(data) == 2
        # the two primes see w = i as the two square roots of -1 mod 5
        roots = sorted((-I.b) % 5 for I, _, _ in data)
        assert roots == [2, 3]
        kind, _ = factor_prime(K, 7)
        assert kind == "inert"
        kind, data = factor_prime(K, 2)
        assert kind == "ramified" and data[0][1] == 2
        P = data[0][0]
        assert (P * P).key() == QIdeal(K, 2, 1, 0).key()

    def test_splitting_matches_root_reference(self):
        """`factor_prime` and `_prime_triples` against the reference that
        takes each prime from its own root and the kind from the Kronecker
        symbol, for every p < 2000: the fields cover 2 split (d = 17), 2
        ramified (d = -1, 3, 34, ...), 2 inert (d = -3, 5), odd ramified
        primes and |D| near 4*10^9."""
        primes = primes_up_to(1999)
        seen = set()
        for d in (-1, -2, -3, -5, 2, 3, 5, 17, 34, 94, 10**9 + 7, -(10**9 + 7)):
            K = quadratic_field(d)
            firsts = []
            for p in primes:
                kind, data = factor_prime(K, p)
                assert (kind, data) == factor_prime_by_roots(K, p), (d, p)
                seen.add((kind, p == 2))
                if kind != "inert":
                    firsts.append(data[0][0].key())
            assert list(_prime_triples(K, primes)) == firsts, d
        assert seen == {(kind, two) for kind in ("split", "inert", "ramified")
                        for two in (False, True)}

    def test_is_prime_ideal(self):
        K = quadratic_field(34)
        for p in (3, 5, 11):
            for I, _, _ in factor_prime(K, p)[1]:
                assert is_prime_ideal(I)
        P = factor_prime(K, 3)[1][0][0]
        assert not is_prime_ideal(P * P)  # norm 9, composite
        assert not is_prime_ideal(QIdeal(K, 3, 1, 0))  # 3*O_K with 3 split


class TestClassGroups:
    @pytest.mark.parametrize("d", FUNDAMENTAL_IMAG)
    def test_imaginary_vs_reduced_forms(self, d):
        K = quadratic_field(d)
        assert class_group(K).h == reduced_form_count(K.D)

    @pytest.mark.parametrize(
        "d,h",
        [(-23, 3), (-47, 5), (-71, 7), (-14, 4), (2, 1), (5, 1), (10, 2),
         (34, 2), (79, 3), (82, 4), (145, 4), (229, 3), (65, 2), (15, 2)],
    )
    def test_known_class_numbers(self, d, h):
        assert class_group(quadratic_field(d)).h == h

    @pytest.mark.parametrize(
        "d,invs", [(-21, (2, 2)), (-14, (4,)), (-39, (4,)), (-30, (2, 2)), (82, (4,))]
    )
    def test_known_structures(self, d, invs):
        assert class_group(quadratic_field(d)).group.invariants == invs

    def test_two_and_four_ranks_match_redei(self):
        """`class_group`'s invariants against genus theory and Redei's
        matrix (`oracles.redei_ranks`, which shares no code with it): as
        many even invariants as the 2-rank, as many divisible by 4 as the
        4-rank, on every imaginary squarefree |d| < 5000 and every real
        squarefree d < 5000 with N(eps) = -1, where the wide class group is
        the narrow one."""
        seen = collections.Counter()
        for d in range(-4999, 5000):
            D = d if d % 4 == 1 else 4 * d
            if d in (0, 1) or not is_fundamental(D):
                continue
            if D > 0:
                x, y = fundamental_unit_by_convergents(D)
                if x * x - D % 2 * x * y - D // 4 * y * y == 1:
                    continue
            invs = class_group(quadratic_field(d)).group.invariants
            ranks = redei_ranks(D)
            assert ranks == (sum(e % 2 == 0 for e in invs), sum(e % 4 == 0 for e in invs)), d
            seen[d > 0] += 1
            seen[d > 0, ranks[1]] += 1
        assert (seen[False], seen[True]) == (3042, 648)
        assert seen[False, 2] == 24 and seen[True, 2] == 1  # 4-rank 2 on both sides

    @given(
        st.sampled_from([-5, -14, -23, 10, 34, 79]),
        st.integers(-8, 8),
        st.integers(1, 8),
    )
    def test_class_key_invariant_under_scaling(self, d, a, b):
        K = quadratic_field(d)
        z = K.elt(a, b)
        if z.is_zero():
            return
        _, data = factor_prime(K, 3 if math.gcd(3, K.D) == 1 else 7)
        P = data[0][0]
        assert class_key(P) == class_key(principal_ideal(z) * P)

    def test_analytic_class_number_formula(self):
        spf = smallest_prime_factors(3000)
        checked = 0
        for D in range(-3, -3000, -1):
            if not is_fundamental(D):
                continue
            d = D if D % 4 == 1 else D // 4
            assert class_group(quadratic_field(d)).h == analytic_class_number(D, spf), D
            checked += 1
        assert checked > 800

    def test_real_class_numbers_by_dirichlets_formula(self):
        """class_group(K).h of every real K = Q(sqrt d), squarefree d < 3000,
        against Dirichlet's analytic formula: a third check that shares
        nothing with the closure, the rho cycles or `_period_quotients`
        (the oracle's unit comes from its own continued fraction)."""
        spf = smallest_prime_factors(4 * 3000)
        checked = 0
        for d in range(2, 3000):
            if squarefree_part(d) != d:
                continue
            K = quadratic_field(d)
            assert class_group(K).h == real_class_number(K.D, spf), d
            checked += 1
        assert checked == 1823

    @pytest.mark.parametrize("d", [-5, -21, -30, -1999, -20011, 10, 82, 145, 3999])
    def test_relation_matrix_is_square_lower_triangular(self, d):
        """k x k on the primes that enlarge the closure: each diagonal entry
        is the index it adds, so none is 1."""
        K = quadratic_field(d)
        gens, table, rels = _coset_closure(K, _candidate_primes(K))
        k = len(gens)
        assert len(rels) == k and all(len(row) == k for row in rels)
        assert all(rels[i][j] == 0 for i in range(k) for j in range(i + 1, k))
        assert all(rels[i][i] > 1 for i in range(k))
        diag = math.prod(rels[i][i] for i in range(k))
        assert diag == class_group(K).h == len(table)

    def test_imaginary_candidates_stop_below_sqrt_of_a_third(self):
        """A reduced imaginary ideal has 3a^2 <= |D|, so the primes below
        sqrt(|D|/3) generate Cl: for every imaginary fundamental D with
        |D| <= 20000, the closure over the non-inert primes up to
        sqrt(|D|) + 2, the earlier bound, gives class_group's table (in its
        order) and relations."""
        checked = 0
        for D in range(-3, -20001, -1):
            if not is_fundamental(D):
                continue
            K = quadratic_field(D if D % 4 == 1 else D // 4)
            wide = _prime_triples(K, primes_up_to(K.isqrt_D + 2))
            _, table, rels = _coset_closure(K, wide)
            cl = class_group.__wrapped__(K)
            assert list(cl.table.items()) == list(table.items()), D
            assert cl.relations == tuple(map(tuple, rels)), D
            checked += 1
        assert checked == 6079

    @pytest.mark.parametrize("d,h", [(10**8 + 7, 1), (10**7 + 19, 7), (3999, 8)])
    def test_each_class_cycle_is_walked_once(self, monkeypatch, d, h):
        """The closure keys its products through a memo that a whole
        rho-cycle fills at once, so it walks h cycles however many
        candidate primes land on each class (hundreds on the principal
        cycle of 10^8 + 7, about 6,500 reduced ideals long)."""
        walks = []
        rho_cycle = quadfield._rho_cycle

        def counted(*args):
            walks.append(args)
            return rho_cycle(*args)

        monkeypatch.setattr(quadfield, "_rho_cycle", counted)
        assert class_group.__wrapped__(quadratic_field(d)).h == h
        assert len(walks) == h

    @pytest.mark.parametrize("d", [3999, 10**7 + 19, 10**8 + 7])
    def test_packed_memo_names_each_reduced_ideal_once(self, monkeypatch, d):
        """The class-key memo names a reduced [a, b + w] by a*a + b. Every
        reduced ideal on the cycles of [1, w] and of the first ten prime
        ideals, which meet every class here, reads back the key that
        `class_key` walks afresh and that `oracles.class_cycle` takes as the least
        (a, B) of the whole member list. The memo after `class_group`
        holds one int per reduced ideal: a bound of the summed cycle
        lengths builds the group, one less raises BudgetError."""
        K = quadratic_field(d)
        cycles = {}
        for g, p, b in [(1, 1, 0), *itertools.islice(_candidate_primes(K), 10)]:
            key, members = class_cycle(K, *_reduce_primitive(K, p, b)[:2])
            assert key == class_key(QIdeal(K, g, p, b))
            cycles[key] = members
        key_of = quadfield._class_keys(K)
        for key, members in cycles.items():
            assert key_of(*members[-1][:2]) == key  # fills this cycle's entries
        for key, members in cycles.items():
            assert all(key_of(a, b) == key for a, b, _ in members), d
        assert len(cycles) == class_group(K).h
        size = sum(map(len, cycles.values()))
        monkeypatch.setattr(quadfield, "_MEMO_BOUND", size)
        assert class_group.__wrapped__(K).h == len(cycles)
        monkeypatch.setattr(quadfield, "_MEMO_BOUND", size - 1)
        with pytest.raises(BudgetError, match=f"more than {size - 1} reduced ideals"):
            class_group.__wrapped__(K)

    def test_rho_cycle_yields_each_reduced_ideal_once(self):
        """An imaginary class has one reduced ideal, which `_rho_cycle`
        yields alone with B centred in (-a, a]. A real class is its
        rho-cycle, from the start on, with no member twice; the principal
        cycle has the length (-1)^length = N(eps) of `fundamental_unit_norm`
        on every real squarefree d < 5000."""
        for d in (-1, -3, -5, -14, -23, -1365, -4199):
            K = quadratic_field(d)
            for g, p, b in [(1, 1, 0), *itertools.islice(_candidate_primes(K), 8)]:
                a, b, _ = _reduce_primitive(K, p, b)
                (member,) = _rho_cycle(K, a, b)
                B = member[2]
                assert member[:2] == (a, b) and -a < B <= a and (B - 2 * b - K.t) % (2 * a) == 0
        for d in range(2, 5000):
            if squarefree_part(d) == d:
                K = quadratic_field(d)
                members = [(a, b) for a, b, _ in _rho_cycle(K, 1, 0)]
                assert members[0] == (1, 0) and len(set(members)) == len(members), d
                assert (-1) ** len(members) == fundamental_unit_norm(K), d

    @pytest.mark.parametrize("d", [-5, -21, -1365, -4199, -5565, -30030, 145, 1365, 3999])
    def test_normal_form_is_the_table_representative(self, d):
        """Idempotent on the table's vectors, blind to any multiple of a
        relation row, and onto the table from any integer vector."""
        cl = class_group(quadratic_field(d))
        rng = random.Random(d)
        vectors = set(cl.table.values())
        assert len(vectors) == cl.h
        for vec in vectors:
            assert cl.normal_form(vec) == vec
            for row in cl.relations:
                k = rng.choice([-3, -1, 1, 2])
                assert cl.normal_form([c + k * r for c, r in zip(vec, row)]) == vec
        for _ in range(50):
            vec = [rng.randint(-40, 40) for _ in cl.relations]
            assert cl.normal_form(vec) in vectors

    @pytest.mark.parametrize("d", [-21, -30, -1999, -4199, 82, 145, 3999])
    def test_dlog_additive_on_generator_products(self, d):
        K = quadratic_field(d)
        cl = ray_class_group(K, Modulus(K, ()))
        gens = [P for p in primes_up_to(60) for kind, data in [factor_prime(K, p)]
                if kind != "inert" for P, _, _ in data][:8]
        for i, P in enumerate(gens):
            for Q in gens[i:]:
                assert cl.dlog(P * Q) == group_add(cl.group, cl.dlog(P), cl.dlog(Q))

    def test_dlog_is_homomorphism(self):
        K = quadratic_field(-21)
        cl = ray_class_group(K, Modulus(K, ()))
        ps = [factor_prime(K, p)[1][0][0] for p in (5, 11, 13)]
        for P in ps:
            for Q in ps:
                lhs = cl.dlog(P * Q)
                rhs = group_add(cl.group, cl.dlog(P), cl.dlog(Q))
                assert lhs == rhs


class TestUnits:
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 19, 21, 22, 29, 31, 34, 43, 46, 67, 94])
    def test_fundamental_unit_vs_pell(self, d):
        K = quadratic_field(d)
        u = fundamental_unit(K)
        X, Y = brute_pell(d)
        assert (u.trace(), u.y) == (X, Y) or (2 * u.x + u.y * K.t, u.y) == (X, Y)
        assert abs(u.norm()) == 1

    def test_fundamental_unit_vs_step_product(self):
        """The continued-fraction walk against the rho cycle's step product
        it replaced, for every squarefree 2 <= d < 10^4 and d = 10^9 + 7;
        the norm is -1 to the period, the length of the rho cycle of O_K."""
        ds = [d for d in range(2, 10**4) if squarefree_part(d) == d] + [10**9 + 7]
        assert len(ds) == 6083
        for d in ds:
            K = quadratic_field(d)
            eps = fundamental_unit.__wrapped__(K)
            assert eps == fundamental_unit_by_steps(K), d
            assert eps.norm() == (-1) ** len(class_cycle(K, 1, 0)[1]), d

    def test_unit_norm_from_the_period(self):
        """`fundamental_unit_norm` reads (-1)^(period length) and builds no
        unit: the norm of the unit built, for every real squarefree d < 5000
        and d = 10^9 + 7."""
        ds = [d for d in range(2, 5000) if squarefree_part(d) == d] + [10**9 + 7]
        signs = collections.Counter()
        for d in ds:
            K = quadratic_field(d)
            sign = fundamental_unit_norm(K)
            assert sign == fundamental_unit.__wrapped__(K).norm(), d
            signs[sign] += 1
        assert signs[-1] and signs[1]
        with pytest.raises(InputError):
            fundamental_unit_norm(quadratic_field(-5))

    def test_unit_signs(self):
        u = fundamental_unit(quadratic_field(2))
        assert u == quadratic_field(2).elt(1, 1)
        assert u.norm() == -1
        assert fundamental_unit(quadratic_field(3)).norm() == 1

    def test_torsion(self):
        for d, n in [(-1, 4), (-3, 6), (-7, 2), (5, 2)]:
            z, order = torsion_unit(quadratic_field(d))
            acc = z
            for _ in range(order - 1):
                assert acc != quadratic_field(d).elt(1, 0)
                acc = acc * z
            assert acc == quadratic_field(d).elt(1, 0)


class TestPrincipality:
    @given(
        st.sampled_from([-5, -23, -14, 2, 10, 34, 79]),
        st.integers(-12, 12),
        st.integers(-12, 12),
    )
    def test_roundtrip(self, d, a, b):
        K = quadratic_field(d)
        z = K.elt(a, b)
        if z.is_zero():
            return
        g = is_principal_with_generator(principal_ideal(z))
        assert g is not None
        q = z.exact_div(g)
        assert q is not None and abs(q.norm()) == 1

    def test_nonprincipal_certified(self):
        K = quadratic_field(-5)
        _, data = factor_prime(K, 2)
        P = data[0][0]
        assert is_principal_with_generator(P) is None
        g = is_principal_with_generator(P * P)
        assert g is not None and abs(g.norm()) == 4

    def test_order_two_class_d34(self):
        K = quadratic_field(34)
        _, data = factor_prime(K, 3)
        P = data[0][0]
        assert is_principal_with_generator(P) is None
        assert is_principal_with_generator(P * P) is not None

    @given(
        st.sampled_from([-5, -23, -14, 2, 10, 34, 79]),
        st.sampled_from([(), (3,), (3, 3), (3, 7), (7, 11)]),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.sampled_from(["gen", "unit_gen", "twice", "times_P", "element"]),
    )
    def test_generator_check_matches_hnf(self, d, rational, r, s, kind):
        # _generates(I, z) must say exactly what the HNF comparison
        # (z) == I says, on generators and on elements that are not
        K = quadratic_field(d)
        I = QIdeal.unit_ideal(K)
        for p in rational:
            I = I * next(P for P, _, _ in factor_prime(K, p)[1])
        x1, x2 = I.gen_pair()
        elt = x1 * r + x2 * s  # a random element of I
        gen = is_principal_with_generator(I)
        P = factor_prime(K, 5)[1][0][0]
        p1, p2 = P.gen_pair()
        if kind == "element" or gen is None:
            z = elt
        elif kind == "gen":
            z = gen
        elif kind == "unit_gen":
            z = gen * unit_gens(K)[-1]
        elif kind == "twice":
            z = gen * 2
        else:  # an element of I*P
            z = gen * (p1 * r + p2 * s)
        if z.is_zero():
            return
        assert _generates(I, z) == (principal_ideal(z).key() == I.key())
        if kind in ("gen", "unit_gen") and gen is not None:
            assert _generates(I, z)


class TestModuli:
    def test_rational_modulus(self):
        K = quadratic_field(2)
        m = modulus_from_rational(K, 7)
        assert len(m.primes) == 2 and m.norm() == 49
        assert m.is_conj_stable()
        m_inert = modulus_from_rational(K, 5)
        assert len(m_inert.primes) == 1 and m_inert.norm() == 25

    def test_rejects_non_squarefree(self):
        K = quadratic_field(2)
        with pytest.raises(InputError):
            modulus_from_rational(K, 9)

    @pytest.mark.parametrize(
        "d,m", [(34, 3 * 5 * 13), (-5, 2 * 3 * 5 * 7), (13, 13 * 17)]
    )
    def test_entries_round_trip(self, d, m):
        # split, inert and ramified primes: p is the rational prime below
        K = quadratic_field(d)
        mod = modulus_from_rational(K, m)
        for (p, a, b, g), q in zip(mod.entries(), mod.primes, strict=True):
            assert (g, a, b) == q.key() and m % p == 0 and q.norm() in (p, p * p)
        assert Modulus.from_entries(K, mod.entries()) == mod
        assert Modulus.from_entries(K, [list(e) for e in mod.entries()]) == mod

    @pytest.mark.parametrize("entries", [
        [(5, 4, 7, 1)],  # b outside [0, a)
        [(5, 5, 0, 1)],  # a does not divide N(b + w)
        [(5, 5, 1)],  # not four numbers
        [5],  # not a sequence
        [(3, 3, 1, 1), (5, 3, 2, 1)],  # 5 is not the prime below [3, 2 + w]
        [(15, 15, 7, 1)],  # an ideal, but not prime
        [(3, 3, 1, 1), (3, 3, 1, 1)],  # not squarefree
    ])
    def test_from_entries_rejects(self, entries):
        K = quadratic_field(34)
        with pytest.raises(InputError):
            Modulus.from_entries(K, entries)

    def test_single_prime_modulus_not_stable(self):
        K = quadratic_field(-1)
        _, data = factor_prime(K, 5)
        m = Modulus(K, (data[0][0],))
        assert not m.is_conj_stable()
        assert m.norm() == 5


class TestResidues:
    def test_crt_lift_hits_requested_residues(self):
        K = quadratic_field(2)
        ray = ray_class_group(K, modulus_from_rational(K, 21))  # 3 inert, 7 split
        rs = ray.residue
        exps = tuple((3 * i + 1) % o for i, o in enumerate(rs.orders))
        z = rs.crt_lift(exps)
        assert rs.dlog(z) == exps

    def test_dlog_multiplicative(self):
        K = quadratic_field(-1)
        ray = ray_class_group(K, modulus_from_rational(K, 13))
        rs = ray.residue
        z, w = K.elt(3, 1), K.elt(2, 5)
        zd, wd, pd = rs.dlog(z), rs.dlog(w), rs.dlog(z * w)
        assert all((a + b - c) % o == 0 for a, b, c, o in zip(zd, wd, pd, rs.orders))

    def test_noncoprime_rejected(self):
        K = quadratic_field(-1)
        ray = ray_class_group(K, modulus_from_rational(K, 13))
        with pytest.raises(ValueError):
            ray.residue.dlog(K.elt(13, 0))

    def test_factors_over_one_residue_field_share_its_generator_and_table(self, monkeypatch):
        """A residue field's order, generator and discrete-log steps depend
        on p and (t, u) mod p alone. Over 3, inert in K = Q(sqrt 2) and in
        Q(sqrt 5) and split in Q(sqrt 7), the factor of K and the two of
        L = Q(sqrt 2, sqrt 5) over it, which present F_9 by K's w, share
        one entry; the factor of Q(sqrt 5), (t, u) = (1, 1) against K's
        (0, 2), and the F_3 of Q(sqrt 7) have their own. Each gives the
        discrete logs of a factor built without the cache."""
        quadfield._residue_field.cache_clear()
        L = biquad_field(2, 5)
        K = L.k1

        def build():
            """(factor over 3, the element x + y*w of its ring) of each field."""
            out = [(f, K.elt) for f in residue_system(K, modulus_from_rational(K, 3)).factors]
            out += [(f, lambda x, y: embed(L, K.elt(x, y))) for f in l_residue_system(
                extend_modulus(L, modulus_from_rational(K, 3))).factors]
            for F in (quadratic_field(5), quadratic_field(7)):
                out += [(f, F.elt) for f in residue_system(F, modulus_from_rational(F, 3)).factors]
            return out

        cached = build()
        with monkeypatch.context() as mp:
            mp.setattr(quadfield, "_residue_field", quadfield._residue_field.__wrapped__)
            fresh = build()
        fs = [f for f, _ in cached]
        assert [f.f for f in fs] == [2, 2, 2, 2, 1, 1]
        assert fs[0]._steps is fs[1]._steps is fs[2]._steps
        assert len({id(f._steps) for f in fs}) == 3
        assert quadfield._residue_field.cache_info().misses == 3
        pairs = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for (f, elt), (g, _) in zip(cached, fresh, strict=True):
            assert g._steps is not f._steps and (g.gen, g.order) == (f.gen, f.order)
            zs = [z for z in (elt(x, y) for x, y in pairs) if f.is_unit_residue(z)]
            assert len(zs) >= 54
            assert [f.dlog(z) for z in zs] == [g.dlog(z) for z in zs]


class TestRayClassGroups:
    def test_gaussian_mod_3(self):
        K = quadratic_field(-1)
        ray = ray_class_group(K, modulus_from_rational(K, 3))
        assert ray.group.invariants == (2,)

    def test_gaussian_mod_5(self):
        K = quadratic_field(-1)
        ray = ray_class_group(K, modulus_from_rational(K, 5))
        assert ray.group.invariants == (4,)

    def test_order_identity_sweep(self):
        pairs = 0
        for d in (-1, -5, -23, 2, 5, 10, 34, -14, 15):
            K = quadratic_field(d)
            for m in (1, 3, 5, 7, 11, 13, 17):
                if math.gcd(m, K.D) > 1:
                    continue
                ray = ray_class_group(K, modulus_from_rational(K, m))
                lhs = ray.group.order() * ray.unit_image_order
                rhs = ray.cl.h * ray.residue.order()
                assert lhs == rhs
                pairs += 1
        assert pairs >= 50

    def test_trivial_modulus_recovers_class_group(self):
        for d in (-23, 34, 79, -21, -30, -1999, -4199, 82, 145, 3999):
            K = quadratic_field(d)
            ray = ray_class_group(K, Modulus(K, ()))
            assert ray.group.invariants == class_group(K).group.invariants

    def test_ray_dlog_homomorphism(self):
        K = quadratic_field(-5)
        ray = ray_class_group(K, modulus_from_rational(K, 7))
        ideals = []
        for p in (3, 11, 13):
            ideals.append(factor_prime(K, p)[1][0][0])
        for I in ideals:
            for J in ideals:
                assert ray.dlog(I * J) == group_add(ray.group, ray.dlog(I), ray.dlog(J))

    def test_principal_class_matches_residue_route(self):
        K = quadratic_field(34)
        ray = ray_class_group(K, modulus_from_rational(K, 3))
        for a, b in [(5, 1), (1, 2), (7, 3), (4, 1)]:
            z = K.elt(a, b)
            if z.is_zero() or z.norm() % 3 == 0:
                continue
            assert ray.dlog(principal_ideal(z)) == ray_class_of_principal(ray, z)

    def test_ray_principal_generator(self):
        K = quadratic_field(2)
        ray = ray_class_group(K, modulus_from_rational(K, 7))
        z = K.elt(8, 7)  # 1 mod both primes over 7
        g = is_ray_principal(ray, principal_ideal(z))
        assert g is not None
        assert all(v == 0 for v in ray.residue.dlog(g))
        # a principal ideal whose ray class is nontrivial has no such generator
        w = K.elt(5, 1)
        assert any(ray.dlog(principal_ideal(w)))
        assert is_ray_principal(ray, principal_ideal(w)) is None

    def test_nontrivial_class_blocks(self):
        K = quadratic_field(34)
        ray = ray_class_group(K, Modulus(K, ()))
        P = factor_prime(K, 3)[1][0][0]
        assert is_ray_principal(ray, P) is None
        g = is_ray_principal(ray, P * P)
        assert g is not None


def reference_ambient_vector(ray, I):
    """The ambient vector behind RayClassData.dlog, without its memos: a
    class_key table lookup, then the cofactor built from explicit
    conj(P)**e products and a generator element of the product."""
    v = list(ray.ray_table[class_key(I)])
    acc = I
    for P, e in zip(ray.ideal_gens, v):
        acc = acc * (P.conj() ** e)
    y = is_principal_with_generator(acc)
    res = list(ray.residue.dlog(y))
    for P, e in zip(ray.ideal_gens, v):
        if e:
            nrm = ray.residue.dlog_int(P.norm())
            res = [r - e * c for r, c in zip(res, nrm)]
    return tuple(v + res)


def query_ideals(K, m, count):
    """Primes of degree one away from D and m, products of two, and a scaled
    copy, so several queries share a class (and, in real fields, a cycle)."""
    bad = abs(K.D) * m
    primes = []
    for p in range(3, 400):
        if len(primes) == count or math.gcd(p, bad) > 1 or kronecker(K.D, p) != 1:
            continue
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            primes.extend(P for P, _, _ in factor_prime(K, p)[1])
    out = primes + [P * Q for P, Q in zip(primes, primes[3:])]
    return out + [primes[0].scale(2)]


def memo_pairs(ray):
    """The ray memo's entries as ((a, b), coordinates), its key a*a + b
    read back: 0 <= b < a puts it in [a^2, (a + 1)^2)."""
    for key, vec in ray.vectors.items():
        a = math.isqrt(key)
        yield (a, key - a * a), vec


@pytest.mark.parametrize(
    "d,m", [(34, 1), (34, 7), (79, 1), (79, 5), (-5, 1), (-5, 7), (-23, 1),
            (-14, 11), (142, 1), (142, 3), (65, 7), (-23, 3)]
)
def test_memoized_ambient_vector_matches_reference(d, m):
    """Cold and warm lookups give the class of the reference's ambient
    vector, and the memo holds, for each reduced ideal in it, the group
    coordinates of that ideal's reference vector."""
    K = quadratic_field(d)
    ideals = query_ideals(K, m, 12)
    rng = random.Random(d * 1000 + m)
    cold = ray_class_group.__wrapped__(K, modulus_from_rational(K, m))
    assert cold.cl.h > 1 and not cold.vectors
    want = {I: reference_ambient_vector(cold, I) for I in ideals}
    group = cold.group
    for _ in range(2):  # the first pass starts cold, the second is warm
        rng.shuffle(ideals)
        for I in ideals:
            assert cold.dlog(I) == group.dlog_ambient(want[I])
    assert cold.vectors
    for (a, b), vec in memo_pairs(cold):
        R = QIdeal(K, 1, a, b)
        assert vec == group.dlog_ambient(reference_ambient_vector(cold, R))
    if K.is_real:  # a miss stores whole cycles, not just the reduced ideal
        assert len(cold.vectors) > len({class_key(I) for I in ideals})


def count_cofactor_walks(monkeypatch):
    """Count the cofactor walks (`_cofactor_residue`) from now on."""
    calls = []
    walk = quadfield._cofactor_residue

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(quadfield, "_cofactor_residue", counted)
    return calls


@pytest.mark.parametrize(
    "d,m", [(34, 7), (79, 5), (-5, 7), (-14, 11), (70, 13), (-23, 35),
            (543, 11), (595, 33), (70, 3), (-14, 3), (34, 15)]
)
def test_warm_queries_walk_no_generator(monkeypatch, d, m):
    """Once the memo holds a query's reduced ideal, its ray class costs no
    cofactor walk to [1, w]: the walks are one per memo miss, and one per
    query in a blocked class, one with no reduced ideal coprime to m, which
    the memo cannot hold. In Q(sqrt -14) mod 3 the class of a prime above 3
    has one reduced ideal, of norm 3; in Q(sqrt 34) mod 15 one class has
    the rho-cycle of norms 3, 6, 5, 5, 6, 3. A query whose reduced ideal
    meets m but whose rho-cycle has a member coprime to m is not blocked:
    in Q(sqrt 79) mod 5 (reduced norm 15 in the cycle 1, 15, 2, 15),
    Q(sqrt 543) mod 11, Q(sqrt 595) mod 33 and Q(sqrt 70) mod 3 no warm
    query walks a cofactor."""
    K = quadratic_field(d)
    ideals = query_ideals(K, m, 12)
    ideals += [I.scale(g) for I in ideals[:4] for g in (2, 9) if math.gcd(g, m) == 1]
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, m))
    want = [ray.group.dlog_ambient(reference_ambient_vector(ray, I)) for I in ideals]
    blocked = [
        I for I in ideals
        if all(math.gcd(a, m) > 1 for a, *_ in class_cycle(
            K, *quadfield._reduce_primitive(K, I.a, I.b)[:2])[1])
    ]
    calls = count_cofactor_walks(monkeypatch)
    assert [ray.dlog(I) for I in ideals] == want
    assert len(blocked) < len(calls) <= len(blocked) + ray.cl.h
    calls.clear()
    assert [ray.dlog(I) for I in reversed(ideals)] == want[::-1]
    assert len(calls) == len(blocked)
    assert (len(blocked) > 0) == ((d, m) in {(-14, 3), (34, 15)})
    walk_on = [
        I for I in ideals if I not in blocked
        and math.gcd(quadfield._reduce_primitive(K, I.a, I.b)[0], m) > 1
    ]
    assert (len(walk_on) > 0) == ((d, m) in {(79, 5), (543, 11), (595, 33), (70, 3), (34, 15)})


@pytest.mark.parametrize("d", [34, 79, 142, -5, -23])
def test_trivial_modulus_builds_no_multiplier(monkeypatch, d):
    """With m = 1 the residue part is empty: no query folds its steps
    into a multiplier's local state, reads a discrete log off one, or forms
    the exact product, not even the cofactor walk of a memo miss."""
    K = quadratic_field(d)
    ideals = query_ideals(K, 1, 12)
    ray = ray_class_group.__wrapped__(K, Modulus(K, ()))
    want = [ray.group.dlog_ambient(reference_ambient_vector(ray, I)) for I in ideals]
    assert ray.residue.factors == [] and ray.residue.one == ()

    def forbidden(*args):
        raise AssertionError("a query built a multiplier")

    monkeypatch.setattr(quadfield, "_steps_product", forbidden)
    monkeypatch.setattr(quadfield.ResidueSystem, "fold", forbidden)
    monkeypatch.setattr(quadfield.ResidueSystem, "dlogs", forbidden)
    walks = count_cofactor_walks(monkeypatch)
    for _ in range(2):
        assert [ray.dlog(I) for I in ideals] == want
    assert 0 < len(walks) <= ray.cl.h


def test_modulus_prime_in_the_reduced_ideal_takes_a_generator(monkeypatch):
    """In Q(sqrt -14) mod 3 the reduced ideal of the class of a prime above
    3 has norm 3, so the memo cannot hold it: ideals of that class coprime
    to 3 get their ray class through a cofactor walk on every query."""
    K = quadratic_field(-14)
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, 3))
    above_3 = {class_key(P) for P, _, _ in factor_prime(K, 3)[1]}
    ideals = [I for I in query_ideals(K, 3, 12) if class_key(I) in above_3]
    assert ideals
    want = [ray.group.dlog_ambient(reference_ambient_vector(ray, I)) for I in ideals]
    calls = count_cofactor_walks(monkeypatch)
    for _ in range(2):
        assert [ray.dlog(I) for I in ideals] == want
    assert len(calls) == 2 * len(ideals)
    assert all(a % 3 for (a, _), _ in memo_pairs(ray))


@pytest.mark.parametrize("d,p", [(-5, 3), (-14, 3), (79, 3), (-5, 7), (79, 5)])
def test_one_prime_of_a_split_pair_in_the_modulus(d, p):
    """With m = Q, one prime above the split p, the conjugate Q' shares
    Q's norm but is coprime to m: its powers and multiples get their ray
    class, which the reference confirms, and Q itself is refused. In
    Q(sqrt -14) and Q(sqrt 79) the memo then holds reduced ideals of norm
    divisible by p, each with its reference class."""
    K = quadratic_field(d)
    Q, Qc = (P for P, _, _ in factor_prime(K, p)[1])
    m = Modulus(K, (Q,))
    assert m.coprime_to(Qc) and not m.coprime_to(Q) and not m.coprime_to(Q * Qc)
    ray = ray_class_group.__wrapped__(K, m)
    for I in (Qc, Qc**2, Qc**3, Qc.scale(2)):
        assert ray.dlog(I) == ray.group.dlog_ambient(reference_ambient_vector(ray, I))
    with pytest.raises(InputError, match="not coprime"):
        ray.dlog(Q)
    for (a, b), vec in memo_pairs(ray):
        R = QIdeal(K, 1, a, b)
        assert vec == ray.group.dlog_ambient(reference_ambient_vector(ray, R))
    assert any(a % p == 0 for (a, _), _ in memo_pairs(ray)) == (d != -5)


@pytest.mark.parametrize("d", [-14, -5, 79])
def test_coprime_to_agrees_with_containment(d):
    """`Modulus.coprime_to` against containment in each prime of m, on every
    g*[a, b + w] with a < 400 and g in {1, 2, p_split, p_inert, p_ram} whose
    norm shares a prime with N(m). m holds one prime of a split pair, an
    inert prime and an odd ramified prime."""
    K = quadratic_field(d)
    first = lambda chi: next(p for p in primes_up_to(100)[1:] if kronecker(K.D, p) == chi)
    ps = (first(1), first(-1), first(0))
    m = Modulus(K, tuple(factor_prime(K, p)[1][0][0] for p in ps))
    seen = set()
    for a in range(1, 400):
        for b in range(a):
            if (b * (b + K.t) - K.u) % a:
                continue
            for g in (1, 2) + ps:
                I = QIdeal(K, g, a, b)
                if math.gcd(I.norm(), m.norm()) == 1:
                    continue
                x, y = I.gen_pair()
                want = not any(q.contains(x) and q.contains(y) for q in m.primes)
                assert m.coprime_to(I) == want, (g, a, b)
                seen.add((want, g > 1))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_wrong_generator_raises_under_any_optimisation(monkeypatch):
    """The generator checks are raised, not asserted, so `python -O` keeps
    them: a generator of the wrong ideal, or a cofactor walk that never
    meets [1, w] where the class says the ideal is principal, stops with
    InvariantError (exit 8)."""
    K = quadratic_field(34)
    P = factor_prime(K, 3)[1][0][0]
    real = QElt.exact_div

    def doubled(z, o):
        q = real(z, o)
        return None if q is None else q * 2

    with monkeypatch.context() as m:
        m.setattr(QElt, "exact_div", doubled)
        with pytest.raises(InvariantError, match="does not generate") as err:
            is_principal_with_generator(P * P)
    assert err.value.exit_code == 8
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, 7))
    walk_to = quadfield._walk_to
    monkeypatch.setattr(quadfield, "_walk_to", lambda f, a, b, steps, meets: walk_to(
        f, a, b, steps, lambda a, b: a != 1 and meets(a, b)
    ))  # the walks to [1, w] never arrive; class keys do not use them
    with pytest.raises(InvariantError, match="non-principal"):
        ray.dlog(P)
    with pytest.raises(InvariantError, match="harvested relation"):
        L = quadratic_field(79)
        ray_class_group.__wrapped__(L, Modulus(L, ()))


# real and imaginary fields (w^2 = w + u too); inert modulus primes, two
# rational primes (split, inert or mixed) and fields where reduced ideals
# meet the modulus
RAY_DLOG_CASES = [(34, 7), (70, 13), (79, 21), (142, 3), (-14, 11), (-14, 3),
                  (-23, 35), (-47, 15), (85, 3), (-23, 3)]


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(RAY_DLOG_CASES),
    picks=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 3)),
                   min_size=1, max_size=3),
    g=st.integers(1, 12),
)
def test_ray_dlog_matches_reference(case, picks, g):
    """ray.dlog of g * prod P_i^e_i, P_i primes above small p coprime to
    D*m, against the reference vector's class."""
    d, m = case
    K = quadratic_field(d)
    ray = ray_class_group(K, modulus_from_rational(K, m))
    primes = query_ideals(K, m, 16)[:16]
    I = QIdeal.unit_ideal(K)
    for i, e in picks:
        I = I * primes[i % len(primes)] ** e
    if math.gcd(g, m) == 1:
        I = I.scale(g)
    assert ray.dlog(I) == ray.group.dlog_ambient(reference_ambient_vector(ray, I))


def element_residue_part(I, gens, v, residue):
    """The residue part of I against C = prod conj(P_i)^(v_i) on the
    element path, a generator y of I*C, then dlog(y) - dlog_int(N C); and
    the content g of I*C."""
    C = QIdeal.unit_ideal(I.field)
    for P, e in zip(gens, v):
        C = C * P.conj() ** e
    y = is_principal_with_generator(I * C)
    part = tuple(r - c for r, c in zip(residue.dlog(y), residue.dlog_int(C.norm())))
    return part, (I * C).g


@pytest.mark.parametrize("d,m", RAY_DLOG_CASES)
def test_cofactor_walk_matches_element_path(monkeypatch, d, m):
    """Every relation row of `ray_class_group`, and the residue part of
    every memo miss and blocked query, equal the element path's: the
    local walk to [1, w] reads the same dlog(g/mu) that a generator g/mu
    of I*C gives, unreduced, with no sign or factor g lost. Scaled queries
    and ramified generators give cofactors with g > 1."""
    K = quadratic_field(d)
    modulus = modulus_from_rational(K, m)
    built, walks = [], []
    make_group, walk = quadfield.group_from_relations, quadfield._cofactor_residue

    def recorded_group(rows, n):
        built.append((rows, make_group(rows, n)))
        return built[-1][1]

    def recorded_walk(*args):
        walks.append((args, walk(*args)))
        return walks[-1][1]

    monkeypatch.setattr(quadfield, "group_from_relations", recorded_group)
    monkeypatch.setattr(quadfield, "_cofactor_residue", recorded_walk)
    ray = ray_class_group.__wrapped__(K, modulus)
    rows = next(rows for rows, group in built if group is ray.group)
    relations = _ray_ideal_gens(K, modulus, ray.cl)[2]
    assert relations and len(walks) == len(relations)
    for rel, row in zip(relations, rows):
        Jp = Jm = QIdeal.unit_ideal(K)
        for P, e in zip(ray.ideal_gens, rel):
            Jp, Jm = Jp * P ** max(e, 0), Jm * P ** max(-e, 0)
        alpha = is_principal_with_generator(Jp * Jm.conj())
        res = [r - c for r, c in zip(ray.residue.dlog(alpha), ray.residue.dlog_int(Jm.norm()))]
        assert row == list(rel) + [-c for c in res]
    ideals = query_ideals(K, m, 12)
    ideals += [I.scale(g) for I in ideals[:4] for g in (2, 9) if math.gcd(g, m) == 1]
    for I in ideals:
        ray.dlog(I)
    assert len(walks) > len(relations)
    contents = set()
    for (field, I, gens, v, residue), got in walks:
        want, g = element_residue_part(QIdeal(field, *I), gens, v, residue)
        assert got == want
        contents.add(g > 1)
    assert contents == {False, True}


def trivial_modulus_fields():
    """Every fundamental |D| <= 2000 with h > 1, then class groups of 2-rank
    two to four, where the closure has several generators."""
    ds = [D if D % 4 == 1 else D // 4
          for D in itertools.chain(range(-3, -2001, -1), range(5, 2001)) if is_fundamental(D)]
    fields = [quadratic_field(d) for d in ds + [-5565, -15015, -30030, 15015]]
    return [K for K in fields if class_group(K).h > 1]


def test_trivial_modulus_walks_the_relation_basis(monkeypatch):
    """For m = 1 the relation loop takes one cofactor walk per row of
    `hnf_rows` of the closure's relations, a basis of their lattice, and
    hands the closure's rows, unchanged and with no unit rows, to the one
    Smith form it runs, whose group is that of the rows with the zero unit
    rows below them; (O/1)^* takes no Smith form of its own."""
    built, make_group, smith, real_snf = [], quadfield.group_from_relations, [], abgroup.snf

    def recorded_group(rows, n):
        built.append(([list(row) for row in rows], n))
        return make_group(rows, n)

    fields = trivial_modulus_fields()
    monkeypatch.setattr(quadfield, "group_from_relations", recorded_group)
    monkeypatch.setattr(abgroup, "snf", lambda *a, **k: smith.append(a) or real_snf(*a, **k))
    walks = count_cofactor_walks(monkeypatch)
    rows = basis = most = 0
    for K in fields:
        modulus = Modulus(K, ())
        relations = _ray_ideal_gens(K, modulus, class_group(K))[2]
        built.clear()
        walks.clear()
        smith.clear()
        ray = ray_class_group.__wrapped__(K, modulus)
        assert len(walks) == len(hnf_rows(relations)) == ray.n_ideal
        assert built == [(relations, ray.n_ideal)] and len(smith) == 1
        units = [[0] * ray.n_ideal for _ in unit_gens(K)]
        assert make_group(relations + units, ray.n_ideal) == ray.group
        assert ray.unit_image_order == 1
        rows, basis, most = rows + len(relations), basis + len(walks), max(most, ray.n_ideal)
    assert len(fields) > 800 and most >= 5
    assert rows > 3 * basis


@pytest.mark.parametrize("d", [-5, 34, -5565, 15015])
def test_trivial_modulus_refuses_a_non_principal_relation(monkeypatch, d):
    """A closure that also hands over the vector of a non-principal class
    as a relation makes `ray_class_group` raise InvariantError (exit 8) for
    m = 1: that row enlarges the lattice, so some basis row is not
    principal, and its walk never meets [1, w]."""
    K = quadratic_field(d)
    ray_gens = quadfield._ray_ideal_gens

    def with_bad_row(field, modulus, cl):
        gens, table, relations = ray_gens(field, modulus, cl)
        bad = next(vec for vec in table.values() if any(vec))
        return gens, table, relations + [list(bad)]

    monkeypatch.setattr(quadfield, "_ray_ideal_gens", with_bad_row)
    with pytest.raises(InvariantError, match="harvested relation is not principal") as err:
        ray_class_group.__wrapped__(K, Modulus(K, ()))
    assert err.value.exit_code == 8


def test_trivial_modulus_of_a_large_imaginary_field(monkeypatch):
    """Q(sqrt -(10^9+7)) mod 1: Cl = (26629) on the prime above 2, and the
    prime above 3 has coordinate 11106 (both as recorded when P^26629 was
    still built as an ideal of norm 2^26629). The one relation is proved by
    one walk whose products all take reduced operands, a <= sqrt(|D|/3)."""
    K = quadratic_field(-(10**9 + 7))
    class_group(K)
    sizes, compose = [], quadfield._compose

    def recorded(field, I1, I2):
        sizes.extend((I1[1], I2[1]))
        return compose(field, I1, I2)

    monkeypatch.setattr(quadfield, "_compose", recorded)
    walks = count_cofactor_walks(monkeypatch)
    ray = ray_class_group.__wrapped__(K, Modulus(K, ()))
    assert ray.group.invariants == (26629,)
    assert [P.entry() for P in ray.ideal_gens] == [(2, 2, 0, 1)]
    assert len(walks) == 1 and 3 * max(sizes) ** 2 <= -K.D
    assert ray.dlog(factor_prime(K, 3)[1][0][0]) == (11106,)


def _same_ray_generators(K, m):
    """The library's ray generators, closure table (in visiting order) and
    rows against the closure by ideal products; the generator count."""
    modulus = modulus_from_rational(K, m)
    cl = class_group(K)
    gens, table, rows = _ray_ideal_gens(K, modulus, cl)
    want_gens, want_table, want_rows = ray_ideal_gens_by_products(K, modulus, cl.h)
    assert gens == want_gens
    assert list(table.items()) == list(want_table.items())
    assert rows == want_rows
    return len(gens)


def test_ray_generators_match_product_closure_on_corpus():
    """Every fundamental |D| <= 3000 with each m in {1, 3, 5, 7, 15, 21}
    prime to D: the closure on class-group vectors picks the generators,
    visits the classes and harvests the rows that ideal products do."""
    counts = collections.Counter()
    for D in itertools.chain(range(-3, -3001, -1), range(5, 3001)):
        if is_fundamental(D):
            K = quadratic_field(D if D % 4 == 1 else D // 4)
            for m in (1, 3, 5, 7, 15, 21):
                if math.gcd(m, D) == 1:
                    counts[_same_ray_generators(K, m)] += 1
    assert sum(counts.values()) > 8000
    assert counts[2] > 1000 and counts[3] > 500 and max(counts) >= 5


@pytest.mark.parametrize("d,m", [(-1365, 11), (-5565, 1), (-15015, 1), (-30030, 1),
                                 (1365, 13), (15015, 1), (-4199, 13), (3999, 13)])
def test_ray_generators_match_product_closure_noncyclic(d, m):
    """Class groups of 2-rank 2 to 5 beyond the corpus, which take two to
    seven primes."""
    assert _same_ray_generators(quadratic_field(d), m) >= 2


@pytest.mark.parametrize("d,m", [(-5565, 1), (-30030, 1), (15015, 1), (-1365, 11),
                                 (1365, 13), (-4199, 13), (3999, 13)])
def test_ray_generators_close_once(monkeypatch, d, m):
    """`ray_class_group` tests each prime's vector by a lattice index and
    runs `_vector_closure` once, on the final list of two or more primes;
    that list, the closure's table and its rows are the product closure's."""
    closures = []
    closure = quadfield._vector_closure
    monkeypatch.setattr(quadfield, "_vector_closure",
                        lambda cl, vecs: closures.append(len(vecs)) or closure(cl, vecs))
    K = quadratic_field(d)
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, m))
    assert closures == [ray.n_ideal] and ray.n_ideal >= 2
    closures.clear()
    assert _same_ray_generators(K, m) == ray.n_ideal and closures == [ray.n_ideal]


def first_dlog_fill(d, m):
    """A cold ray class group of Q(sqrt d) mod m, and the number of
    entries its memo holds after one dlog of a prime above 3."""
    K = quadratic_field(d)
    class_group(K)  # its own memo is built before any bound moves
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, m))
    ray.dlog(factor_prime(K, 3)[1][0][0])
    return ray, len(ray.vectors)


@pytest.mark.parametrize("d,m", [(34, 1), (34, 7), (79, 1), (79, 5), (-23, 1), (-23, 5)])
def test_ray_memo_is_bounded(monkeypatch, d, m):
    """The ray memo holds at most _MEMO_BOUND reduced ideals, by the same
    check as the class-key memo: a fill that would pass it raises
    BudgetError (exit 6) and leaves the memo as it was."""
    _, size = first_dlog_fill(d, m)
    assert size >= 1 and (size > 1) == (d > 0)
    monkeypatch.setattr(quadfield, "_MEMO_BOUND", size)
    assert len(first_dlog_fill(d, m)[0].vectors) == size
    monkeypatch.setattr(quadfield, "_MEMO_BOUND", size - 1)
    with pytest.raises(BudgetError, match=f"the ray memo would hold more than {size - 1} ") as err:
        first_dlog_fill(d, m)
    assert err.value.exit_code == 6


def test_ray_memo_bound_survives_python_O():
    """The memo bound is raised, not asserted: a `python -O` process stops
    at it for m = 1 and for m = 7."""
    code = (
        "from raycap import quadfield as q\n"
        "from raycap.errors import BudgetError\n"
        "K = q.quadratic_field(34)\n"
        "q.class_group(K)\n"
        "q._MEMO_BOUND = 1\n"
        "for m in (1, 7):\n"
        "    ray = q.ray_class_group(K, q.modulus_from_rational(K, m))\n"
        "    try:\n"
        "        ray.dlog(q.factor_prime(K, 3)[1][0][0])\n"
        "    except BudgetError as e:\n"
        "        print(__debug__, m, e.exit_code, e, len(ray.vectors))\n"
    )
    src = str(Path(quadfield.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    line = "the ray memo would hold more than 1 reduced ideals"
    assert out == f"False 1 6 {line} 0\nFalse 7 6 {line} 0\n"


@pytest.mark.parametrize("walk", [
    lambda K: class_key(QIdeal.unit_ideal(K)),
    lambda K: is_principal_with_generator(factor_prime(K, 3)[1][0][0]),
    lambda K: fundamental_unit.__wrapped__(K),
    fundamental_unit_norm,
], ids=["class_key", "is_principal_with_generator", "fundamental_unit",
        "fundamental_unit_norm"])
def test_cycle_walks_are_bounded(monkeypatch, walk):
    """Q(sqrt 94) has h = 1 and a rho-cycle of 16 reduced ideals, and the
    walk from a prime above 3 meets [1, w] six steps in; a walk that runs
    past the bound stops with BudgetError (exit 6)."""
    K = quadratic_field(94)
    walk(K)
    monkeypatch.setattr(quadfield, "_CYCLE_BOUND", 3)
    with pytest.raises(BudgetError, match="rho cycle failed to close"):
        walk(K)


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 34, 79, 94, 543, 7315, 13, 21, 85, 1001, 4277]),
    region=st.sampled_from(["below", "above", "far"]),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    kind=st.sampled_from(["none", "exact", "local"]),
    m=st.sampled_from([3, 7, 15, 21]),
)
def test_real_reduction_matches_orbit_reference(d, region, picks, kind, m):
    """`_reduce_primitive`'s one loop, whose returned step factors fold
    into each kind of multiplier at once, against the rho walk that moves
    it at every step: the same reduced (a, b) and an equal multiplier, in
    fields with D = 4d and D = d. A local multiplier is the residue
    system's state at the primes of m; the library's fold and the walk's
    `_local_times` give the same state, and the valuation and unit-part
    log that it holds at each prime are those of the exact `Mult` of the
    walk. The ideal is a prime of norm below sqrt(D), or a
    product of split primes (one above each p) grown just past sqrt(D) or
    past D^2, so the walk takes from one to a dozen steps."""
    K = quadratic_field(d)
    primes = [(kind_p, data[0][0]) for p in primes_up_to(300)
              for kind_p, data in [factor_prime(K, p)] if kind_p != "inert"]
    if region == "below":
        small = [P for _, P in primes if P.a**2 < K.D]
        I = small[picks[0] % len(small)]
    else:
        split = [P for kind_p, P in primes if kind_p == "split"]
        I, i = QIdeal.unit_ideal(K), 0
        while I.a**2 <= K.D or (region == "far" and I.a <= K.D**2):
            I, i = I * split[picks[i % len(picks)] % len(split)], i + 1
    residue = residue_system(K, modulus_from_rational(K, m))
    mult = {
        "none": None,
        "exact": Mult(K.elt(1 + picks[0] % 7, picks[-1] % 3), 1 + len(picks)),
        "local": LocalMult(residue),
    }[kind]
    a, b, steps = _reduce_primitive(K, I.a, I.b)
    want = reduce_real_by_orbit(K, I.a, I.b, mult)
    assert (a, b) == want[:2]
    if kind == "none":
        assert want[2] is None
    elif kind == "exact":
        got = mult.fold(steps)
        assert (got.num, got.den) == (want[2].num, want[2].den)
    else:
        got = residue.fold(residue.one, steps)
        exact = reduce_real_by_orbit(K, I.a, I.b, Mult(K.elt(1, 0), 1))[2]
        for F, st, ref in zip(residue.factors, got, want[2].state, strict=True):
            assert local_value(F, st) == local_value(F, ref) == exact_local_value(F, exact)
        assert got == want[2].state


def test_reduction_keeps_the_norm_zero_check():
    """A "field" with square D = 16 (built past `quadratic_field`'s check)
    meets c = 0 at [5, 2 + w]: the rho step raises rather than divide."""
    K = QuadField(4)
    for reduce in (_reduce_primitive, reduce_real_by_orbit):
        with pytest.raises(InvariantError, match="norm-zero"):
            reduce(K, 5, 2)


@pytest.mark.parametrize("d,m", [(34, 1), (543, 11), (7315, 3), (70, 13), (595, 33)])
def test_prime_entry_matches_dlog_and_reference(d, m):
    """The scan's entry `dlog_prime(p, root)`, `dlog` of the ideal that
    `prime_above_from_root` builds, and the reference vector's class agree
    on both primes above every split p <= 2*10^4 prime to m; a p that
    divides N(m) is refused."""
    K = quadratic_field(d)
    ray = ray_class_group.__wrapped__(K, modulus_from_rational(K, m))
    count = 0
    for p in primes_up_to(2 * 10**4):
        if p == 2 or m % p == 0 or kronecker(K.D, p) != 1:
            continue
        r = sqrt_mod(K.D, p)
        for root in (r, p - r):
            P = prime_above_from_root(K, p, root)
            want = ray.group.dlog_ambient(reference_ambient_vector(ray, P))
            assert ray.dlog_prime(p, root) == ray.dlog(P) == want
            count += 1
    assert count > 2000
    for p in {q.entry()[0] for q in ray.modulus.primes}:
        with pytest.raises(InputError, match="not coprime"):
            ray.dlog_prime(p, sqrt_mod(K.D, p) or 0)


class TestAugUnit:
    def test_trivial_modulus(self):
        K = quadratic_field(2)
        eps = aug_unit_data(K, Modulus(K, ()))[0]
        assert eps == K.elt(3, 2)  # (1+sqrt2)^2, norm +1
        K34 = quadratic_field(34)
        eps34 = aug_unit_data(K34, Modulus(K34, ()))[0]
        assert eps34 == K34.elt(35, 6)

    def test_mod_7(self):
        K = quadratic_field(2)
        eps = aug_unit_data(K, modulus_from_rational(K, 7))[0]
        assert eps == (K.elt(3, 2)) ** 3
        assert eps.norm() == 1
        ray = ray_class_group(K, modulus_from_rational(K, 7))
        assert all(v == 0 for v in ray.residue.dlog(eps))

    def test_inverted_by_conjugation(self):
        for d, m in [(2, 7), (5, 11), (34, 1)]:
            K = quadratic_field(d)
            eps = aug_unit_data(K, modulus_from_rational(K, m))[0]
            assert eps * eps.conj() == K.elt(1, 0)

    def test_minimality(self):
        K = quadratic_field(2)
        m = modulus_from_rational(K, 7)
        eps = aug_unit_data(K, m)[0]
        # no smaller power of u^2 is 1 mod 7
        ray = ray_class_group(K, m)
        base = K.elt(3, 2)
        acc = base
        k = 1
        while acc != eps:
            assert any(ray.residue.dlog(acc))
            acc = acc * base
            k += 1
        assert k == 3

    def test_imaginary_rejected(self):
        K = quadratic_field(-1)
        with pytest.raises(InputError):
            aug_unit_data(K, Modulus(K, ()))

    def test_ray_group_and_unit_take_one_smith_form(self, monkeypatch):
        """With class_group(K) cached, ray_class_group(K, 7) and
        aug_unit_data of Q(sqrt 2543) take one Smith form, the ray class
        group's: the unit image and the unit's order are read off HNF
        pivots in the residue factors' coordinates (`image_order`)."""
        K = quadratic_field(2543)
        m = modulus_from_rational(K, 7)
        class_group(K)
        ray_class_group.cache_clear()
        smith, real_snf = [], abgroup.snf
        monkeypatch.setattr(abgroup, "snf", lambda *a, **k: smith.append(a) or real_snf(*a, **k))
        ray = ray_class_group(K, m)
        eps, k = aug_unit_data(K, m)
        assert len(smith) == 1 and ray.unit_image_order > 1
        assert not any(ray.residue.dlog(eps)) and eps.norm() == 1 and k == 1
