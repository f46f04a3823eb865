"""Field, ideal, class group, and ray class group tests.

Class numbers are checked against an independent reduced-forms enumeration
(imaginary case) and a brute Pell solver (units), so none of the reduction
machinery is trusted twice.
"""
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    Mult,
    analytic_class_number,
    divide_exact,
    group_add,
    hnf_ideal,
    is_ray_principal,
    principal_ideal,
    reduce_real_by_orbit,
    smallest_prime_factors,
)
from raycap import quadfield
from raycap.errors import BudgetError, InputError, InvariantError
from raycap.exactmath import kronecker, primes_up_to, sqrt_mod, squarefree_part
from raycap.kummerfrob import prime_above_from_root
from raycap.quadfield import (
    Modulus,
    QElt,
    QIdeal,
    QuadField,
    _LocalMult,
    _ray_ideal_gens,
    _reduce_primitive,
    _candidate_primes,
    _coset_closure,
    _generates,
    aug_unit_data,
    class_group,
    class_key,
    factor_prime,
    fundamental_unit,
    is_prime_ideal,
    is_principal_with_generator,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
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

    @pytest.mark.parametrize("d", [-21, -30, -1999, -4199, 82, 145, 3999])
    def test_dlog_additive_on_generator_products(self, d):
        K = quadratic_field(d)
        cl = ray_class_group(K, Modulus.trivial(K))
        gens = list(itertools.islice(_candidate_primes(K), 8))
        for i, P in enumerate(gens):
            for Q in gens[i:]:
                assert cl.dlog(P * Q) == group_add(cl.group, cl.dlog(P), cl.dlog(Q))

    def test_dlog_is_homomorphism(self):
        K = quadratic_field(-21)
        cl = ray_class_group(K, Modulus.trivial(K))
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
            ray = ray_class_group(K, Modulus.trivial(K))
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
            assert ray.dlog(principal_ideal(z)) == ray.class_of_principal(z)

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
        ray = ray_class_group(K, Modulus.trivial(K))
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
    for (a, b), vec in cold.vectors.items():
        R = QIdeal(K, 1, a, b)
        assert vec == group.dlog_ambient(reference_ambient_vector(cold, R))
    if K.is_real:  # a miss stores whole cycles, not just the reduced ideal
        assert len(cold.vectors) > len({class_key(I) for I in ideals})


def count_cofactor_walks(monkeypatch):
    """Count the cofactor walks (`_cofactor_residue`) from now on."""
    calls = []
    walk = quadfield._cofactor_residue

    def counted(I, *args):
        calls.append(I)
        return walk(I, *args)

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
        if all(math.gcd(a, m) > 1 for a, *_ in quadfield._class_cycle(
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
    into a multiplier or forms the exact product, not even the cofactor
    walk of a memo miss."""
    K = quadratic_field(d)
    ideals = query_ideals(K, 1, 12)
    ray = ray_class_group.__wrapped__(K, Modulus.trivial(K))
    want = [ray.group.dlog_ambient(reference_ambient_vector(ray, I)) for I in ideals]
    assert ray.one is None

    def forbidden(*args):
        raise AssertionError("a query built a multiplier")

    monkeypatch.setattr(quadfield, "_steps_product", forbidden)
    monkeypatch.setattr(quadfield, "_LocalMult", forbidden)
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
    assert all(a % 3 for a, _ in ray.vectors)


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
    for (a, b), vec in ray.vectors.items():
        R = QIdeal(K, 1, a, b)
        assert vec == ray.group.dlog_ambient(reference_ambient_vector(ray, R))
    assert any(a % p == 0 for a, _ in ray.vectors) == (d != -5)


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
        ray_class_group.__wrapped__(L, Modulus.trivial(L))


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

    def recorded_group(rows, labels):
        built.append((rows, labels))
        return make_group(rows, labels)

    def recorded_walk(*args):
        walks.append((args, walk(*args)))
        return walks[-1][1]

    monkeypatch.setattr(quadfield, "group_from_relations", recorded_group)
    monkeypatch.setattr(quadfield, "_cofactor_residue", recorded_walk)
    ray = ray_class_group.__wrapped__(K, modulus)
    rows = next(rows for rows, labels in built if labels == ray.group.labels)
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
    for (I, gens, v, residue, _), got in walks:
        want, g = element_residue_part(I, gens, v, residue)
        assert got == want
        contents.add(g > 1)
    assert contents == {False, True}


@pytest.mark.parametrize("walk", [
    lambda K: class_key(QIdeal.unit_ideal(K)),
    lambda K: is_principal_with_generator(factor_prime(K, 3)[1][0][0]),
    lambda K: fundamental_unit.__wrapped__(K),
], ids=["class_key", "is_principal_with_generator", "fundamental_unit"])
def test_cycle_walks_are_bounded(monkeypatch, walk):
    """Q(sqrt 94) has h = 1 and a rho-cycle of 16 reduced ideals, and the
    walk from a prime above 3 meets [1, w] six steps in; a walk that runs
    past the bound stops with BudgetError (exit 6)."""
    K = quadratic_field(94)
    walk(K)
    monkeypatch.setattr(quadfield, "_CYCLE_BOUND", 3)
    with pytest.raises(BudgetError, match="rho cycle failed to close"):
        walk(K)


def _mult_value(mult):
    """What a multiplier stands for: the exact num/den of a `Mult`, the
    local data of a `_LocalMult`."""
    if mult is None:
        return None
    return (mult.num, mult.den) if isinstance(mult, Mult) else mult.state


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
    fields with D = 4d and D = d. The ideal is a prime of norm below sqrt(D), or a
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
    mult = {
        "none": None,
        "exact": Mult(K.elt(1 + picks[0] % 7, picks[-1] % 3), 1 + len(picks)),
        "local": _LocalMult.one(K, modulus_from_rational(K, m)),
    }[kind]
    a, b, steps = _reduce_primitive(K, I.a, I.b)
    want = reduce_real_by_orbit(K, I.a, I.b, mult)
    assert (a, b) == want[:2]
    assert _mult_value(None if mult is None else mult.fold(steps)) == _mult_value(want[2])


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
        eps = aug_unit_data(K, Modulus.trivial(K))[0]
        assert eps == K.elt(3, 2)  # (1+sqrt2)^2, norm +1
        K34 = quadratic_field(34)
        eps34 = aug_unit_data(K34, Modulus.trivial(K34))[0]
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
            aug_unit_data(K, Modulus.trivial(K))
