"""Tests for split criteria, residue characters, and the condition checker."""
import pytest
from hypothesis import given, strategies as st

from raycap.capsearch import _candidate_stream, _scan_range
from raycap.errors import InputError
from raycap.exactmath import kronecker, primes_up_to, sqrt_mod
from raycap.kummerfrob import (
    ConditionChecker,
    SearchParams,
    h_K_constant,
    is_split_cyclotomic,
    prime_above_from_root,
    residue_character,
)
from raycap.quadfield import (
    Modulus,
    QElt,
    is_prime_ideal,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
)


def disc_root_pair(D: int, p: int) -> tuple[int, int]:
    """The two square roots of D mod p, (smaller, larger), for p split in K."""
    r = sqrt_mod(D, p)
    assert r, f"{p} does not split"
    return min(r, p - r), max(r, p - r)


def count_roots_of_unity(p: int, k: int) -> int:
    """Brute count of solutions to x^k = 1 in F_p."""
    return sum(1 for x in range(1, p) if pow(x, k, p) == 1)


class TestSplitCyclotomic:
    def test_examples(self):
        # 3 has order 16 mod 17, so 17 = 1 mod 16 and the sqrt-units layer splits
        assert is_split_cyclotomic(17, 2, 3, includes_sqrt_units=True) is True
        assert is_split_cyclotomic(41, 2, 3, includes_sqrt_units=True) is False
        assert is_split_cyclotomic(41, 2, 3, includes_sqrt_units=False) is True
        assert is_split_cyclotomic(13, 2, 3, includes_sqrt_units=False) is False
        assert is_split_cyclotomic(13, 3, 1, includes_sqrt_units=False) is True

    def test_against_root_count(self):
        # split in the cyclotomic layer iff x^(l^n) - 1 has the full root count
        for p in primes_up_to(400):
            for ell, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
                if p == ell:
                    continue
                expect = count_roots_of_unity(p, ell**n) == ell**n
                assert is_split_cyclotomic(p, ell, n, includes_sqrt_units=False) == expect

    def test_sqrt_units_layer_is_root_count_one_level_up(self):
        for p in primes_up_to(400):
            for n in (1, 2, 3):
                if p == 2:
                    continue
                expect = count_roots_of_unity(p, 2 ** (n + 1)) == 2 ** (n + 1)
                assert is_split_cyclotomic(p, 2, n, includes_sqrt_units=True) == expect

    def test_nonprime_rejected(self):
        assert is_split_cyclotomic(15, 2, 1, includes_sqrt_units=False) is False


class TestDiscRoots:
    def test_flagship_pair(self):
        K = quadratic_field(34)
        assert disc_root_pair(K.D, 5) == (1, 4)

    @given(st.sampled_from([2, 3, 5, 7, 10, 13, 15, 34, -1, -5, -14]))
    def test_roots_square_to_disc(self, d):
        K = quadratic_field(d)
        for p in primes_up_to(100):
            if p == 2 or K.D % p == 0 or kronecker(K.D, p) != 1:
                continue
            r1, r2 = disc_root_pair(K.D, p)
            assert 0 <= r1 < r2 < p and (r1 + r2) % p == 0
            assert (r1 * r1 - K.D) % p == 0

    def test_prime_above_is_prime_of_norm_p(self):
        K = quadratic_field(34)
        for p in (5, 13, 29, 37):
            if kronecker(K.D, p) != 1:
                continue
            r, _ = disc_root_pair(K.D, p)
            P = prime_above_from_root(K, p, r)
            assert is_prime_ideal(P) and P.norm() == p
            assert P.contains(QElt(K, p, 0))


class TestResidueCharacter:
    def test_hand_value(self):
        # d=2, p=7: root 1 of x^2 = 8 sends sqrt(2) to 4, so 1+sqrt(2) -> 5,
        # and 5^3 = 6 = -1 mod 7: quadratic character value -1, order 2
        K = quadratic_field(2)
        eta = QElt(K, 1, 1)
        c, order = residue_character(eta, 7, 2, 1, root=1)
        assert (c, order) == (6, 2)

    def test_flagship_eps_character(self):
        K = quadratic_field(34)
        eps = QElt(K, 35, 6)  # fundamental unit, norm +1
        c, order = residue_character(eps, 5, 2, 1, root=1)
        assert (c, order) == (4, 2)

    def test_multiplicative(self):
        K = quadratic_field(34)
        p, root = 29, disc_root_pair(K.D, 29)[0]
        xs = [QElt(K, 1, 1), QElt(K, 2, 1), QElt(K, 3, 2), QElt(K, 35, 6)]
        for a in xs:
            for b in xs:
                ca, _ = residue_character(a, p, 2, 1, root)
                cb, _ = residue_character(b, p, 2, 1, root)
                cab, _ = residue_character(a * b, p, 2, 1, root)
                assert cab == ca * cb % p

    def test_powers_are_killed(self):
        K = quadratic_field(34)
        p, root = 29, disc_root_pair(K.D, 29)[0]
        for x, y in ((1, 1), (3, 1), (5, 2), (35, 6)):
            sq = QElt(K, x, y) * QElt(K, x, y)
            c, order = residue_character(sq, p, 2, 1, root)
            assert c == 1 and order == 1

    def test_order_divides_ell_power(self):
        K = quadratic_field(5)
        for p in (11, 31, 41):
            root = disc_root_pair(K.D, p)[0]
            c, order = residue_character(QElt(K, 1, 1), p, 5, 1, root)
            assert pow(c, order, p) == 1 and order in (1, 5)


class TestHKConstant:
    @pytest.mark.parametrize(
        "d,ell,expect",
        [
            (34, 2, 2),
            (2, 2, 1),
            (10, 2, 2),
            (15, 2, 1),
            (-1, 2, 2),
            (-6, 2, 2),
            (-3, 3, 1),
            (5, 3, 0),
            (3, 2, 1),
            (7, 2, 1),
            (-3, 2, 1),
            (7, 5, 0),
        ],
    )
    def test_table(self, d, ell, expect):
        assert h_K_constant(quadratic_field(d), ell)["h_K"] == expect

    def test_fields_reported(self):
        row = h_K_constant(quadratic_field(34), 2)
        assert row["h_K"] == row["mu_exponent"] + row["layer_exponent"]
        assert row["ell"] == 2


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(InputError):
            SearchParams(4, 1)
        with pytest.raises(InputError):
            SearchParams(2, 0)
        with pytest.raises(InputError):
            SearchParams(2, 1, h=1)
        with pytest.raises(InputError):
            SearchParams(2, 2, h=-1)

    def test_effective_h_defaults_to_clamped_h_K(self):
        assert SearchParams(2, 1).effective_h(2) == 0
        assert SearchParams(2, 2).effective_h(2) == 1
        assert SearchParams(2, 3).effective_h(2) == 2
        assert SearchParams(2, 3).effective_h(0) == 0
        assert SearchParams(2, 2, h=0).effective_h(2) == 0


class TestConditionChecker:
    def test_flagship_accepts_5(self):
        K = quadratic_field(34)
        chk = ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1))
        assert chk.h_K == 2 and chk.h == 0
        assert chk.iv_ok and chk.iii_attainable
        rep = chk.check(5)
        assert rep.ok and rep.failed_at is None
        assert rep.root == 1
        assert rep.checks["eps_character"] == {"value": 4, "order": 2}
        assert rep.checks["minus_one_character"] == {"value": 1, "order": 1}

    def test_flagship_rejections(self):
        K = quadratic_field(34)
        chk = ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1))
        rep13 = chk.check(13)  # 136 is a non-residue mod 13
        assert not rep13.ok and rep13.failed_at == "i"
        rep89 = chk.check(89)  # splits and is 1 mod 8, but p_K is principal
        assert not rep89.ok and rep89.failed_at == "ii"

    def test_forbidden_inputs(self):
        K = quadratic_field(34)
        chk = ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1))
        assert chk.forbidden(2) and chk.forbidden(17)
        assert not chk.forbidden(5)
        with pytest.raises(InputError):
            chk.check(17)

    def test_norm_minus_one_blocks_character_at_h0(self):
        # d=10: fundamental unit 3+sqrt(10) has norm -1, so eps = u^2 and the
        # quadratic character of eps can never have order 2
        K = quadratic_field(10)
        chk = ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1))
        assert chk.eps_unit_exponent == 2
        assert not chk.iii_attainable

    def test_imaginary_field_rejected(self):
        K = quadratic_field(-5)
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1))

    def test_modulus_must_avoid_ell(self):
        K = quadratic_field(34)
        m = modulus_from_rational(K, 2)
        with pytest.raises(InputError):
            ConditionChecker(K, m, (1,), SearchParams(2, 1))

    def test_target_must_have_ell_power_order(self):
        K = quadratic_field(34)
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(3, 1))

    @pytest.mark.parametrize("target", [(), (1, 0)])
    def test_target_length_must_match_the_group(self, target):
        K = quadratic_field(34)  # Cl^m = Z/2 for the trivial modulus
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus.trivial(K), target, SearchParams(2, 1))

    @pytest.mark.parametrize("d,m", [(34, 1), (543, 11), (70, 13), (595, 33), (7315, 3)])
    def test_sieved_check_matches_full_check(self, d, m):
        """check(p, sieved=True) skips the primality and forbidden tests and
        takes condition (i) and the root from one square root; on every
        sieved candidate p <= 2*10^4 its report equals the full check's in
        every field (ok, failed_at, root, checks), and `decide`, which the
        scan calls alone, gives the report's (failed_at, root). The scan's
        counters equal those of a loop over `check`."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, 2 * 10**4))
        seen = set()
        want = {"scanned": 0, "rejected_i": 0, "rejected_ii": 0, "rejected_iii": 0}
        for p in _candidate_stream(chk, 3, 2 * 10**4):
            sieved = chk.check(p, sieved=True)
            assert sieved == chk.check(p)
            assert chk.decide(p, True) == chk.decide(p) == (sieved.failed_at, sieved.root)
            seen.add(sieved.failed_at)
            want["scanned"] += 1
            want[f"rejected_{sieved.failed_at}"] += 1
        assert {"i", "ii"} <= seen
        assert _scan_range(chk, 3, 2 * 10**4) == (None, want)

    def test_flagship_prime_passes(self):
        K = quadratic_field(34)
        rep = ConditionChecker(K, Modulus.trivial(K), (1,), SearchParams(2, 1)).check(5)
        assert rep.ok and rep.p == 5
