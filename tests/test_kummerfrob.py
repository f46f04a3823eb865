"""Tests for split criteria, residue characters, the genus prefilter and
the condition checker."""
import functools
import math

import pytest
from hypothesis import given, strategies as st

from raycap import kummerfrob
from raycap.capsearch import find_principalizing_prime
from raycap.errors import InputError
from raycap.exactmath import (factor, kronecker, primes_up_to, progression_flags, sqrt_mod,
                              squarefree_part, valuation)
from raycap.kummerfrob import (
    ConditionChecker,
    SearchParams,
    h_K_constant,
    is_split_cyclotomic,
    prime_discriminants,
    residue_character,
)
from raycap.quadfield import (
    Modulus,
    QElt,
    RayClassData,
    aug_unit_data,
    fundamental_unit,
    is_prime_ideal,
    modulus_from_rational,
    prime_above_from_root,
    quadratic_field,
    ray_class_group,
)

from oracles import group_elements, reference_decide


def disc_root_pair(D: int, p: int) -> tuple[int, int]:
    """The two square roots of D mod p, (smaller, larger), for p split in K."""
    r = sqrt_mod(D, p)
    assert r, f"{p} does not split"
    return min(r, p - r), max(r, p - r)


def verdict(chk: ConditionChecker, p: int) -> tuple[str | None, int | None]:
    """(failed_at, root) at a candidate p (`candidates`) as the scan decides
    it: the prefilter built (`build_prefilter`), then `_decide(p, _code(p))`.
    root is None when none was taken (see `_decide`)."""
    chk.build_prefilter()
    return chk._decide(p, chk._code(p))


def count_roots_of_unity(p: int, k: int) -> int:
    """Brute count of solutions to x^k = 1 in F_p."""
    return sum(1 for x in range(1, p) if pow(x, k, p) == 1)


class TestSplitCyclotomic:
    def test_examples(self):
        # 3 has order 16 mod 17, so 17 = 1 mod 16 and the sqrt-units layer splits
        assert is_split_cyclotomic(17, 2, 3) is True
        # 41 = 1 mod 8 splits Q(zeta_8) but not the 8th roots of -1
        assert is_split_cyclotomic(41, 2, 3) is False
        assert is_split_cyclotomic(41, 2, 2) is True
        assert is_split_cyclotomic(13, 3, 1) is True
        assert is_split_cyclotomic(13, 3, 2) is False
        assert is_split_cyclotomic(3, 3, 1) is False

    def test_against_root_count(self):
        # for odd ell, -1 is its own ell^n-th root, so the layer is
        # Q(zeta_{ell^n}): split iff x^(l^n) - 1 has the full root count
        for p in primes_up_to(400):
            for ell, n in ((3, 1), (3, 2), (5, 1), (7, 1)):
                if p == ell:
                    continue
                expect = count_roots_of_unity(p, ell**n) == ell**n
                assert is_split_cyclotomic(p, ell, n) == expect

    def test_sqrt_units_layer_is_root_count_one_level_up(self):
        for p in primes_up_to(400):
            for n in (1, 2, 3):
                if p == 2:
                    continue
                expect = count_roots_of_unity(p, 2 ** (n + 1)) == 2 ** (n + 1)
                assert is_split_cyclotomic(p, 2, n) == expect

    def test_nonprime_rejected(self):
        # 25 = 1 mod 4 and 49 = 1 mod 3 meet the congruence but are not prime
        for p, ell in ((15, 2), (25, 2), (49, 3), (1, 2), (0, 3), (-3, 2)):
            assert is_split_cyclotomic(p, ell, 1) is False


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
        chk = ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1))
        assert chk.h_K == 2 and chk.h == 0
        assert chk.iv_ok and chk.iii_attainable
        rep = chk.check(5)
        assert rep.ok and rep.failed_at is None
        assert rep.root == 1
        assert rep.eps_character == {"value": 4, "order": 2}
        assert rep.minus_one_character == {"value": 1, "order": 1}

    def test_flagship_rejections(self):
        K = quadratic_field(34)
        chk = ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1))
        rep13 = chk.check(13)  # 136 is a non-residue mod 13
        assert not rep13.ok and rep13.failed_at == "i"
        rep89 = chk.check(89)  # splits and is 1 mod 8, but p_K is principal
        assert not rep89.ok and rep89.failed_at == "ii"

    def test_forbidden_inputs(self):
        K = quadratic_field(34)
        chk = ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1))
        assert chk.forbidden(2) and chk.forbidden(17)
        assert not chk.forbidden(5)
        with pytest.raises(InputError):
            chk.check(17)

    def test_norm_minus_one_blocks_character_at_h0(self):
        # d=10: fundamental unit 3+sqrt(10) has norm -1, so eps = u^2 and the
        # quadratic character of eps can never have order 2
        K = quadratic_field(10)
        chk = ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1))
        assert chk.eps_unit_exponent == 2
        assert not chk.iii_attainable

    def test_imaginary_field_rejected(self):
        K = quadratic_field(-5)
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1))

    def test_modulus_must_avoid_ell(self):
        K = quadratic_field(34)
        m = modulus_from_rational(K, 2)
        with pytest.raises(InputError):
            ConditionChecker(K, m, (1,), SearchParams(2, 1))

    def test_target_must_have_ell_power_order(self):
        K = quadratic_field(34)
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(3, 1))

    @pytest.mark.parametrize("target", [(), (1, 0)])
    def test_target_length_must_match_the_group(self, target):
        K = quadratic_field(34)  # Cl^m = Z/2 for the trivial modulus
        with pytest.raises(InputError):
            ConditionChecker(K, Modulus(K, ()), target, SearchParams(2, 1))

    @pytest.mark.parametrize("d,m", [(34, 1), (543, 11), (70, 13), (595, 33), (7315, 3)])
    def test_sieved_check_matches_full_check(self, d, m):
        """On every candidate p <= 2*10^4 of the checker's sieve, check(p),
        which tests primality and the congruence itself, reports the
        verdict of `verdict`, the scan's decision at a candidate, and the
        root of `verdict` or, for a prefilter rejection, the smaller square
        root of D; both are those of `reference_decide`. The scan's counters equal
        those of a loop over `check`."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, 2 * 10**4))
        seen = set()
        want = {"scanned": 0, "rejected_i": 0, "rejected_ii": 0, "rejected_iii": 0}
        for p in chk.candidates(3, 2 * 10**4):
            rep = chk.check(p)
            failed_at, root = verdict(chk, p)
            assert failed_at == rep.failed_at and root in (rep.root, None)
            assert (rep.failed_at, rep.root) == reference_decide(chk, p)
            seen.add(rep.failed_at)
            want["scanned"] += 1
            want[f"rejected_{rep.failed_at}"] += 1
        assert {"i", "ii"} <= seen
        assert chk.scan(3, 2 * 10**4) == (None, want)

    @pytest.mark.parametrize("d,m", [(34, 1), (543, 11), (70, 13)])
    @pytest.mark.parametrize("ell,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_candidates_match_trial_division(self, d, m, ell, n):
        """candidates(lo, hi) is every p in [lo, hi] that trial division
        proves prime, with p = 1 mod 2^(n+1) for ell = 2 and mod ell^n
        otherwise, and p prime to 2 * ell * D * N(m); in ascending order,
        from lo below 3, above 3 or past hi (empty) alike."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(ell, n, 0, 3000))
        step = 2 ** (n + 1) if ell == 2 else ell**n
        bad = 2 * ell * K.D * modulus.norm()

        def reference(lo, hi):
            return [
                p for p in range(max(lo, 2), hi + 1)
                if all(p % q for q in range(2, math.isqrt(p) + 1))
                and (p - 1) % step == 0 and bad % p
            ]

        for lo, hi in [(-3, 3000), (3, 3000), (4, 2000), (1000, 3000), (1201, 1201),
                       (2000, 1000), (3000, 3)]:
            assert list(chk.candidates(lo, hi)) == reference(lo, hi), (lo, hi)

    @pytest.mark.parametrize("d,m,ell", [(34, 1, 2), (543, 11, 2), (70, 13, 2), (595, 1, 3)])
    def test_check_takes_every_integer(self, d, m, ell):
        """check(p) on every integer in [-3, 3000]: InputError exactly when
        `forbidden` (p < 3, p = ell, or p dividing D or N(m)); else, for
        a prime, `reference_decide`'s verdict and root, and for 0 < p not
        prime, a failure of (i') with no root."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(ell, 1, 0, 3000))
        refused = verdicts = 0
        for p in range(-3, 3001):
            if chk.forbidden(p):
                with pytest.raises(InputError, match="coprimality"):
                    chk.check(p)
                refused += 1
                continue
            rep = chk.check(p)
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                assert (rep.failed_at, rep.root) == reference_decide(chk, p), p
                verdicts += rep.failed_at != "i"
            else:
                assert rep == kummerfrob.ConditionReport(p=p, root=None, failed_at="i"), p
        divisors = {q for q in range(3, 3001) if K.D % q == 0 or modulus.norm() % q == 0}
        assert refused == 6 + len(divisors | {ell} - {2})
        assert verdicts > 0

    def test_flagship_prime_passes(self):
        K = quadratic_field(34)
        rep = ConditionChecker(K, Modulus(K, ()), (1,), SearchParams(2, 1)).check(5)
        assert rep.ok and rep.p == 5


def ell_power_targets(group, ell: int):
    """Every element of `group` whose order is a power of ell."""
    for t in group_elements(group):
        o = group.element_order(t)
        while o % ell == 0:
            o //= ell
        if o == 1:
            yield t


def corpus_fields():
    """(K, modulus) for real squarefree d < 300 and the moduli 1, 3, 7 and
    15 where prime to D."""
    for d in range(2, 300):
        if squarefree_part(d) != d:
            continue
        K = quadratic_field(d)
        for m in (1, 3, 7, 15):
            if math.gcd(m, K.D) == 1:
                yield K, modulus_from_rational(K, m)


def assert_decides_as_reference(
    chk: ConditionChecker, bound: int, every_check: bool = True
) -> tuple[int, int]:
    """`verdict` and `check` against `reference_decide` on every scan
    candidate up to bound: `verdict` gives the same verdict and either the
    same root or None when it took none; `check` reports the same verdict
    and root, on every candidate or only on those where `verdict`'s root is
    None. Returns (candidates, prefilter rejections of (ii), those of them
    whose signature the filter allows, so that its norm part decides)."""
    seen = rejected = by_norm = 0
    chk.build_prefilter()
    genus = chk.genus
    for p in chk.candidates(3, bound):
        want = reference_decide(chk, p)
        failed_at, root = verdict(chk, p)
        assert failed_at == want[0], p
        assert root in (None, want[1]), p
        if root is None or every_check:
            rep = chk.check(p)
            assert (rep.failed_at, rep.root) == want, p
        if root is None and failed_at == "ii":
            rejected += 1
            by_norm += signature(genus, p) in genus.allowed
        seen += 1
    return seen, rejected, by_norm


class TestGenusPrefilter:
    """The genus prefilter decides (ii) for split candidates whose genus
    signature no prime of the target ray class can have. Every verdict and
    every root stays that of `reference_decide`, which reads no genus
    character."""

    @pytest.mark.parametrize("D,expect", [
        (5, [5]),
        (12, [-3, -4]),
        (24, [-3, -8]),
        (40, [5, 8]),
        (60, [-3, -4, 5]),
        (105, [-3, 5, -7]),
        (120, [-3, 5, -8]),
        (136, [8, 17]),
    ])
    def test_prime_discriminants(self, D, expect):
        assert prime_discriminants(D) == expect

    def test_prime_discriminants_multiply_to_the_discriminant(self):
        for d in range(2, 3000):
            if squarefree_part(d) != d:
                continue
            D = quadratic_field(d).D
            ds = prime_discriminants(D)
            assert math.prod(ds) == D
            for x in ds:
                assert x in (-4, 8, -8) or (x % 4 == 1 and squarefree_part(abs(x)) == abs(x))
            assert all(math.gcd(x, y) == 1 for i, x in enumerate(ds) for y in ds[i + 1:])

    def test_corpus_matches_reference(self):
        """Real squarefree d < 300, moduli 1, 3, 7 and 15 where prime to
        D, ell = 2 and 3 (ell = 3 only off 3 | m), n = 1 and 2, every
        ell-power target, candidates up to 400."""
        cases = active = candidates = rejected = by_norm = 0
        for K, modulus in corpus_fields():
            group = ray_class_group(K, modulus).group
            for ell in (2, 3):
                if modulus.norm() % ell == 0:
                    continue
                for target in ell_power_targets(group, ell):
                    for n in (1, 2):
                        chk = ConditionChecker(K, modulus, target, SearchParams(ell, n, 0, 400))
                        seen, dropped, by_key = assert_decides_as_reference(chk, 400, False)
                        cases += 1
                        active += chk.genus is not None
                        candidates += seen
                        rejected += dropped
                        by_norm += by_key
        # the prefilter takes part: it is built for 7,170 of the 7,646
        # cases (3,828 by the signature alone) and decides 69,988 of the
        # 190,758 candidates (24,967); on the fields with a modulus its norm
        # part decides 45,021 of them, whose signature it allows
        assert active > cases // 3
        assert rejected > candidates // 10
        assert by_norm > 0

    @pytest.mark.parametrize("d,m,what", [
        (105, 1, "norm_two_generator"),
        (105, 11, "norm_two_generator"),
        (165, 1, "ramified_generator"),
        (15, 7, "ramified_generator"),
        (130, 1, "unit_norm_minus_one"),
        (10, 3, "unit_norm_minus_one"),
        (15, 1, -4),
        (34, 1, 8),
        (30, 7, -8),
    ])
    def test_edge_fields_match_reference(self, d, m, what):
        """Named fields for the prefilter's edge conditions: D = 1 mod 8
        with a generator prime of norm 2, a ramified generator prime, a
        fundamental unit of norm -1, and the even prime discriminants -4, 8
        and -8; candidates up to 2*10^4 for every 2-power target, n = 1
        and 2."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        ray = ray_class_group(K, modulus)
        norms = [P.norm() for P in ray.ideal_gens]
        holds = {
            "norm_two_generator": K.D % 8 == 1 and 2 in norms,
            "ramified_generator": any(K.D % q == 0 for q in norms),
            "unit_norm_minus_one": fundamental_unit(K).norm() == -1,
        }
        assert holds[what] if isinstance(what, str) else what in prime_discriminants(K.D)
        rejected = 0
        for target in ell_power_targets(ray.group, 2):
            for n in (1, 2):
                chk = ConditionChecker(K, modulus, target, SearchParams(2, n, 0, 2 * 10**4))
                rejected += assert_decides_as_reference(chk, 2 * 10**4)[1]
        assert rejected > 0

    def test_characters_past_the_table_limit_stay_out(self, monkeypatch):
        """d = 7315 mod 3: D = -4 * 5 * -7 * -11 * -19. With the table limit
        at 5 only the characters of -4 and 5 are kept; the filter is
        weaker and every decision still that of the reference."""
        monkeypatch.setattr(kummerfrob, "GENUS_TABLE_LIMIT", 5)
        K = quadratic_field(7315)
        modulus = modulus_from_rational(K, 3)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, 2 * 10**4))
        chk.build_prefilter()
        assert [(i, m) for i, m, _ in chk.genus.chars] == [(0, 4), (1, 5)]
        assert assert_decides_as_reference(chk, 2 * 10**4)[1] > 0

    def test_scan_takes_roots_and_ray_classes_only_past_the_prefilter(self, monkeypatch):
        """Scans to 2*10^5 at ell^n = 2 with their counters pinned. d = 34,
        trivial modulus, class 0: D = 8 * 17, the class group has order 2
        and the genus character (8 / .) is exact on it, so the split
        candidates it passes are those in the class, and the scan takes no
        square root and no ray class lookup: (iii) is the Legendre symbol
        of N(1 + eps) = 72. d = 543 mod 11, class (0, 0): the ray class
        group (2, 10) is ray-exact, since the key (sigma, p mod 11) tells
        its 20 classes apart modulo (s, -1), so it takes none either.
        d = 7315 mod 3, class 0: the ray class group (2, 2, 2, 4) is not
        ray-exact, and each split candidate the key passes takes one square
        root and one lookup, whose root (iii) does not need."""
        calls = {"sqrt_mod": 0, "dlog_prime": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        bound = 2 * 10**5
        for d, m, target, exact, stats in [
            (34, 1, (0,), True,
             {"scanned": 8976, "rejected_i": 4496, "rejected_ii": 2257, "rejected_iii": 2223}),
            (543, 11, (0, 0), True,
             {"scanned": 8976, "rejected_i": 4485, "rejected_ii": 4270, "rejected_iii": 221}),
            (7315, 3, (0, 0, 0, 0), False,
             {"scanned": 8976, "rejected_i": 4523, "rejected_ii": 4344, "rejected_iii": 109}),
        ]:
            K = quadratic_field(d)
            chk = ConditionChecker(
                K, modulus_from_rational(K, m), target, SearchParams(2, 1, 0, bound)
            )
            chk.build_prefilter()
            assert chk.ray_exact == exact
            stream = list(chk.candidates(3, bound))
            want = [reference_decide(chk, p) for p in stream]
            survivors = [p for p, (f, _) in zip(stream, want) if f != "i" and key_passes(chk.genus, p)]
            in_class = [p for p, (f, _) in zip(stream, want) if f not in ("i", "ii")]
            assert (survivors == in_class) == exact
            assert reference_scan(chk, 3, bound) == (None, stats)
            with monkeypatch.context() as mp:
                mp.setattr(kummerfrob, "sqrt_mod", counted("sqrt_mod", sqrt_mod))
                mp.setattr(
                    RayClassData, "dlog_prime", counted("dlog_prime", RayClassData.dlog_prime)
                )
                calls.update(sqrt_mod=0, dlog_prime=0)
                assert chk.scan(3, bound) == (None, stats)
            taken = 0 if exact else len(survivors)
            assert calls == {"sqrt_mod": taken, "dlog_prime": taken}, d
            assert len(survivors) < len(stream) // 2

    @pytest.mark.parametrize("d,m,pinned", [
        (34, 1, [(5, 1), (29, 7), (37, 5), (61, 21), (109, 38), (173, 84)]),
        (105, 1, [(13, 1), (53, 23), (73, 18), (97, 28), (113, 52), (137, 67)]),
        (30, 7, [(13, 4), (17, 1), (37, 3), (113, 32)]),
    ])
    def test_check_reports_prefilter_rejections_in_full(self, d, m, pinned):
        """check(p) for primes the prefilter rejects reports as it did
        before the prefilter: failed_at "ii", the root min(r, p - r) of the
        square root r of D, and no characters. Roots recorded from
        the checker without the prefilter, class 0."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        chk = ConditionChecker(K, modulus, target, SearchParams(2, 1, 0))
        for p, root in pinned:
            assert verdict(chk, p) == ("ii", None)
            r = sqrt_mod(K.D, p)
            assert root == min(r, p - r)
            assert chk.check(p) == kummerfrob.ConditionReport(p=p, root=root, failed_at="ii")


class TestKeyOnOtherModuli:
    """The joint key on moduli that `corpus_fields` leaves out: a modulus
    prime that ramifies in K, where the genus character at q and p mod q
    read the same character (d = 21 mod 3, 35 mod 7); a composite M
    (34 mod 15, 595 mod 33, and 21 mod 15 with 3 ramified); and m = 2 at
    ell = 3, where the key has no norm part once 2 is dropped, alone and
    beside 7 (5 mod 14). For every ell-power target and n = 1 and 2,
    `verdict` and `check` decide every candidate up to 3000 as
    `reference_decide`, and `ray_exact` is the brute-force injectivity."""

    @pytest.mark.parametrize("d,m,ell", [
        (21, 3, 2), (35, 7, 2), (34, 15, 2), (595, 33, 2), (21, 15, 2),
        (35, 7, 3),
        (5, 2, 3), (17, 2, 3), (3, 2, 3), (5, 14, 3),
    ])
    def test_matches_reference(self, d, m, ell):
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        ray = ray_class_group(K, modulus)
        for target in ell_power_targets(ray.group, ell):
            for n in (1, 2):
                chk = ConditionChecker(K, modulus, target, SearchParams(ell, n, 0, 3000))
                chk.build_prefilter()
                assert chk.ray_exact == brute_ray_exact(ray, chk.prime_discs)
                assert_decides_as_reference(chk, 3000)


def brute_ray_exact(ray: RayClassData, ds: list[int]) -> bool:
    """Whether no nonzero ray class has the joint key (kept genus signature
    bits, norm mod each odd prime q below m) in {(0, 1), (s, -1)}: each
    element is written on the ambient generators by `group.express`. An
    ideal generator P contributes (sigma(P), N P); the residue generator of
    the factor at a prime Q over q, which is its generator g at Q and 1 at
    the other primes of m, contributes (0, the norm of g down to F_q): g
    when q splits, g^2 when Q is ramified, and x^2 + t*x*y - u*y^2 for
    g = x + y*w when q is inert."""
    K = ray.field
    kept = [i for i, d in enumerate(ds[:-1]) if abs(d) <= kummerfrob.GENUS_TABLE_LIMIT]
    mask = sum(1 << i for i in kept)
    s = sum(1 << i for i, d in enumerate(ds) if d < 0) & mask
    qs = sorted(q for q in ray.modulus.residue_chars() if q > 2)

    def gen_norm(f) -> int:
        if f.f == 2:
            x, y = f.gen
            return (x * x + K.t * x * y - K.u * y * y) % f.p
        return f.gen ** (2 if K.D % f.p == 0 else 1) % f.p

    ambient = [(kummerfrob._genus_signature(ds, P.norm()), [P.norm() % q for q in qs])
               for P in ray.ideal_gens]
    ambient += [(0, [gen_norm(f) if f.p == q else 1 for q in qs]) for f in ray.residue.factors]
    group = ray.group
    for g in group_elements(group):
        if not any(g):
            continue
        sigma, norms = 0, [1] * len(qs)
        for (sig, ns), e in zip(ambient, group.express(group.to_canonical, g)):
            if e % 2:
                sigma ^= sig
            norms = [n * pow(x, e, q) % q for n, x, q in zip(norms, ns, qs)]
        if (sigma & mask, norms) in ((0, [1] * len(qs)), (s, [q - 1 for q in qs])):
            return False
    return True


def signature(genus: kummerfrob.GenusFilter, p: int) -> int:
    """The kept genus signature bits of the prime above p."""
    return sum(table[p % m] << i for i, m, table in genus.chars)


def key_passes(genus: kummerfrob.GenusFilter, p: int) -> bool:
    """Whether the key (signature, p mod M) of the prime above the split p
    is one that `genus` allows."""
    sig = signature(genus, p)
    if sig not in genus.allowed:
        return False
    return genus.norms is None or p % genus.modulus in genus.norms[genus.allowed.index(sig)]


class TestGenusExact:
    """A ray-exact field decides (ii) by the prefilter alone, and at
    ell^n = 2 (iii) is the Legendre symbol of N(1 + eps) = 2 + Tr eps
    wherever p does not divide it; neither takes a square root."""

    def test_corpus_flag_matches_brute_force(self):
        """Real squarefree d < 300, moduli 1, 3, 7 and 15 where prime to
        D: `ray_exact` is the brute-force injectivity of the joint key
        modulo (s, -1); it holds for 430 of the 590 fields, 213 of them by
        the genus signature alone."""
        exact = fields = 0
        for K, modulus in corpus_fields():
            ray = ray_class_group(K, modulus)
            chk = ConditionChecker(K, modulus, (0,) * ray.group.rank, SearchParams(2, 1, 0))
            chk.build_prefilter()
            assert chk.ray_exact == brute_ray_exact(ray, chk.prime_discs), (K.d, modulus)
            exact += chk.ray_exact
            fields += 1
        assert 0 < exact < fields

    @pytest.mark.parametrize("d,m,exact", [
        (34, 1, True),
        (105, 1, True),
        (10, 1, True),
        (543, 11, True),
        (70, 13, True),
        (595, 33, False),
        (7315, 3, False),
    ])
    def test_pinned_fields(self, d, m, exact):
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        ray = ray_class_group(K, modulus)
        chk = ConditionChecker(K, modulus, (0,) * ray.group.rank, SearchParams(2, 1, 0))
        chk.build_prefilter()
        assert chk.ray_exact == brute_ray_exact(ray, chk.prime_discs) == exact

    def test_legendre_symbol_is_the_eps_character_order(self):
        """The corpus above, every split candidate p < 2*10^4 at ell^n = 2:
        when p does not divide c = 2 + Tr eps, the eps-character at either
        prime above p has order 1 exactly when (c / p) = 1. That is 326,290
        candidates; 293 more divide c."""
        bound = 2 * 10**4
        checked = divides = 0
        for K, modulus in corpus_fields():
            rank = ray_class_group(K, modulus).group.rank
            chk = ConditionChecker(K, modulus, (0,) * rank, SearchParams(2, 1, 0, bound))
            c = chk.norm_one_plus_eps
            assert c == chk.eps.trace() + 2
            for p in chk.candidates(3, bound):
                if kronecker(K.D, p) != 1:
                    continue
                if c % p == 0:
                    divides += 1
                    continue
                r = sqrt_mod(K.D, p)
                want = 1 if kronecker(c, p) == 1 else 2
                for root in (r, p - r):
                    assert residue_character(chk.eps, p, 2, 1, root)[1] == want, (K.d, p)
                checked += 1
        assert checked > 10**5 and divides > 0

    def test_a_candidate_dividing_c_takes_the_root(self):
        """d = 286, class 0: the field is genus-exact and 113 divides
        c = 1,123,672, so (iii) at p = 113 takes the root and the
        eps-character."""
        K = quadratic_field(286)
        chk = ConditionChecker(K, Modulus(K, ()), (0,), SearchParams(2, 1, 0))
        chk.build_prefilter()
        assert chk.ray_exact and chk.norm_one_plus_eps == 1123672 == 113 * 9944
        want = reference_decide(chk, 113)
        assert verdict(chk, 113) == want == ("iii", 50)
        rep = chk.check(113)
        assert (rep.failed_at, rep.root) == want


class TestPrefilterOnDemand:
    """A checker builds the genus prefilter (`build_prefilter`) on its first
    `scan` or `verdict` (the helper above, which builds it as the scan
    does); `check` decides with whatever the checker holds and
    builds none, so a checker made for one `check`, as verify makes it,
    skips `GenusFilter.build`."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        builds = []
        build = kummerfrob.GenusFilter.build

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(kummerfrob.GenusFilter, "build", staticmethod(counted))
        return builds

    def test_check_without_prefilter_reports_as_with_it(self, certify_certificates, monkeypatch):
        """Over the certificates of the `certify` population: at the stamped
        p and the 2,756 scan candidates below them, check(p) on a fresh
        checker equals check(p) on a checker whose prefilter is built (ok,
        failed_at, root and both characters), and the fresh checker still
        holds no prefilter. The built prefilters are all active and 247 of
        the 321 fields ray-exact, so the lookup and the prefilter both
        decide."""
        builds = self.count_builds(monkeypatch)
        assert len(certify_certificates) == 321
        exact = candidates = 0
        for cert in certify_certificates:
            K = quadratic_field(cert.d)
            args = (K, Modulus.from_entries(K, cert.modulus), cert.target,
                    SearchParams(cert.ell, cert.n, cert.h, cert.bound))
            fresh, built = ConditionChecker(*args), ConditionChecker(*args)
            built.build_prefilter()
            assert built.genus is not None
            exact += built.ray_exact
            rep = fresh.check(cert.p)
            assert rep == built.check(cert.p) and rep.ok and rep.root == cert.root
            for p in fresh.candidates(3, cert.p - 1):
                assert fresh.check(p) == built.check(p), (cert.d, cert.modulus, p)
                candidates += 1
            assert fresh.genus is None and fresh.ray_exact is False
        assert exact == 247 and candidates == 2756
        assert len(builds) == 321

    def test_scan_and_verdict_build_it_once(self, monkeypatch):
        """d = 7315 mod 3: `check` leaves the checker without a prefilter,
        the first `verdict` builds it, and later verdicts and scans reuse
        it; a fresh checker's first `scan` builds it too."""
        builds = self.count_builds(monkeypatch)
        chk = fresh_checker(7315, 3, 2 * 10**4)
        assert chk.genus is None and chk.ray_exact is False
        chk.check(1993)
        assert builds == [] and chk.genus is None
        verdict(chk, 1993)
        genus = chk.genus
        assert len(builds) == 1 and genus is not None
        chk.scan(3, 2 * 10**4)
        verdict(chk, 2017)
        assert len(builds) == 1 and chk.genus is genus
        other = fresh_checker(7315, 3, 2 * 10**4)
        other.scan(3, 1000)
        assert len(builds) == 2 and other.genus == genus


def reference_scan(chk: ConditionChecker, lo: int, hi: int):
    """`ConditionChecker.scan` with every candidate decided by
    `reference_decide`."""
    stats = {"scanned": 0, "rejected_i": 0, "rejected_ii": 0, "rejected_iii": 0}
    for p in chk.candidates(lo, hi):
        stats["scanned"] += 1
        failed_at, _ = reference_decide(chk, p)
        if failed_at is None:
            return p, stats
        stats[f"rejected_{failed_at}"] = stats.get(f"rejected_{failed_at}", 0) + 1
    return None, stats


def fresh_checker(d: int, m: int, bound: int) -> ConditionChecker:
    """The checker for class 0 of the ray class group of Q(sqrt d) mod m,
    ell = 2, n = 1, h = 0, with no split table yet."""
    K = quadratic_field(d)
    modulus = modulus_from_rational(K, m)
    target = (0,) * ray_class_group(K, modulus).group.rank
    return ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, bound))


def row_bytes(chk: ConditionChecker) -> int:
    """The bytes the checker's slot rows hold (`_build_rows`)."""
    return sum(len(row) for _, row in chk._rows)


def folded(chk: ConditionChecker, x: int, code: int) -> int:
    """`code` at a candidate of residue x with the fold of chk applied:
    FAILS_III for a code 2 where the characters (d_i / x) of the fold's
    bits (`_fold_iii`) multiply to +1."""
    fold = chk._fold_iii()
    if code != 2 or fold is None:
        return code
    picked = [d for i, d in enumerate(chk.prime_discs) if fold >> i & 1]
    return kummerfrob.FAILS_III if math.prod(kronecker(d, x) for d in picked) == 1 else code


def assert_chunk_codes(chk: ConditionChecker, lo: int, hi: int) -> int:
    """Over [lo, hi], chunk by chunk as a scan reads it, every slot's chunk
    code is `_code` of its candidate, folded where chk folds (`folded`),
    and NO_CANDIDATE where the slot holds no prime or an excluded one.
    Returns the number of candidates."""
    step, seen = chk.step, 0
    for k, flags in progression_flags(step, max(lo, 3), hi, kummerfrob.SCAN_CHUNK):
        codes = chk._chunk_codes(k, flags)
        assert len(codes) == len(flags)
        for j, code in enumerate(codes):
            p = 1 + (k + j) * step
            if flags[j] and p not in chk.excluded:
                assert code == folded(chk, p, chk._code(p)), (chk.field.d, p)
                seen += 1
            else:
                assert code == kummerfrob.NO_CANDIDATE, (chk.field.d, p)
    return seen


class TestSplitTable:
    """A scan codes its first `_break_even` candidates by `_code`, then
    builds its rows and codes the rest SCAN_CHUNK slots at a time
    (`_chunk_codes`); the rows are built only once the scan has decided
    that many, and every result is that of `reference_decide`."""

    @pytest.mark.parametrize("shift", [2, -1, 0, 1, 60])
    def test_hand_over_keeps_the_hit_and_counters(self, shift):
        """d = 1435 mod 3: D = -4 * 5 * -7 * 41, break-even 66 (the marks
        of the four character tables, 27 * 32 bytes, and a chunk of 4 bytes
        per slot, 32,768 bytes, at 512 bytes a candidate), and hits at the
        1,403rd and the 1,537th candidate. Scans start where the second hit
        is the 2nd candidate, the one before the break-even, at it, the
        first after it and far past it; each returns the reference's hit and
        counters, and only the scans that go past the break-even build the
        rows."""
        bound = 3 * 10**4
        chk = fresh_checker(1435, 3, bound)
        b = chk._break_even
        chk.build_prefilter()
        assert (b, chk.prime_discs) == (66, [-4, 5, -7, 41]) and chk.genus is not None
        stream = list(chk.candidates(3, bound))
        assert reference_decide(chk, stream[1402])[0] is None
        hit = stream.index(reference_scan(chk, stream[1403], bound)[0])
        assert hit == 1536
        k = shift if shift == 2 else b + shift
        lo = stream[hit - k + 1]
        fresh = fresh_checker(1435, 3, bound)
        got = fresh.scan(lo, bound)
        assert got == reference_scan(chk, lo, bound)
        assert got[0] == stream[hit] and got[1]["scanned"] == k
        assert (fresh._rows is None) == (k <= b)

    def test_short_scans_build_no_table(self):
        """A scan of 2 candidates without a hit, and an empty one."""
        chk = fresh_checker(2030, 3, 2 * 10**4)
        lo, hi = list(chk.candidates(1000, 2 * 10**4))[:2]
        assert chk.scan(lo, hi) == reference_scan(chk, lo, hi)
        assert chk.scan(2000, 1000) == (None, reference_scan(chk, 2000, 1000)[1])
        assert chk._rows is None

    def test_a_built_table_decides_a_later_scan_from_its_start(self, monkeypatch):
        """Once built, the rows are the checker's; a later scan, such as the
        next chunk of a parallel scan, calls `_code` on no candidate."""
        chk = fresh_checker(2030, 3, 5 * 10**4)
        assert chk.scan(3, 20002) == reference_scan(chk, 3, 20002)
        assert chk._rows is not None
        monkeypatch.setattr(chk, "_code", None)
        assert chk.scan(20003, 5 * 10**4) == reference_scan(chk, 20003, 5 * 10**4)

    def test_parallel_chunks_meet_the_switch(self):
        """d = 2030 mod 3, no hit to 5*10^4: each of the three chunks holds
        more candidates than the break-even 66, and the chunk sums are the
        reference's counters."""
        chk = fresh_checker(2030, 3, 5 * 10**4)
        assert chk._break_even == 66
        for lo, hi in [(3, 20002), (20003, 40002), (40003, 5 * 10**4)]:
            assert sum(1 for _ in chk.candidates(lo, hi)) > 66
        K, params = chk.field, chk.params
        res = find_principalizing_prime(K, chk.modulus, chk.target, params, jobs=2)
        want = reference_scan(chk, 3, params.bound)[1]
        want["reason"] = f"no prime below {params.bound} passed all conditions"
        assert res.status == "not_found" and res.stats == want

    @pytest.mark.parametrize("d", [15015, 4849845, 9699690])
    def test_table_never_outgrows_the_candidates_scanned(self, d):
        """Fields with 6, 7 and 8 small prime discriminants, whose |D| of
        60,060, 4,849,845 and 38,798,760 bytes the old residue table held: a
        scan builds rows only after deciding `_break_even` candidates, whose
        _CANDIDATE_BYTES bytes each pay for the character tables' marks and
        a chunk of t bytes per slot, and cover the rows it then holds, the
        sum of |d_i| plus t * (SCAN_CHUNK - 1) bytes. Their break-evens are
        98, 115 and 131, and at bound 2*10^4 the first two get rows; the
        third hits at its 104th candidate and builds none."""
        chk = fresh_checker(d, 1, 2 * 10**4)
        got = chk.scan(3, 2 * 10**4)
        assert got == reference_scan(chk, 3, 2 * 10**4)
        ds, b = chk.prime_discs, chk._break_even
        assert (len(ds), b) == {15015: (6, 98), 4849845: (7, 115), 9699690: (8, 131)}[d]
        marks = kummerfrob._MARK_BYTES * sum(abs(x) // 2 for x in ds)
        assert b * kummerfrob._CANDIDATE_BYTES >= marks + len(ds) * kummerfrob.SCAN_CHUNK
        assert (chk._rows is not None) == (d != 9699690)
        if chk._rows is not None:
            assert row_bytes(chk) == sum(map(abs, ds)) + len(ds) * (kummerfrob.SCAN_CHUNK - 1)
            assert row_bytes(chk) <= kummerfrob._CANDIDATE_BYTES * b
            assert b < got[1]["scanned"]
        else:
            assert got[1]["scanned"] == 104 < b

    def test_a_field_past_the_size_limit_builds_no_table(self, monkeypatch):
        """d = 2030 mod 3, D = 5 * -7 * -8 * 29: at SPLIT_TABLE_LIMIT = 29,
        its largest |d_i|, the break-even is still 66, and one below it the
        checker has none, so a scan to 5*10^4 codes every candidate by
        `_code`, builds no rows, and returns the reference's counters."""
        monkeypatch.setattr(kummerfrob, "SPLIT_TABLE_LIMIT", 29)
        assert fresh_checker(2030, 3, 5 * 10**4)._break_even == 66
        monkeypatch.setattr(kummerfrob, "SPLIT_TABLE_LIMIT", 28)
        chk = fresh_checker(2030, 3, 5 * 10**4)
        assert chk.prime_discs == [5, -7, -8, 29] and chk._break_even is None
        assert chk.scan(3, 5 * 10**4) == reference_scan(chk, 3, 5 * 10**4)
        assert chk._rows is None

    def test_nine_characters_build_no_table(self):
        """Fields with t = 9 prime discriminants, d = 2 * 3 * 5 * ... * 23
        and 3 * 5 * ... * 23: the scan codes every candidate by `_code`,
        builds no rows, and returns the reference's hit and counters."""
        ds = prime_discriminants(4 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)
        assert len(ds) == 9 and kummerfrob._table_break_even(ds) is None
        for d, hit, scanned in [(223092870, None, 1122), (111546435, 13381, 781)]:
            chk = fresh_checker(d, 1, 2 * 10**4)
            assert len(chk.prime_discs) == 9 and chk._break_even is None
            got = chk.scan(3, 2 * 10**4)
            assert got == reference_scan(chk, 3, 2 * 10**4)
            assert got[0] == hit and got[1]["scanned"] == scanned
            assert chk._rows is None

    @staticmethod
    def grid():
        """(checker, D) for real squarefree d < 400, moduli 1, 3 and 7
        where prime to D, and every 2-power target, ell = 2, n = 1."""
        for d in range(2, 400):
            if squarefree_part(d) != d:
                continue
            K = quadratic_field(d)
            for m in (1, 3, 7):
                if math.gcd(m, K.D) != 1:
                    continue
                modulus = modulus_from_rational(K, m)
                for target in ell_power_targets(ray_class_group(K, modulus).group, 2):
                    yield ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, 3000)), K.D

    def test_table_matches_kronecker_and_genus_on_every_residue(self):
        """On the grid, with the rows built: at every slot k of a chunk that
        starts at slot 10^5 + 7 and covers |D| slots, flagged as a prime,
        whose residue x = 1 + 4k mod |D| is prime to D, the code is 0 when
        (D / x) = -1, else 1 when the filter rejects the signature at x,
        else 2 plus, when the filter reads the norm, the index of that
        signature among the allowed ones, folded where the field folds
        (`folded`, `TestFoldedTable`); those slots meet every residue
        x = 1 mod gcd(4, D) prime to D, the residues of every candidate. At
        every candidate up to 3000 the code is `_code` at p, which reads p
        alone, and 0 exactly when Euler's criterion says inert: the
        equality that lets the two passes of a scan agree."""
        tables = 0
        for chk, D in self.grid():
            chk.build_prefilter()
            chk._build_rows()
            genus, k0 = chk.genus, 10**5 + 7
            codes = chk._chunk_codes(k0, b"\x01" * abs(D))
            seen = set()
            for k in range(k0, k0 + abs(D)):
                x = (1 + 4 * k) % abs(D)
                if math.gcd(x, D) == 1:
                    sig = None if genus is None else signature(genus, x)
                    want = (0 if kronecker(D, x) == -1
                            else 2 if genus is None
                            else 1 if sig not in genus.allowed
                            else 2 + genus.allowed.index(sig) * (genus.norms is not None))
                    assert codes[k - k0] == folded(chk, x, want), (chk.field.d, chk.target, x)
                    seen.add(x)
            g = math.gcd(4, D)
            assert seen == {x for x in range(abs(D)) if math.gcd(x, D) == 1 and x % g == 1 % g}
            assert assert_chunk_codes(chk, 3, 3000) > 0
            for p in chk.candidates(3, 3000):
                assert (chk._code(p) == 0) == (pow(D, (p - 1) // 2, p) != 1), p
            tables += 1
        assert tables > 500

    def test_zero_target_takes_the_zero_word(self):
        """`GenusFilter.build` folds the key of a zero target, as every
        scan's, from no coefficients; on the grid, `express` finds the zero
        word for each zero target too, so both give sigma = 0 and n = 1."""
        zeros = 0
        for chk, _ in self.grid():
            group = chk.ray.group
            if not any(chk.target):
                zero_word = [0] * len(group.to_canonical)
                assert group.express(group.to_canonical, chk.target) == zero_word
                zeros += 1
        assert zeros == 635

    @pytest.mark.parametrize("ell,n,d,m", [(2, 1, 1435, 3), (2, 2, 2030, 3), (3, 1, 1435, 1),
                                           (3, 2, 2030, 1)])
    def test_chunk_codes_cross_chunk_and_segment_edges(self, ell, n, d, m):
        """Steps 4, 8, 3 and 9: from a start that is no slot, across the
        chunk edges at multiples of 2^13 slots and the segment edge at slot
        2^16, every chunk code is `_code` of its candidate; a scan from that
        start on a checker whose rows are built returns the reference's hit
        and counters."""
        K = quadratic_field(d)
        modulus = modulus_from_rational(K, m)
        target = (0,) * ray_class_group(K, modulus).group.rank
        step = ell**n if ell > 2 else 2 ** (n + 1)
        lo, hi = 1 + 55000 * step + 2, 1 + 75000 * step
        chk = ConditionChecker(K, modulus, target, SearchParams(ell, n, 0, hi))
        assert chk.step == step and chk._break_even is not None
        chk.build_prefilter()
        chk._build_rows()
        edges = {k for k, _ in progression_flags(step, lo, hi, kummerfrob.SCAN_CHUNK)}
        assert {57344, 65536, 73728} < edges
        assert assert_chunk_codes(chk, lo, hi) > 1000
        assert chk.scan(lo, hi) == reference_scan(chk, lo, hi)

    def test_a_hit_in_mid_chunk_stops_every_counter(self):
        """d = 1435 mod 3 with its rows built: its first hit lies inside a
        chunk whose later candidates include inert ones, signature
        rejections and further candidates for `_decide`, and the scan's
        counters are the reference's, which stop at the hit."""
        bound = 2 * 10**4
        chk = fresh_checker(1435, 3, bound)
        chk.build_prefilter()
        chk._build_rows()
        found, stats = chk.scan(3, bound)
        assert (found, stats) == reference_scan(chk, 3, bound)
        k, flags = next(progression_flags(4, 3, bound, kummerfrob.SCAN_CHUNK))
        codes = chk._chunk_codes(k, flags)
        after = set(codes[(found - 1) // 4 + 1 - k:])
        assert {0, 1, 2} <= after and found < 1 + 4 * (k + len(flags) - 1)
        assert stats["scanned"] < sum(c != kummerfrob.NO_CANDIDATE for c in codes)

    def test_an_excluded_prime_in_a_chunk_is_not_counted(self):
        """d = 1435 mod 13: the primes 5 and 41 of D and 13 of the modulus
        are 1 mod 4 and flagged by the sieve, but a scan with rows built
        gives them NO_CANDIDATE, so its counters are the reference's, which
        `candidates` keeps them out of."""
        chk = fresh_checker(1435, 13, 2 * 10**4)
        chk.build_prefilter()
        chk._build_rows()
        assert {5, 13, 41} <= chk.excluded
        k, flags = next(progression_flags(4, 3, 2000, kummerfrob.SCAN_CHUNK))
        codes = chk._chunk_codes(k, flags)
        for q in (5, 13, 41):
            slot = (q - 1) // 4 - k
            assert flags[slot] == 1 and codes[slot] == kummerfrob.NO_CANDIDATE
        got = chk.scan(3, 2000)
        assert got == reference_scan(chk, 3, 2000)
        assert got[1]["scanned"] == sum(flags[: (2000 - 1) // 4 - k + 1]) - 3


def kernel_at_2D(c: int, D: int) -> int:
    """The product s of the primes of 2D at which c has odd valuation,
    asserting that c / s is a square: then s is the squarefree kernel of c."""
    s = math.prod(q for q in {2, *factor(abs(D))} if valuation(c, q) % 2)
    r = math.isqrt(c // s)
    assert r * r * s == c, (c, D)
    return s


def s_character(ds: list[int], s: int):
    """x -> (s / p) at the candidates p = x mod |D|, p = 1 mod 4, D = prod
    ds, as a product of Kronecker symbols of the prime discriminants at x:
    (q* / x) for each odd q | s and (+-8 / x) for 2 | s. None when 2 | s and
    D has no +-8 discriminant, as (2 / p) is then no character mod |D|."""
    picked = [d for d in ds if d % 2 and s % d == 0]
    if s % 2 == 0:
        eight = [d for d in ds if d in (8, -8)]
        if not eight:
            return None
        picked += eight
    return lambda x: math.prod(kronecker(d, x) for d in picked)


def residue_table(ds: list[int], code_map: bytes) -> bytes:
    """The code map (`_split_codes`) read by residue: table[x], for x mod
    |D|, D = prod ds, is code_map at the pattern of the characters of ds at
    x, the code a scan gives each candidate p = x mod |D|. Byte x packs bit
    i from the i-th `_character_table` repeated to length |D|."""
    size = abs(math.prod(ds))
    packed = 0
    for i, d in enumerate(ds):
        packed |= int.from_bytes(kummerfrob._character_table(d) * (size // abs(d)), "little") << i
    return packed.to_bytes(size, "little").translate(code_map)


def fold_errors(chk: ConditionChecker, codes: bytes) -> list[int]:
    """The residues x prime to D at which `codes` (`residue_table`) is not
    what a scan of chk should read: the unfolded one (`_split_codes`
    without a fold),
    with each code 2 at an x where (s / x) = 1 turned into FAILS_III on a
    ray-exact field at ell^n = 2 whose prefilter has no norm part and
    where (s / .) is a character mod |D|; elsewhere nothing changes."""
    ds, genus, D = chk.prime_discs, chk.genus, chk.field.D
    unfolded = residue_table(ds, kummerfrob._split_codes(ds, genus))
    chi = None
    if chk.norm_one_plus_eps is not None and chk.ray_exact and (genus is None or genus.norms is None):
        chi = s_character(ds, kernel_at_2D(chk.norm_one_plus_eps, D))
    want = unfolded if chi is None else bytes(
        kummerfrob.FAILS_III if code == 2 and chi(x) == 1 else code
        for x, code in enumerate(unfolded)
    )
    return [x for x in range(abs(D)) if math.gcd(x, D) == 1 and codes[x] != want[x]]


def fold_bits(chk: ConditionChecker) -> int:
    """The fold of chk's table computed as if its field could fold: the bits
    of the characters picked by `s_character`."""
    s = kernel_at_2D(chk.norm_one_plus_eps, chk.field.D)
    picked = [s % d == 0 if d % 2 else s % 2 == 0 and d != -4 for d in chk.prime_discs]
    return sum(1 << i for i, bit in enumerate(picked) if bit)


def new_code_errors(chk: ConditionChecker, codes: bytes, bound: int) -> list[int]:
    """The candidates p <= bound with FAILS_III in `codes` whose
    `reference_decide` verdict is not (iii)."""
    size = len(codes)
    return [p for p in chk.candidates(3, bound)
            if codes[p % size] == kummerfrob.FAILS_III and reference_decide(chk, p)[0] != "iii"]


class TestFoldedTable:
    """At ell^n = 2 on a ray-exact field whose prefilter has no norm part,
    a split candidate of code 2 passes (ii), and (iii) asks (c / p) = -1,
    c = N(1 + eps). The squarefree kernel s of c divides 2D, so (s / p) is
    a product of the characters of the prime discriminants, and the code
    map gives the codes 2 where it is +1 the count-only code FAILS_III."""

    BOUND = 2 * 10**4

    @staticmethod
    @functools.cache
    def corpus() -> list:
        """(checker, its folded `residue_table`) for class 0 of every field of
        `corpus_fields`, with the prefilter built; made once for the tests
        below, which only read them."""
        out = []
        for K, modulus in corpus_fields():
            rank = ray_class_group(K, modulus).group.rank
            chk = ConditionChecker(K, modulus, (0,) * rank,
                                   SearchParams(2, 1, 0, TestFoldedTable.BOUND))
            chk.build_prefilter()
            ds = chk.prime_discs
            code_map = kummerfrob._split_codes(ds, chk.genus, chk._fold_iii())
            out.append((chk, residue_table(ds, code_map)))
        return out

    def test_kernel_divides_twice_the_discriminant(self):
        """Real squarefree d < 2000, moduli 1, 3 and 7 where prime to D:
        c = 2 + Tr eps of the unit that the checker takes has
        c(c - 4) = (eps - eps')^2 = D f^2, and c is a square times a divisor
        s of 2D."""
        fields = 0
        for d in range(2, 2000):
            if squarefree_part(d) != d:
                continue
            K = quadratic_field(d)
            for m in (1, 3, 7):
                if math.gcd(m, K.D) != 1:
                    continue
                eps, _ = aug_unit_data(K, modulus_from_rational(K, m))
                c = eps.trace() + 2
                f2, rest = divmod(c * (c - 4), K.D)
                assert rest == 0 and math.isqrt(f2) ** 2 == f2, (d, m)
                assert (2 * K.D) % kernel_at_2D(c, K.D) == 0, (d, m)
                fields += 1
        assert fields == 3186

    def test_fold_turns_code_two_where_the_kernel_character_is_one(self):
        """On the corpus, the folded table is the unfolded one except at the
        code 2 of a ray-exact field without a norm part, where it is
        FAILS_III exactly where (s / x) = 1. 165 of the 590 fields fold,
        and on 37 of them 2 | s is read off the +-8 character; 48 more are
        ray-exact without a norm part, but have 2 | s and no +-8 character."""
        folded = by_eight = 0
        for chk, codes in self.corpus():
            assert fold_errors(chk, codes) == [], (chk.field.d, chk.modulus)
            fold = chk._fold_iii()
            if fold is not None:
                folded += 1
                by_eight += kernel_at_2D(chk.norm_one_plus_eps, chk.field.D) % 2 == 0
        assert (folded, by_eight) == (165, 37)

    def test_new_code_fails_iii_by_reference(self):
        """On the folded fields of the corpus, every candidate below 2*10^4
        with the code FAILS_III has `reference_decide` (iii); and on every
        field every candidate p | c that passes (ii) fails (iii), d = 286
        and p = 113 among them, which gets FAILS_III."""
        new = divides = 0
        for chk, codes in self.corpus():
            if chk._fold_iii() is not None:
                assert new_code_errors(chk, codes, self.BOUND) == [], chk.field.d
                new += sum(codes[p % len(codes)] == kummerfrob.FAILS_III
                           for p in chk.candidates(3, self.BOUND))
            for p in chk.candidates(3, self.BOUND):
                if chk.norm_one_plus_eps % p == 0:
                    failed_at, _ = reference_decide(chk, p)
                    assert failed_at in ("i", "ii", "iii"), (chk.field.d, p)
                    divides += failed_at == "iii"
            if (chk.field.d, chk.modulus.norm()) == (286, 1):
                D = chk.field.D
                assert chk.norm_one_plus_eps % 113 == 0 and codes[113 % abs(D)] == kummerfrob.FAILS_III
                assert reference_decide(chk, 113)[0] == "iii"
        assert new > 10**4 and divides > 0

    def test_scan_builds_the_folded_table(self):
        """d = 66, the field of the pinned CI scan: c = 132 = 4 * 33, whose
        kernel 33 is read off the characters of -3 and -11. A scan to
        2*10^5 builds the folded code map and counts 2,202 rejections of
        (iii), as the parent of the fold did, calling `_decide` on none of
        them."""
        chk = fresh_checker(66, 1, 2 * 10**5)
        assert chk.norm_one_plus_eps == 132 and chk.prime_discs == [-3, 8, -11]
        calls = []
        decide = chk._decide
        chk._decide = lambda p, code: calls.append(p) or decide(p, code)
        found, stats = chk.scan(3, 2 * 10**5)
        assert chk._fold_iii() == 0b101
        assert fold_errors(chk, residue_table(chk.prime_discs, chk._code_map)) == []
        assert found is None and stats == {"scanned": 8977, "rejected_i": 4535,
                                           "rejected_ii": 2240, "rejected_iii": 2202}
        assert len(calls) <= chk._break_even

    def test_mutations_are_caught(self):
        """Three wrong folds, each caught on the corpus: the parity of the
        kernel character flipped, caught on all 165 folded fields; its +-8
        bit dropped, caught on the 13 of the 37 fields with 2 | s where the
        +-8 character is not constant on the codes 2; and a fold on the 204
        ray-exact fields with a norm part where it changes the table, which
        `new_code_errors` also catches, on the first three, as (ii)
        rejections counted at (iii)."""
        flipped = dropped = normed = by_reference = 0
        swap = {2: kummerfrob.FAILS_III, kummerfrob.FAILS_III: 2}
        for chk, codes in self.corpus():
            ds, genus, fold = chk.prime_discs, chk.genus, chk._fold_iii()
            if fold is not None:
                mutant = bytes(swap.get(code, code) for code in codes)
                assert fold_errors(chk, mutant), chk.field.d
                flipped += 1
                eight = [i for i, d in enumerate(ds) if d in (8, -8) and fold >> i & 1]
                if eight:
                    dropped_map = kummerfrob._split_codes(ds, genus, fold & ~(1 << eight[0]))
                    mutant = residue_table(ds, dropped_map)
                    dropped += bool(fold_errors(chk, mutant))
            elif chk.ray_exact and genus is not None and genus.norms is not None:
                if s_character(ds, kernel_at_2D(chk.norm_one_plus_eps, chk.field.D)) is None:
                    continue
                mutant = residue_table(ds, kummerfrob._split_codes(ds, genus, fold_bits(chk)))
                if mutant != codes:
                    assert fold_errors(chk, mutant), chk.field.d
                    normed += 1
                    if by_reference < 3:
                        by_reference += bool(new_code_errors(chk, mutant, 5000))
        assert (flipped, dropped, normed, by_reference) == (165, 13, 204, 3)
