import itertools
import math
import operator
import random
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    divisors,
    is_prime_by_twelve_bases,
    is_strong_probable_prime,
    multiplicative_order,
    primes_in_progression,
    splitting_degree,
    sqrt_mod_linear_scan,
)
from raycap import exactmath
from raycap.exactmath import (
    PRIMALITY_LIMIT,
    PrimalityRangeError,
    crt,
    factor,
    is_prime,
    kronecker,
    power,
    primes_1_mod,
    primes_up_to,
    roots_mod_p,
    sqrt_mod,
    squarefree_part,
    valuation,
)
from raycap.quadfield import QIdeal, _Fp2, factor_prime, quadratic_field


def brute_primes(limit):
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i in range(limit + 1) if flags[i]]


class TestIsPrime:
    def test_against_sieve(self):
        """is_prime agrees with the library's sieve below 2**20, and that
        sieve with a plain one below 20,000."""
        primes = exactmath._sieve(1 << 20)
        assert [p for p in primes if p <= 20000] == brute_primes(20000)
        assert [n for n in range(1 << 20) if is_prime(n)] == list(primes)

    def test_known_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 9)
        assert not is_prime((2**31 - 1) * (2**31 - 1))

    def test_range_guard(self):
        with pytest.raises(PrimalityRangeError):
            is_prime(PRIMALITY_LIMIT)
        assert not is_prime(PRIMALITY_LIMIT - 1)  # 2**64 - 1 = 3*5*17*257*641*...

    # psi_k of OEIS A014233 for k = 1..11, the least strong pseudoprime to
    # the first k prime bases, with its factors
    PSI = [
        (2047, (23, 89)),
        (1373653, (829, 1657)),
        (25326001, (2251, 11251)),
        (3215031751, (151, 751, 28351)),
        (2152302898747, (6763, 10627, 29947)),
        (3474749660383, (1303, 16927, 157543)),
        (341550071728321, (10670053, 32010157)),
        (341550071728321, (10670053, 32010157)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
    ]

    @pytest.mark.parametrize("k,psi,factors", [(k, *e) for k, e in enumerate(PSI, 1)])
    def test_each_psi_is_composite(self, k, psi, factors):
        """psi_k is composite, its factors multiply back to it, yet it
        passes the first k bases, where the table's k-base band ends; and
        is_prime calls it composite. A table that stopped at psi_9 would
        test psi_9 = psi_11 with 10 bases and call it prime."""
        assert math.prod(factors) == psi and all(f > 1 for f in factors)
        assert all(is_strong_probable_prime(psi, a) for a in exactmath._MR_WITNESSES[:k])
        assert exactmath._MR_PSI[k - 1] == psi
        assert not is_prime(psi)

    def test_agrees_with_twelve_bases_on_seeded_numbers(self):
        """20,000 odd n < 2**64 drawn with every bit length from 12 to 64,
        so each band of the base table is met, and every n within 50 of a
        bound, against Miller-Rabin on all twelve bases."""
        rng = random.Random(20231)
        ns = [rng.getrandbits(rng.randint(12, 64)) | 1 for _ in range(20000)]
        ns += [psi + e for psi, _ in self.PSI for e in range(-50, 51)]
        got = [is_prime(n) for n in ns]
        assert got == [is_prime_by_twelve_bases(n) for n in ns]
        assert sum(got) > 1000

    def test_agrees_with_twelve_bases_on_products_of_two_primes_near_2_to_32(self):
        primes = [p for p in range(2**32 - 4000, 2**32) if is_prime_by_twelve_bases(p)]
        assert len(primes) > 150
        products = [p * q for p, q in itertools.combinations(primes, 2)]
        assert max(products) < PRIMALITY_LIMIT
        assert not any(is_prime(n) for n in products)


class TestFactor:
    def test_small(self):
        assert factor(360) == {2: 3, 3: 2, 5: 1}
        assert factor(1) == {}
        assert factor(97) == {97: 1}

    def test_large_semiprime(self):
        p, q = 2147483647, 2147483629
        assert factor(p * q) == {q: 1, p: 1}

    def test_prime_power(self):
        assert factor(3**20) == {3: 20}

    @given(st.integers(min_value=1, max_value=10**9))
    def test_reconstruction(self, n):
        f = factor(n)
        assert math.prod(p**k for p, k in f.items()) == n
        assert all(is_prime(p) for p in f)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_every_n_below_10_to_5(self):
        """Every factorization below 10**5, a cofactor below 53**2 left by
        trial division among them, multiplies back to n over primes in
        ascending order."""
        primes = set(exactmath._sieve(1 << 17))
        for n in range(1, 10**5):
            f = factor(n)
            assert math.prod(p**k for p, k in f.items()) == n
            assert list(f) == sorted(f) and primes.issuperset(f) and 0 not in f.values()


def test_valuation():
    assert valuation(360, 2) == 3
    assert valuation(360, 5) == 1
    assert valuation(7, 2) == 0


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-8) == -2
    assert squarefree_part(30) == 30


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


class TestPrimesInProgression:
    def test_one_mod_four(self):
        gen = primes_in_progression(1, 4)
        assert list(itertools.takewhile(lambda p: p < 30, gen)) == [5, 13, 17, 29]

    def test_one_mod_eight(self):
        gen = primes_in_progression(1, 8)
        assert list(itertools.takewhile(lambda p: p < 100, gen)) == [17, 41, 73, 89, 97]

    def test_start_offset(self):
        assert next(primes_in_progression(1, 4, start=14)) == 17

    def test_matches_sieve(self):
        want = [p for p in brute_primes(2000) if p % 7 == 3]
        got = list(itertools.takewhile(lambda p: p <= 2000, primes_in_progression(3, 7)))
        assert got == want


def progression_reference(step, lo, hi):
    """primes_in_progression (Miller-Rabin on every member) cut to [lo, hi]."""
    return list(
        itertools.takewhile(lambda p: p <= hi, primes_in_progression(1, step, start=lo))
    )


class TestProgressionSieve:
    @given(
        st.sampled_from([4, 8, 16, 32, 3, 9, 25]),
        st.integers(-10, 20000),
        st.integers(-200, 4000),
        st.sampled_from([1, 2, 7, 64, 1 << 16]),
    )
    @example(4, 100, -50, 1 << 16)  # lo > hi
    @example(8, 17, 0, 1 << 16)  # lo = hi on a prime member
    @example(4, 41, 400, 7)  # lo on a member, segments of 7 slots
    @example(4, 2, 995, 1 << 16)  # hi = 997 is a prime member
    @example(3, 500, 497, 5)  # hi = 997 again, ell = 3
    @example(3, 1, 9000, 3)  # prime members 7, 13, ..., 79 also sieve
    def test_matches_progression(self, step, lo, width, segment):
        hi = lo + width
        with mock.patch.object(exactmath, "_SIEVE_SEGMENT", segment):
            got = list(primes_1_mod(step, lo, hi))
        assert got == progression_reference(step, lo, hi)

    def test_crosses_a_full_segment(self):
        # first = 5, so the default segment ends after 5 + (2**16 - 1)*4
        lo, hi = 5, 5 + 4 * (1 << 16) + 2000
        got = list(primes_1_mod(4, lo, hi))
        assert got == progression_reference(4, lo, hi)
        edge = 5 + 4 * (1 << 16)
        assert any(p < edge for p in got) and any(p >= edge for p in got)

    def test_high_window_is_cheap(self):
        # a window near 10**8 sieves with the 1229 primes below 10**4 and
        # one short segment; the reference tests each member
        lo, hi = 10**8 - 3000, 10**8
        assert list(primes_1_mod(8, lo, hi)) == progression_reference(8, lo, hi)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            list(primes_1_mod(0, 1, 100))

    def test_second_scan_sieves_nothing(self):
        """A scan to 5*10^5 sieves two full segments of 2^16 slots; scanning
        it again, or any range within them at that segment size, is read off
        the cache with no further miss."""
        exactmath._segment.cache_clear()
        got = list(primes_1_mod(4, 3, 5 * 10**5))
        misses = exactmath._segment.cache_info().misses
        assert misses == 2 and got == [p for p in primes_up_to(5 * 10**5) if p % 4 == 1]
        assert list(primes_1_mod(4, 3, 5 * 10**5)) == got
        assert list(primes_1_mod(4, 1000, 3 * 10**5)) == [p for p in got if 1000 <= p <= 3 * 10**5]
        assert exactmath._segment.cache_info().misses == misses

    def test_short_range_sieves_less_than_twice_its_slots(self):
        """A range of 5,000 slots (p <= 2*10^4, step 4) sieves one segment
        of 8,192 slots, and the range up to 65537 = 1 + 2^16 at step 2^16,
        whose last slot is slot 1, one of 2 slots."""
        exactmath._segment.cache_clear()
        assert list(primes_1_mod(4, 3, 2 * 10**4)) == progression_reference(4, 3, 2 * 10**4)
        assert list(primes_1_mod(1 << 16, 2, 65537)) == [65537]
        assert exactmath._segment.cache_info().misses == 2
        assert len(exactmath._segment(4, 1 << 13, 0)) == 1 << 13
        assert exactmath._segment(1 << 16, 2, 0) == b"\x00\x01"
        assert exactmath._segment.cache_info().misses == 2

    def test_cache_stays_within_its_bound(self):
        """Forty segments of 64 slots: the cache keeps at most its bound of
        them, and the primes are those of the reference."""
        exactmath._segment.cache_clear()
        hi = 40 * 64 * 8
        with mock.patch.object(exactmath, "_SIEVE_SEGMENT", 64):
            got = list(primes_1_mod(8, 3, hi))
        info = exactmath._segment.cache_info()
        assert info.misses == 40 and info.currsize == info.maxsize == 8
        assert got == progression_reference(8, 3, hi)

    @given(
        st.sampled_from([4, 8, 3, 9]),
        st.integers(-10, 40000),
        st.integers(-200, 40000),
        st.sampled_from([1, 7, 64, 1 << 13, 1 << 16]),
        st.sampled_from([1, 5, 1 << 10, 1 << 13]),
    )
    @example(4, 3, 4 * 3 * (1 << 13), 1 << 16, 1 << 13)  # three whole chunks of one segment
    @example(8, 3, 8 * 200, 64, 1 << 13)  # chunks cut at each segment
    def test_flags_cover_the_range_in_aligned_pieces(self, step, lo, width, segment, chunk):
        """`progression_flags` tiles the range's slots in ascending pieces
        of at most `chunk` slots that cross no multiple of `chunk` and no
        segment, and its flags mark the primes of `progression_reference`."""
        hi = lo + width
        with mock.patch.object(exactmath, "_SIEVE_SEGMENT", segment):
            pieces = list(exactmath.progression_flags(step, lo, hi, chunk))
            size = min(segment, 1 << max((hi - 1) // step, 0).bit_length())
        slots = [k + i for k, flags in pieces for i in range(len(flags))]
        assert slots == list(range(max(0, -((1 - lo) // step)), (hi - 1) // step + 1))
        for k, flags in pieces:
            last = k + len(flags) - 1
            assert 0 < len(flags) <= chunk
            assert k // chunk == last // chunk and k // size == last // size
        primes = [1 + (k + i) * step for k, flags in pieces for i, f in enumerate(flags) if f]
        assert set(b"".join(flags for _, flags in pieces)) <= {0, 1}
        assert primes == progression_reference(step, lo, hi)

    @pytest.mark.parametrize("lo,hi", [(-5, 1), (0, 2), (2, 3), (2, 10**5), (1000, 140000)])
    def test_step_one_is_every_prime(self, lo, hi):
        """Step 1 lists every prime: those of `primes_up_to` from lo on,
        across the segment edge at 65,537 for the last range."""
        assert list(primes_1_mod(1, lo, hi)) == [p for p in primes_up_to(hi) if p >= lo]


class TestKronecker:
    def test_euler_criterion(self):
        for p in [3, 5, 7, 11, 13, 101, 3001]:
            for a in range(1, 50):
                if a % p == 0:
                    assert kronecker(a, p) == 0
                else:
                    e = pow(a, (p - 1) // 2, p)
                    assert kronecker(a, p) == (1 if e == 1 else -1)

    def test_at_two(self):
        # (a/2) depends on a mod 8 only
        assert [kronecker(a, 2) for a in range(8)] == [0, 1, 0, -1, 0, -1, 0, 1]

    def test_negative_bottom(self):
        assert kronecker(-1, -1) == -1
        assert kronecker(1, -1) == 1
        assert kronecker(5, -3) == kronecker(5, 3)

    @given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 120))
    def test_multiplicative_in_top(self, a, b, n):
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    @given(st.integers(-200, 200), st.integers(1, 120), st.integers(1, 120))
    def test_multiplicative_in_bottom(self, a, m, n):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


class TestSqrtMod:
    @given(st.sampled_from([3, 5, 7, 13, 17, 101, 577, 3001, 65537]), st.integers(0, 10**6))
    def test_roundtrip(self, p, a):
        r = sqrt_mod(a, p)
        if kronecker(a, p) == -1:
            assert r is None
        else:
            assert r is not None
            assert (r * r - a) % p == 0

    def test_deterministic(self):
        assert sqrt_mod(2, 7) == sqrt_mod(2, 7)
        assert sqrt_mod(0, 13) == 0

    def test_every_residue_below_3000(self):
        """Every a mod every prime 3 <= p < 3000, so each branch (p = 3 mod 4,
        Atkin's p = 5 mod 8, Tonelli-Shanks for p = 1 mod 8 with s up to 8)
        meets every residue and nonresidue: the root squares to a, and None
        comes back exactly for the nonresidues."""
        for p in primes_up_to(3000)[1:]:
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                r = sqrt_mod(a, p)
                if a in squares:
                    assert r is not None and 0 <= r < p and r * r % p == a, (a, p)
                else:
                    assert r is None, (a, p)

    def test_least_nonresidue_matches_linear_scan(self):
        """For p = 1 (mod 8) the Tonelli-Shanks nonresidue found by
        reciprocity is the one the linear scan over z = 3, 4, ... finds, so
        every root is the same: all such primes below 2*10^4, at residues,
        nonresidues and 0."""
        primes = [p for p in primes_up_to(2 * 10**4) if p % 8 == 1]
        assert len(primes) == 556
        for p in primes:
            for a in (2, 3, 5, 7, 34, 136, 543, -7315, 10**9 + 7, p):
                assert sqrt_mod(a, p) == sqrt_mod_linear_scan(a, p), (a, p)


class TestCrt:
    def test_basic(self):
        x, m = crt([2, 3], [3, 5])
        assert m == 15 and x == 8

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_consistency(self, r1, r2):
        x, m = crt([r1, r2], [49, 100])
        assert m == 4900
        assert x % 49 == r1 % 49
        assert x % 100 == r2 % 100

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            crt([1, 2], [6, 10])


class TestMultiplicativeOrder:
    def test_known(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(7, 16) == 2

    @given(st.sampled_from([5, 7, 11, 13, 101]), st.integers(1, 10**4))
    def test_minimality(self, p, a):
        if a % p == 0:
            return
        d = multiplicative_order(a, p, group_exponent=p - 1)
        assert pow(a, d, p) == 1
        assert all(pow(a, e, p) != 1 for e in divisors(d)[:-1])


class TestRootsModP:
    def test_known(self):
        assert roots_mod_p([1, 0, 1], 5) == [2, 3]  # x^2 + 1
        assert roots_mod_p([1, 0, 1], 7) == []

    def test_degree_above_two_raises(self):
        with pytest.raises(ValueError):
            roots_mod_p([1, 0, 0, 1], 7)  # x^3 + 1
        # a cubic whose leading coefficient vanishes mod p is a quadratic
        assert roots_mod_p([6, 0, 1, 7], 7) == [1, 6]

    def test_linear_at_a_large_prime(self):
        # one inverse, not a trial of every residue
        p = 1_000_000_007
        (r,) = roots_mod_p([3, 5], p)
        assert (3 + 5 * r) % p == 0
        assert roots_mod_p([-4, 2 * p + 2], p) == [2]

    def test_low_degrees_match_brute(self):
        # every constant and linear polynomial mod small p, given with a
        # leading coefficient that vanishes mod p
        for p in (2, 3, 7):
            for c0, c1 in itertools.product(range(p), repeat=2):
                if c0 or c1:
                    coeffs = [c0, c1, 2 * p]
                    assert roots_mod_p(coeffs, p) == brute_roots(coeffs, p)
        with pytest.raises(ValueError):
            roots_mod_p([7, 14, 21], 7)


def brute_roots(coeffs, p):
    return [x for x in range(p) if sum(c * x**i for i, c in enumerate(coeffs)) % p == 0]


# odd primes, small and large
QUAD_PRIMES = [3, 5, 7, 13, 97, 2999, 3001, 3011, 7919, 10007]


class TestQuadraticRoots:
    """The closed form (one sqrt_mod of the discriminant) against trying
    every residue."""

    @given(
        st.sampled_from(QUAD_PRIMES),
        st.sampled_from(["any", "monic", "double", "none", "split"]),
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**6),
    )
    @example(3, "double", 0, 0, 1)
    @example(10007, "none", 5, 0, 3)
    @example(2999, "split", 1, 2, 2998)
    def test_matches_brute(self, p, kind, r, s, lead):
        lead = lead if lead % p else lead + 1  # keep degree 2 mod p
        if kind == "any":
            coeffs = [r, s, lead]
        elif kind == "monic":
            coeffs = [r, s, 1]
        elif kind == "double":  # lead*(x - r)^2
            coeffs = [lead * r * r, -2 * lead * r, lead]
        elif kind == "none":  # lead*((x - r)^2 - nonresidue)
            n = next(a for a in range(2, p) if kronecker(a, p) == -1)
            coeffs = [lead * (r * r - n), -2 * lead * r, lead]
        else:  # lead*(x - r)*(x - s)
            coeffs = [lead * r * s, -lead * (r + s), lead]
        want = brute_roots(coeffs, p)
        assert roots_mod_p(coeffs, p) == want
        if kind == "double":
            assert want == [r % p]
        elif kind == "none":
            assert want == []
        elif kind == "split":
            assert want == sorted({r % p, s % p})

    def test_p2_stays_on_trial(self):
        # every quadratic mod 2, with sqrt_mod unreachable
        with mock.patch.object(exactmath, "sqrt_mod", side_effect=AssertionError):
            for coeffs in itertools.product(range(2), range(2), [1, 3]):
                assert roots_mod_p(list(coeffs), 2) == brute_roots(coeffs, 2)

    def test_leading_coefficient_vanishing_mod_p(self):
        # 7x^2 + 3x + 1 is linear mod 7
        assert roots_mod_p([1, 3, 7], 7) == brute_roots([1, 3, 7], 7) == [2]


class TestSplittingDegree:
    """The test oracle that criterion 5 of the acceptance gate stands on."""

    def test_quadratics(self):
        assert splitting_degree([1, 0, 1], 5) == 1
        assert splitting_degree([1, 0, 1], 7) == 2

    def test_cyclotomic_order_law(self):
        # x^(l-1) + ... + 1 mod q factors into factors of degree ord_l(q)
        for ell in [5, 7, 11, 13]:
            for q in [2, 3, 19, 23, 101]:
                if q % ell == 0:
                    continue
                coeffs = [1] * ell
                assert splitting_degree(coeffs, q) == multiplicative_order(q, ell)

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            splitting_degree([1, 2, 1], 7)  # (x+1)^2

    def test_rejects_nonuniform(self):
        # (x)(x^2+1) mod 7: degrees 1 and 2
        with pytest.raises(ValueError):
            splitting_degree([0, 1, 0, 1], 7)


def test_primes_up_to():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == primes_up_to(0) == primes_up_to(-7) == ()


@pytest.mark.parametrize("centre", [1024, 2048, 4096])
def test_primes_up_to_matches_brute_force_at_powers_of_two(centre):
    """Limits on either side of a sieve size cut the same primes as a
    sieve of their own."""
    for limit in range(centre - 12, centre + 13):
        assert list(primes_up_to(limit)) == brute_primes(limit), limit


def test_primes_up_to_caches_one_sieve_per_power_of_two():
    """Limits up to 2^k share at most k - 9 cached sieves, whatever their
    number: 400 distinct limits below 2^16 leave at most 7."""
    exactmath._sieve.cache_clear()
    limits = [1025 + 157 * i for i in range(400)]
    assert max(limits) < 1 << 16
    for limit in limits:
        assert primes_up_to(limit)[-1] <= limit
    assert exactmath._sieve.cache_info().currsize <= 16 - 9


def ladder_power(x, e, one, mul):
    """The plain ladder: out*x on each set bit of e, then x*x, every bit."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


class TestPower:
    @given(st.integers(1, 10**6))
    @example(1)
    @example(2**20)
    @example(2**20 - 1)
    def test_product_count(self, e):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b % 1000003

        assert power(3, e, 1, mul) == pow(3, e, 1000003)
        assert len(calls) == bin(e).count("1") + e.bit_length() - 2

    def test_zero_exponent_is_one(self):
        assert power(7, 0, 1) == 1
        assert power((2, 5), 0, (1, 0), lambda a, b: None) == (1, 0)
        with pytest.raises(ValueError):
            power(7, -1, 1)

    @given(st.integers(-50, 50), st.integers(0, 200))
    def test_ints_match_ladder(self, x, e):
        assert power(x, e, 1) == ladder_power(x, e, 1, operator.mul) == x**e

    @pytest.mark.parametrize("d,p", [(34, 5), (34, 7), (-5, 3), (-23, 2), (79, 3)])
    def test_ideals_match_ladder(self, d, p):
        K = quadratic_field(d)
        one = QIdeal.unit_ideal(K)
        for P, _, _ in factor_prime(K, p)[1]:
            for e in range(13):
                assert power(P, e, one) == ladder_power(P, e, one, operator.mul)

    @pytest.mark.parametrize("p,t,u", [(3, 0, 2), (7, 1, 1), (11, 0, 7)])
    def test_fp2_matches_ladder(self, p, t, u):
        mul = _Fp2(p, t, u).mul
        for x in itertools.product(range(p), repeat=2):
            for e in (0, 1, 2, 5, p, p * p - 2, p * p - 1):
                assert power(x, e, (1, 0), mul) == ladder_power(x, e, (1, 0), mul)
