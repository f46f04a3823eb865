"""Tests for Gaussian period polynomials and the principalization search."""
import pytest

from oracles import det_bareiss, period_poly_by_crt
from raycap.capsearch import (
    CandidateCertificate,
    CyclicFieldDesc,
    SearchResult,
    find_principalizing_prime,
    gaussian_period_min_poly,
    power_adjustment_hint,
    search_with_escalation,
)
from raycap.errors import InputError, InvariantError
from raycap.exactmath import primes_up_to
from raycap.kummerfrob import SearchParams
from raycap.quadfield import Modulus, modulus_from_rational, quadratic_field


def order_by_walk(g: int, p: int) -> int:
    """The multiplicative order of g mod p, by walking its powers."""
    x, k = g % p, 1
    while x != 1:
        x, k = x * g % p, k + 1
    return k


def primitive_root(p: int) -> int:
    """The least generator of (Z/p)^*, by brute force: the oracle below must
    not share the library's primitive root, which the period polynomial's
    index table stands on."""
    return next(g for g in range(1, p) if order_by_walk(g, p) == p - 1)


def exact_period_poly(p: int, m: int) -> tuple[int, ...]:
    """Independent construction inside Z[zeta_p]: multiply out prod(T - eta_j)
    with coefficients as integer vectors on the zeta-power basis, then read
    off rational integers via a_0 - a_1 once all higher coordinates agree."""
    g = primitive_root(p)
    R = (p - 1) // m
    periods = []
    for j in range(m):
        v = [0] * p
        for i in range(R):
            v[pow(g, j + i * m, p)] += 1
        periods.append(v)

    def conv(a, b):
        out = [0] * p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[(i + j) % p] += ai * bj
        return out

    one = [1] + [0] * (p - 1)
    poly = [one[:]]
    for eta in periods:
        nxt = [[0] * p for _ in range(len(poly) + 1)]
        for k, c in enumerate(poly):
            nxt[k + 1] = [x + y for x, y in zip(nxt[k + 1], c)]
            me = conv(c, eta)
            nxt[k] = [x - y for x, y in zip(nxt[k], me)]
        poly = nxt
    coeffs = []
    for c in poly:
        assert len(set(c[1:])) == 1, "coefficient must be a rational integer"
        coeffs.append(c[0] - c[1])
    return tuple(coeffs)


def poly_disc(coeffs: tuple[int, ...]) -> int:
    """Discriminant of a monic integer polynomial via the Sylvester resultant
    of f and f'."""
    f = list(coeffs)
    n = len(f) - 1
    fp = [i * f[i] for i in range(1, n + 1)]
    m = len(fp) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + f[::-1] + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + fp[::-1] + [0] * (size - m - 1 - i))
    res = det_bareiss(rows)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


class TestPeriodPolynomials:
    @pytest.mark.parametrize(
        "p,m,expect",
        [
            (5, 2, (-1, 1, 1)),
            (7, 3, (-1, -2, 1, 1)),
            (13, 1, (1, 1)),
            (13, 2, (-3, 1, 1)),
            (17, 2, (-4, 1, 1)),
            (5, 4, (1, 1, 1, 1, 1)),
            (13, 4, (3, -4, 2, 1, 1)),
        ],
    )
    def test_known_values(self, p, m, expect):
        assert gaussian_period_min_poly(p, m) == expect

    def test_matches_exact_cyclotomic_arithmetic(self):
        for p in (5, 7, 11, 13, 17, 19, 23):
            for m in range(1, p):
                if (p - 1) % m:
                    continue
                assert gaussian_period_min_poly(p, m) == exact_period_poly(p, m)

    def test_quadratic_case_closed_form(self):
        # m=2 and p = 1 mod 4: x^2 + x - (p-1)/4
        for p in (5, 13, 17, 29, 37, 41, 53, 61):
            assert gaussian_period_min_poly(p, 2) == (-(p - 1) // 4, 1, 1)

    def test_full_degree_recovers_cyclotomic(self):
        # at p = 263, m = 262 > 256 needs an index table wider than a byte
        for p in (5, 7, 11, 13, 263):
            assert gaussian_period_min_poly(p, p - 1) == tuple([1] * p)

    def test_discriminant_shape(self):
        # disc(poly) = p^(m-1) * [O_F : Z[eta]]^2 with the index prime to p,
        # since the field has conductor p and discriminant p^(m-1); the power
        # basis need not be maximal (index 3 at p=13, m=4)
        for p, m in ((5, 2), (13, 2), (13, 3), (13, 4), (17, 4), (29, 2), (41, 8)):
            disc = poly_disc(gaussian_period_min_poly(p, m))
            assert disc > 0 and disc % p ** (m - 1) == 0
            cof = disc // p ** (m - 1)
            assert cof % p != 0
            from math import isqrt

            assert isqrt(cof) ** 2 == cof
        assert poly_disc(gaussian_period_min_poly(13, 4)) == 13**3 * 9

    def test_input_validation(self):
        with pytest.raises(InputError):
            gaussian_period_min_poly(8, 2)
        with pytest.raises(InputError):
            gaussian_period_min_poly(13, 5)

    def test_matches_crt_construction(self):
        # the auxiliary-prime CRT construction this one replaced, on all
        # 1,144 pairs with p an odd prime below 1500 and m <= 12
        pairs = [(p, m) for p in primes_up_to(1499)[1:] for m in range(1, 13) if (p - 1) % m == 0]
        assert len(pairs) == 1144
        for p, m in pairs:
            assert gaussian_period_min_poly(p, m) == period_poly_by_crt(p, m), (p, m)

    def test_primitive_root_generates(self):
        from raycap.quadfield import _primitive_root

        assert _primitive_root(2) == 1
        for p in primes_up_to(4999)[1:]:
            assert order_by_walk(_primitive_root(p), p) == p - 1, p

    def test_wrong_coefficients_raise_under_any_optimisation(self, monkeypatch):
        """The coset check is raised, not asserted, so `python -O` keeps it:
        an index table walked from a non-generator stops with exit 8 (at
        (13, 2), g = 4 would otherwise give (5, 1, 1) for (-3, 1, 1))."""
        from raycap import capsearch

        for p, m, g in ((13, 4, 3), (13, 2, 4)):
            monkeypatch.setattr(capsearch, "_primitive_root", lambda q, g=g: g)
            with pytest.raises(InvariantError, match="residues, not") as err:
                gaussian_period_min_poly(p, m)
            assert err.value.exit_code == 8


class TestCyclicFieldDesc:
    def test_disc_and_dict(self):
        F = CyclicFieldDesc(5, 2, (-1, 1, 1))
        assert F.disc == 5
        d = F.as_dict()
        assert d["p"] == 5 and d["degree"] == 2 and d["disc"] == 5
        assert d["min_poly"] == [-1, 1, 1]


class TestPowerAdjustmentHint:
    def test_two_adic_layer(self):
        hint = power_adjustment_hint(2, 1)
        assert hint["conductor"] == 8 and hint["degree"] == 2
        assert hint["prime_condition"] == "q = 1 mod 8"

    def test_odd_layer(self):
        hint = power_adjustment_hint(3, 1)
        assert hint["conductor"] == 9 and hint["degree"] == 3


class TestSearch:
    def test_flagship_certificate(self):
        K = quadratic_field(34)
        res = find_principalizing_prime(
            K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=10**4)
        )
        assert res.status == "found"
        c = res.certificate
        assert c.p == 5 and c.root == 1
        assert c.h == 0 and c.h_K == 2
        assert c.eps_character == {"value": 4, "order": 2}
        assert c.cyclic_field == CyclicFieldDesc(5, 2, (-1, 1, 1))
        assert res.stats["scanned"] == 1

    def test_scan_list_all_found(self):
        for d in (15, 35, 39, 51, 55, 91, 95):
            K = quadratic_field(d)
            res = find_principalizing_prime(
                K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=10**5)
            )
            assert res.status == "found", d

    def test_power_blocked_reports_hint(self):
        # at n=2 the flagship target must be a square in the ray group; the
        # order-2 class is not, so the search refuses and points at the
        # conductor-8 layer
        K = quadratic_field(34)
        res = find_principalizing_prime(
            K, Modulus(K, ()), (1,), SearchParams(2, 2, bound=100)
        )
        assert res.status == "power_blocked"
        assert res.hint["conductor"] == 8
        assert res.certificate is None

    def test_character_blocked_skips_scan(self):
        # d=10 has a norm -1 unit: eps = u^2 blocks condition (iii) at h=0
        K = quadratic_field(10)
        res = find_principalizing_prime(
            K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=10**5)
        )
        assert res.status == "not_found"
        assert "scanned" not in res.stats
        assert res.stats["eps_unit_exponent"] == 2

    def test_not_found_within_bound(self):
        K = quadratic_field(34)
        res = find_principalizing_prime(
            K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=4)
        )
        assert res.status == "not_found"
        assert "reason" in res.stats

    def test_quartic_certificate(self):
        K = quadratic_field(82)
        res = find_principalizing_prime(
            K, Modulus(K, ()), (2,), SearchParams(2, 2, bound=10**4)
        )
        assert res.status == "found"
        assert res.certificate.p == 241
        assert res.certificate.cyclic_field.degree == 4
        assert res.certificate.cyclic_field.disc == 241**3

    def test_deterministic(self):
        K = quadratic_field(34)
        args = (K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=10**4))
        assert (
            find_principalizing_prime(*args).as_dict()
            == find_principalizing_prime(*args).as_dict()
        )

    def test_parallel_agrees_with_serial(self):
        K = quadratic_field(34)
        m = Modulus(K, ())
        params = SearchParams(2, 1, bound=2000)
        serial = find_principalizing_prime(K, m, (1,), params)
        parallel = find_principalizing_prime(K, m, (1,), params, jobs=2)
        assert serial.certificate.p == parallel.certificate.p

    @pytest.mark.parametrize(
        "d,q0,target,n,h,p",
        [
            (102, 5, (0, 0), 3, None, 21841),  # hit in the second of three chunks
            (34, 1, (0,), 1, 0, None),  # no hit: all three chunks run to the end
        ],
    )
    def test_parallel_stats_match_serial(self, d, q0, target, n, h, p):
        # bound 50000 splits into chunks [3, 20002], [20003, 40002] and
        # [40003, 50000]; the chunk sums must equal the serial counters
        K = quadratic_field(d)
        m = modulus_from_rational(K, q0)
        params = SearchParams(2, n, h, bound=50000)
        serial = find_principalizing_prime(K, m, target, params)
        parallel = find_principalizing_prime(K, m, target, params, jobs=2)
        assert serial.stats == parallel.stats
        assert serial.stats["scanned"] > 0
        got = [res.certificate.p if res.certificate else None for res in (serial, parallel)]
        assert got == [p, p]


class TestEscalation:
    def test_single_attempt_when_found(self):
        K = quadratic_field(34)
        attempts = search_with_escalation(
            K, Modulus(K, ()), (1,), SearchParams(2, 1, bound=10**4)
        )
        assert len(attempts) == 1 and attempts[0].status == "found"

    def test_unattainable_reason_names_the_unit_exponent(self):
        """d = 10: the fundamental unit has norm -1, so eps = u^2 and its
        character at n = 1 is trivial; the reason names ell^(v_ell(2)) =
        ell^1."""
        K = quadratic_field(10)
        res = find_principalizing_prime(K, Modulus(K, ()), (0,), SearchParams(2, 1, 0))
        assert res.status == "not_found"
        assert res.stats == {
            "reason": "character order unattainable: eps is an ell^1-power beyond"
            " the height h = 0",
            "eps_unit_exponent": 2,
        }

    def test_blocked_chain_records_every_n(self):
        # mod 3 the augmented unit is u^2, so n=1 is character-blocked; the
        # escalated n=2 run scans and is recorded even though nothing turns up
        K = quadratic_field(34)
        m3 = modulus_from_rational(K, 3)
        attempts = search_with_escalation(
            K, m3, (2,), SearchParams(2, 1, bound=3000), n_max=2
        )
        assert [a.params.n for a in attempts] == [1, 2]
        assert attempts[0].status == "not_found"
        assert "unattainable" in attempts[0].stats["reason"]
        assert attempts[1].status == "not_found"
        assert attempts[1].stats["scanned"] > 0
