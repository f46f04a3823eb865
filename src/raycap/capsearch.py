"""Search for principalization primes and build the cyclic companion field.

The companion field F of degree ell^n and conductor p is presented by the
minimal polynomial of the Gaussian period eta = Tr(zeta_p) down to F, read
by Newton's identities off the cyclotomic numbers of one pass over F_p.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import mul

from .errors import InputError, require
from .exactmath import is_prime, valuation
from .kummerfrob import (SCAN_COUNTERS, ConditionChecker, ConditionReport, SearchParams,
                         cyclotomic_step)
from .quadfield import FIELD_CACHE_SIZE, Modulus, QuadField, _primitive_root, quadratic_field
from .report import plain


def gaussian_period_min_poly(p: int, m: int) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of the minimal polynomial of the
    degree-m Gaussian period for the prime p, with m dividing p - 1."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if m < 1 or (p - 1) % m:
        raise InputError(f"degree {m} does not divide p - 1 = {p - 1}")
    f = (p - 1) // m
    # ind[x] = log_g(x) mod m: x lies in the class C_ind[x] of eta_ind[x]
    ind = bytearray(p) if m <= 256 else array("L", [0]) * p
    g, x = _primitive_root(p), 1
    for i in range(p - 1):
        ind[x] = i % m
        x = x * g % p
    # eta_0 * eta_k = sum_j (k, j) eta_j + f [-1 in C_k], with the cyclotomic
    # number (k, j) = #{x in C_k : x + 1 in C_j} and 1 = -sum_j eta_j
    cyc = Counter(zip(ind[1 : p - 1], ind[2:]))
    minus_one = ind[p - 1]
    for k in range(m):
        size = sum(cyc[k, j] for j in range(m)) + (k == minus_one)
        require(size == f, f"the class C_{k} holds {size} residues, not {f}")
    cols = [[cyc[k, j] - f * (k == minus_one) for k in range(m)] for j in range(m)]
    # v = eta_0^k on the basis eta_j has the trace s_k = -sum(v), and Newton's
    # identities k a_k = -sum_{i<k} a_i s_{k-i} give a_k, the coefficient of T^(m-k)
    v, s, a = [-1] * m, [m], [1]
    for k in range(1, m + 1):
        v = [sum(map(mul, v, col)) for col in cols]
        s.append(-sum(v))
        q, r = divmod(-sum(a[i] * s[k - i] for i in range(k)), k)
        require(r == 0, "a Newton division of the period power sums is not exact")
        a.append(q)
    return tuple(reversed(a))


@dataclass(frozen=True)
class CyclicFieldDesc:
    """The totally real cyclic field F of conductor p and degree ell^n."""

    p: int
    degree: int
    min_poly: tuple[int, ...]  # low-to-high, monic

    @property
    def disc(self) -> int:
        return self.p ** (self.degree - 1)

    def as_dict(self) -> dict:
        return plain(self, disc=self.disc)


def power_adjustment_hint(ell: int, h: int) -> dict:
    """What to adjoin when the target misses the ell^h-th powers: the degree
    ell^h real cyclotomic layer, and the congruence auxiliary primes must
    satisfy to split in it."""
    conductor = cyclotomic_step(ell, h + 1)
    return {
        "ell": ell,
        "h": h,
        "conductor": conductor,
        "degree": ell**h,
        "field": f"real cyclotomic subfield of conductor {conductor}",
        "prime_condition": f"q = 1 mod {conductor}",
    }


@dataclass(frozen=True)
class CandidateCertificate:
    d: int
    modulus: tuple  # Modulus.entries(): (p, a, b, g) per prime
    target: tuple[int, ...]
    ell: int
    n: int
    h: int
    h_K: int
    p: int
    root: int
    eps_character: dict
    minus_one_character: dict
    bound: int
    cyclic_field: CyclicFieldDesc

    def as_dict(self) -> dict:
        return plain(self)

    @staticmethod
    def from_dict(data: dict) -> "CandidateCertificate":
        """The certificate that `as_dict` wrote; InputError if a field is
        missing or not an integer where one is due."""
        try:
            cf = data["cyclic_field"]
            return CandidateCertificate(
                d=int(data["d"]),
                modulus=tuple(tuple(int(x) for x in t) for t in data["modulus"]),
                target=tuple(int(x) for x in data["target"]),
                ell=int(data["ell"]),
                n=int(data["n"]),
                h=int(data["h"]),
                h_K=int(data["h_K"]),
                p=int(data["p"]),
                root=int(data["root"]),
                eps_character=dict(data["eps_character"]),
                minus_one_character=dict(data["minus_one_character"]),
                bound=int(data["bound"]),
                cyclic_field=CyclicFieldDesc(
                    int(cf["p"]), int(cf["degree"]), tuple(int(c) for c in cf["min_poly"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate data: {exc}") from exc


def certificate_at(checker: ConditionChecker, rep: ConditionReport) -> CandidateCertificate:
    """The certificate of `checker`'s passing report `rep`, with the cyclic
    field of degree ell^n and conductor rep.p: the one record that search
    stamps and that verify rebuilds to compare."""
    require(rep.ok, f"no certificate at {rep.p}: the conditions fail at ({rep.failed_at})")
    params = checker.params
    degree = params.ell**params.n
    return CandidateCertificate(
        d=checker.field.d,
        modulus=checker.modulus.entries(),
        target=checker.target,
        ell=params.ell,
        n=params.n,
        h=checker.h,
        h_K=checker.h_K,
        p=rep.p,
        root=rep.root,
        eps_character=rep.eps_character,
        minus_one_character=rep.minus_one_character,
        bound=params.bound,
        cyclic_field=CyclicFieldDesc(rep.p, degree, gaussian_period_min_poly(rep.p, degree)),
    )


@dataclass
class SearchResult:
    status: str  # "found" | "not_found" | "power_blocked"
    certificate: CandidateCertificate | None = None
    stats: dict = dc_field(default_factory=dict)
    hint: dict | None = None
    params: SearchParams | None = None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.as_dict() if self.certificate else None,
            "stats": self.stats,
            "hint": self.hint,
            "n": self.params.n if self.params else None,
        }


def _chunk_worker(args) -> tuple[int | None, dict]:
    d, mod_desc, target, ell, n, h, bound, lo, hi = args
    return _checker_cached(d, mod_desc, target, ell, n, h, bound).scan(lo, hi)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _checker_cached(d, mod_desc, target, ell, n, h, bound) -> ConditionChecker:
    field = quadratic_field(d)
    modulus = Modulus.from_entries(field, mod_desc)
    return ConditionChecker(field, modulus, target, SearchParams(ell, n, h, bound))


def find_principalizing_prime(
    field: QuadField,
    modulus: Modulus,
    target: tuple[int, ...],
    params: SearchParams,
    jobs: int = 1,
) -> SearchResult:
    """Scan primes p <= params.bound for conditions (i')-(iv); the first hit
    becomes a certificate carrying the cyclic companion field."""
    checker = ConditionChecker(field, modulus, target, params)
    if not checker.iv_ok:
        return SearchResult(
            status="power_blocked",
            hint=power_adjustment_hint(params.ell, checker.h),
            stats={"reason": f"target is not an ell^{checker.h}-th power"},
            params=params,
        )
    if not checker.iii_attainable:
        return SearchResult(
            status="not_found",
            stats={
                "reason": "character order unattainable: eps is an "
                f"ell^{valuation(checker.eps_unit_exponent, params.ell)}-power beyond the"
                f" height h = {checker.h}",
                "eps_unit_exponent": checker.eps_unit_exponent,
            },
            params=params,
        )
    if jobs > 1:
        found_p, stats = _parallel_scan(checker, jobs)
    else:
        found_p, stats = checker.scan(3, params.bound)
    if found_p is None:
        stats["reason"] = f"no prime below {params.bound} passed all conditions"
        return SearchResult(status="not_found", stats=stats, params=params)
    cert = certificate_at(checker, checker.check(found_p))
    return SearchResult(status="found", certificate=cert, stats=stats, params=params)


def _parallel_scan(checker: ConditionChecker, jobs: int):
    """Deterministic chunked scan: ranges are examined in ascending order and
    the first hit in the earliest hitting chunk wins."""
    from concurrent.futures import ProcessPoolExecutor

    params, mod_desc = checker.params, checker.modulus.entries()
    chunk = max(20000, params.bound // (8 * jobs))
    ranges = [
        (lo, min(lo + chunk - 1, params.bound))
        for lo in range(3, params.bound + 1, chunk)
    ]
    args = [
        (checker.field.d, mod_desc, tuple(checker.target), params.ell, params.n,
         params.h, params.bound, lo, hi)
        for lo, hi in ranges
    ]
    total = dict.fromkeys(SCAN_COUNTERS, 0)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for (p, stats) in pool.map(_chunk_worker, args):
            for k, v in stats.items():
                total[k] = total.get(k, 0) + v
            if p is not None:
                return p, total
    return None, total


def search_with_escalation(
    field: QuadField,
    modulus: Modulus,
    target: tuple[int, ...],
    params: SearchParams,
    n_max: int | None = None,
) -> list[SearchResult]:
    """Run the search at params.n, escalating n upward until a certificate
    appears or n_max is passed. Every attempt is kept in the record."""
    n_max = n_max if n_max is not None else params.n + 1
    attempts: list[SearchResult] = []
    n = params.n
    while n <= n_max:
        pn = SearchParams(params.ell, n, params.h, params.bound)
        res = find_principalizing_prime(field, modulus, target, pn)
        attempts.append(res)
        if res.status == "found":
            break
        n += 1
    return attempts
