"""The four benchmark workloads: what one op does, how its output is reduced
to a canonical payload, and the independent checks each op must pass.

An op is a pure function of one population entry (see population/), so
its stamped digest can be recorded once and compared on every later run.
`run_op` is the timed part and calls only the library. `payload`, `digest`
and `oracle_failures` run afterwards, outside the timed phase: they read the
results and call no library routine but `report.stamp`.
"""
from __future__ import annotations

import math
import random
import time

from raycap import report
from raycap.ambigcheck import ambig_case
from raycap.biquad import verify_certificate
from raycap.capsearch import find_principalizing_prime, search_with_escalation
from raycap.kummerfrob import SearchParams
from raycap.quadfield import (
    class_group,
    factor_prime,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
)

WORKLOADS = ("classgroup", "scan", "certify", "ambig")

CLASSGROUP_QUERIES = 12
CLASSGROUP_QUERY_PRIME_BOUND = 500
CERTIFY_BOUND = 10**5
CERTIFY_N_MAX = 2


def fundamental_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def small_odd_modulus(D: int, count: int = 2) -> int:
    """Product of the first `count` odd primes that do not divide D."""
    out, found = 1, 0
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        if D % q:
            out, found = out * q, found + 1
            if found == count:
                return out
    raise ValueError(f"no {count} small odd primes coprime to {D}")


def order_two_target(invariants) -> tuple[int, ...]:
    """The unique class of order 2; population entries are chosen so that
    the 2-part of the group is cyclic, which makes this basis-independent."""
    even = [i for i, n in enumerate(invariants) if n % 2 == 0]
    if len(even) != 1:
        raise ValueError(f"2-part of {invariants} is not cyclic")
    i = even[0]
    return tuple(invariants[i] // 2 if j == i else 0 for j in range(len(invariants)))


# ---------------------------------------------------------------------------
# timed ops


def _classgroup_queries(K, m: int):
    """A batch of prime ideals coprime to m, seeded by the field alone."""
    rng = random.Random(f"classgroup-queries:{K.d}")
    ideals = []
    q = 2
    while q <= CLASSGROUP_QUERY_PRIME_BOUND:
        if m % q and all(q % r for r in range(2, math.isqrt(q) + 1)):
            kind, data = factor_prime(K, q)
            if kind != "inert":
                ideals.append(data[rng.randrange(len(data))][0])
        q += 1
    return rng.sample(ideals, min(CLASSGROUP_QUERIES, len(ideals)))


def _op_classgroup(entry: dict) -> dict:
    K = quadratic_field(entry["d"])
    cl = class_group(K)
    m = small_odd_modulus(K.D)
    ray = ray_class_group(K, modulus_from_rational(K, m))
    dlogs = [ray.dlog(P) for P in _classgroup_queries(K, m)]
    return {"cl": cl, "m": m, "ray": ray, "dlogs": dlogs}


def _op_scan(entry: dict) -> dict:
    K = quadratic_field(entry["d"])
    modulus = modulus_from_rational(K, entry["m"])
    target = (0,) * len(ray_class_group(K, modulus).group.invariants)
    t0 = time.perf_counter()
    res = find_principalizing_prime(
        K, modulus, target, SearchParams(2, 1, 0, entry["bound"])
    )
    scan_s = time.perf_counter() - t0
    return {"result": res, "candidates": res.stats.get("scanned", 0),
            "scan_s": scan_s, "stats": [res.stats],
            "found": int(res.status == "found")}


def _op_certify(entry: dict) -> dict:
    K = quadratic_field(entry["d"])
    modulus = modulus_from_rational(K, entry["m"])
    target = order_two_target(ray_class_group(K, modulus).group.invariants)
    t0 = time.perf_counter()
    attempts = search_with_escalation(
        K, modulus, target, SearchParams(2, 1, 0, CERTIFY_BOUND), n_max=CERTIFY_N_MAX
    )
    scan_s = time.perf_counter() - t0
    verify, verify_s = None, None
    if attempts[-1].status == "found":
        t1 = time.perf_counter()
        verify = verify_certificate(attempts[-1].certificate)
        verify_s = time.perf_counter() - t1
    return {
        "target": target,
        "attempts": attempts,
        "verify": verify,
        "verify_s": verify_s,
        "candidates": sum(a.stats.get("scanned", 0) for a in attempts),
        "scan_s": scan_s,
        "stats": [a.stats for a in attempts],
        "found": int(attempts[-1].status == "found"),
    }


def _op_ambig(entry: dict) -> dict:
    return {"report": ambig_case(tuple(entry["case"]))}


_OPS = {
    "classgroup": _op_classgroup,
    "scan": _op_scan,
    "certify": _op_certify,
    "ambig": _op_ambig,
}


def run_op(workload: str, entry: dict) -> dict:
    return _OPS[workload](entry)


# ---------------------------------------------------------------------------
# canonical payloads


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (positive pivots, entries above a pivot
    reduced into [0, pivot)). Kept here so the digest does not depend on
    the library's own HNF."""
    h = [list(r) for r in rows]
    ncols = len(h[0]) if h else 0
    top = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(top, len(h)) if h[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(h[i][col]))
            h[top], h[piv] = h[piv], h[top]
            done = True
            for i in range(top + 1, len(h)):
                q = h[i][col] // h[top][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[top])]
                if h[i][col]:
                    done = False
            if done:
                break
        if top < len(h) and h[top][col]:
            if h[top][col] < 0:
                h[top] = [-a for a in h[top]]
            for i in range(top):
                q = h[i][col] // h[top][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[top])]
            top += 1
    return h[:top]


def relation_lattice(dlogs, invariants) -> list[list[int]]:
    """HNF basis of {x : sum x_i [I_i] = 0}: the relations among the queried
    classes, which do not depend on the basis the group is presented in."""
    k, s = len(dlogs), len(invariants)
    rows = [list(y) + [int(i == j) for j in range(k)] for i, y in enumerate(dlogs)]
    rows += [[n if i == j else 0 for j in range(s)] + [0] * k
             for i, n in enumerate(invariants)]
    return [r[s:] for r in hnf(rows) if not any(r[:s])]


def _ideal_desc(I) -> list[int]:
    return [I.a if I.g == 1 else I.g, I.a, I.b, I.g]


def payload(workload: str, entry: dict, raw: dict) -> dict:
    if workload == "classgroup":
        cl, ray = raw["cl"], raw["ray"]
        return {
            "d": entry["d"],
            "h": cl.h,
            "class_invariants": list(cl.group.invariants),
            "modulus": raw["m"],
            "ray_invariants": list(ray.group.invariants),
            "ray_ideal_generators": [_ideal_desc(I) for I in ray.ideal_gens],
            "residue_order": ray.residue.order(),
            "unit_image_order": ray.unit_image_order,
            "query_relations": relation_lattice(raw["dlogs"], ray.group.invariants),
        }
    if workload == "scan":
        res = raw["result"]
        return {
            "entry": entry,
            "status": res.status,
            "counts": {k: v for k, v in sorted(res.stats.items()) if k != "reason"},
        }
    if workload == "certify":
        rep = raw["verify"]
        return {
            "entry": entry,
            "target": list(raw["target"]),
            "attempts": [
                {"n": a.params.n, "status": a.status,
                 "certificate": a.certificate.as_dict() if a.certificate else None,
                 "counts": {k: v for k, v in sorted(a.stats.items())
                            if k != "reason"}}
                for a in raw["attempts"]
            ],
            "verify": None if rep is None else
            {"status": rep.status,
             "generator": list(rep.generator) if rep.generator else None},
        }
    return raw["report"].as_dict()


def digest(workload: str, entry: dict, raw: dict) -> str:
    """sha256 of the op's payload, stamped the way the library stamps its
    reports (looked up on the module so a traced run counts the call)."""
    return report.stamp(f"bench-{workload}", payload(workload, entry, raw))["sha256"]


# ---------------------------------------------------------------------------
# independent oracles


def _kronecker_table(D: int) -> list[int]:
    """chi(a) = (D/a) for 0 <= a < |D|, built multiplicatively from its
    values at primes (Euler's criterion, and D mod 8 at 2)."""
    n = abs(D)
    spf = list(range(n))
    for i in range(2, math.isqrt(n - 1) + 1):
        if spf[i] == i:
            for j in range(i * i, n, i):
                if spf[j] == j:
                    spf[j] = i
    chi = [0] * n
    if n > 1:
        chi[1] = 1
    for a in range(2, n):
        p = spf[a]
        if p == a:
            if D % p == 0:
                chi[a] = 0
            elif p == 2:
                chi[a] = 1 if D % 8 in (1, 7) else -1
            else:
                chi[a] = 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1
        else:
            chi[a] = chi[p] * chi[a // p]
    return chi


def analytic_class_number(D: int) -> int:
    """h(D) = -(1/|D|) * sum_{a<|D|} (D/a) a, for fundamental D < -4."""
    chi = _kronecker_table(D)
    total = -sum(c * a for a, c in enumerate(chi))
    if total % abs(D):
        raise ArithmeticError(f"analytic class number sum not divisible by {D}")
    return total // abs(D)


def oracle_failures(workload: str, entry: dict, raw: dict) -> list[str]:
    """Checks that do not go through the golden digest."""
    bad = []
    if workload == "classgroup":
        cl, ray = raw["cl"], raw["ray"]
        D = fundamental_disc(entry["d"])
        if D < -4 and (h := analytic_class_number(D)) != cl.h:
            bad.append(f"class number {cl.h} != analytic {h}")
        if ray.group.order() * ray.unit_image_order != cl.h * ray.residue.order():
            bad.append("exact-sequence order identity fails")
    elif workload in ("scan", "certify"):
        for stats in raw["stats"]:
            if "scanned" not in stats:
                continue  # the search stopped before scanning
            rejected = sum(v for k, v in stats.items() if k.startswith("rejected_"))
            found = "reason" not in stats  # only a miss records a reason
            if stats["scanned"] != rejected + found:
                bad.append(f"scan counters do not add up: {stats}")
    elif not raw["report"].equal:
        r = raw["report"]
        bad.append(f"formula {r.formula} != direct {r.direct}")
    return bad
