"""End-to-end acceptance gate.

Seven checks, one test each, every test printing a single PASS/FAIL line with
the measured counts and timings.  Each check is a self-contained kernel
returning (ok, detail, payload); the last test reruns all kernels twice and
demands byte-identical stamped JSON, so nothing here may depend on dict order,
wall-clock values inside payloads, or unseeded randomness.
"""

from __future__ import annotations

import random
import time
from itertools import product as iproduct
from math import gcd, lcm

from oracles import (
    analytic_class_number,
    bq_principal,
    cyclic_complement,
    multiplicative_order,
    smallest_prime_factors,
    splitting_degree,
    unit_closure,
)
from raycap.ambigcheck import ambig_case, fundamental_field_params, rayclass_Q
from raycap.biquad import (
    biquad_field,
    extend_ideal,
    extend_modulus,
    is_principal,
    primes_above,
    verify_certificate,
)
from raycap.capsearch import SearchParams, gaussian_period_min_poly, search_with_escalation
from raycap.exactmath import is_prime
from raycap.quadfield import (
    Modulus,
    class_group,
    modulus_from_rational,
    prime_above_from_root,
    quadratic_field,
    ray_class_group,
    unit_gens,
)
from raycap.report import canonical_json, stamp

BIQUAD_CASES = [
    ("biquad", 2, 5, 1, ()),
    ("biquad", 2, 5, 2, ()),
    ("biquad", 2, 5, 3, ()),
    ("biquad", 6, 5, 1, ()),
    ("biquad", 3, 5, 1, (7,)),
    ("biquad", 2, 13, 2, ()),
    ("biquad", 7, 5, 3, ()),
    ("biquad", 2, 5, 1, (11,)),
    ("biquad", 3, 13, 1, ()),
]


def _line(k: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {k} ({label}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _quad_corpus() -> list[tuple]:
    """m = 1 over every fundamental field with |disc| <= 200, then odd prime
    moduli coprime to the discriminant over the |disc| <= 120 slice."""
    cases: list[tuple] = [("quad", d, 1) for d in fundamental_field_params(200)]
    for d in fundamental_field_params(120):
        D = quadratic_field(d).D
        for m in (3, 5, 7):
            if gcd(m, D) == 1:
                cases.append(("quad", d, m))
    return cases


# ---------------------------------------------------------------- criterion 1

def _run_ambig_identity():
    t0 = time.monotonic()
    layer_a = [("quad", d, 1) for d in fundamental_field_params(200)]
    layer_b = [c for c in _quad_corpus() if c[2] != 1]
    reports = [ambig_case(c) for c in layer_a + layer_b + BIQUAD_CASES]
    # both routes take h from class_group; the analytic formula is the
    # independent third check of it, on every imaginary field of the corpus
    spf = smallest_prime_factors(201)
    imaginary = sorted({quadratic_field(c[1]) for c in layer_a + layer_b if c[1] < 0},
                       key=lambda K: K.d)
    bad_h = [K.d for K in imaginary if class_group(K).h != analytic_class_number(K.D, spf)]
    elapsed = time.monotonic() - t0
    bad = [r.params for r in reports if not r.equal]
    ok = (not bad
          and not bad_h
          and len(layer_a) >= 100
          and len(layer_b) >= 50
          and len(BIQUAD_CASES) >= 5
          and len(imaginary) >= 50
          and elapsed < 600)
    detail = (f"{len(reports)} cases = {len(layer_a)} fields + {len(layer_b)} "
              f"modulus pairs + {len(BIQUAD_CASES)} biquadratic, "
              f"{len(bad)} mismatches, h of {len(imaginary)} imaginary fields "
              f"against the analytic formula, {len(bad_h)} mismatches, {elapsed:.1f}s")
    payload = {
        "layers": [len(layer_a), len(layer_b), len(BIQUAD_CASES)],
        "values": [[list(r.params), r.formula, r.direct] for r in reports],
    }
    return ok, detail, payload


def test_criterion_1_ambiguous_count_formula_equals_direct():
    ok, detail, _ = _run_ambig_identity()
    _line(1, "formula vs direct ambiguous count", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 2

def _rational_brute(m: int) -> tuple[int, dict[int, int]]:
    """Order of (Z/m)^*/{+-1} and, for each divisor e of the exponent, the
    number of classes with a^e = +-1 (mod m)."""
    cls = sorted({min(a % m, (m - a) % m) for a in range(m) if gcd(a, m) == 1})
    order = len(cls)
    def cls_pow(a, e):
        v = pow(a, e, m)
        return min(v, (m - v) % m)
    exponent = 1
    for a in cls:
        e = 1
        while cls_pow(a if a else 1, e) != 1 % m:
            e += 1
        exponent = lcm(exponent, e)
    counts = {}
    for e in range(1, exponent + 1):
        if exponent % e == 0:
            counts[e] = sum(1 for a in cls if cls_pow(a if a else 1, e) == 1 % m)
    return order, counts


def _run_ray_order_identity():
    quad_fail = []
    pairs = [(d, m) for kind, d, m in _quad_corpus()]
    for d, m in pairs:
        K = quadratic_field(d)
        ray = ray_class_group(K, modulus_from_rational(K, m))
        res = ray.residue
        img = len(unit_closure(res, unit_gens(K))[0])
        if ray.group.order() * img != ray.cl.h * res.order():
            quad_fail.append((d, m))
        if img != ray.unit_image_order:
            quad_fail.append((d, m))
    rat_fail = []
    mods = [m for m in range(1, 101) if _squarefree(m)]
    for m in mods:
        G = rayclass_Q(m)
        order, counts = _rational_brute(m)
        if G.order() != order:
            rat_fail.append(m)
            continue
        for e, want in counts.items():
            got = 1
            for n in G.invariants:
                got *= gcd(e, n)
            if got != want:
                rat_fail.append(m)
                break
    ok = not quad_fail and not rat_fail
    detail = (f"{len(pairs)} quadratic (field, modulus) pairs and "
              f"{len(mods)} rational moduli, failures {quad_fail + rat_fail}")
    payload = {"pairs": len(pairs), "rational": len(mods),
               "orders": [[d, m,
                           ray_class_group(quadratic_field(d),
                                           modulus_from_rational(quadratic_field(d), m)
                                           ).group.order()]
                          for d, m in pairs]}
    return ok, detail, payload


def test_criterion_2_ray_class_order_identity():
    ok, detail, _ = _run_ray_order_identity()
    _line(2, "ray class order identity", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 3

def _order_two_target(ray):
    inv = ray.group.invariants
    for i in range(len(inv) - 1, -1, -1):
        if inv[i] % 2 == 0:
            return tuple((inv[i] // 2 if j == i else 0) for j in range(len(inv)))
    return None


def _capitulation_case(d: int, mod: int) -> dict:
    K = quadratic_field(d)
    m = modulus_from_rational(K, mod) if mod > 1 else Modulus(K, ())
    ray = ray_class_group(K, m)
    target = _order_two_target(ray)
    if target is None:
        return {"d": d, "mod": mod, "status": "no order-2 class"}
    t0 = time.monotonic()
    attempts = search_with_escalation(
        K, m, target, SearchParams(2, 1, 0, 10**6), n_max=2)
    last = attempts[-1]
    row = {
        "d": d, "mod": mod, "target": list(target),
        "attempts": [{"n": a.params.n, "status": a.status,
                      "p": a.certificate.p if a.certificate else None}
                     for a in attempts],
        "status": last.status,
    }
    if last.status == "found":
        cert = last.certificate
        rep = verify_certificate(cert)
        row["verified"] = rep.status
        row["p"] = cert.p
        if rep.status == "capitulates":
            # re-derive the claim from the certified generator alone: it must
            # generate exactly the extended ideal and be 1 mod every modulus
            # prime upstairs
            L = biquad_field(d, cert.p)
            gamma = L.elt(*rep.generator)
            p_K = prime_above_from_root(K, cert.p, cert.root)
            m_L = extend_modulus(L, m)
            row["generator"] = list(rep.generator)
            row["ideal_equality"] = (
                bq_principal(gamma) == extend_ideal(L, p_K))
            row["congruent_to_one"] = all(
                Q.contains(gamma - L.one()) for Q in m_L)
    row["seconds"] = round(time.monotonic() - t0, 3)
    return row


def _run_capitulation_scan():
    rows = []
    caps = []
    for d in range(2, 101):
        if not _squarefree(d):
            continue
        row = _capitulation_case(d, 1)
        if row.get("status") == "no order-2 class":
            continue
        rows.append(row)
        if row.get("verified") == "capitulates":
            caps.append(row)
        if len(caps) >= 5:
            break
    mod_row = _capitulation_case(11, 3)  # nontrivial congruence upstairs
    rows.append(mod_row)
    flag = next((r for r in caps if r["d"] == 34), None)
    ok = (len(caps) >= 5
          and flag is not None and flag["p"] == 5
          and all(r["p"] <= 10**6 for r in caps)
          and all(r["ideal_equality"] and r["congruent_to_one"] for r in caps)
          and all(r["seconds"] < 300 for r in rows)
          and mod_row.get("verified") == "capitulates"
          and mod_row.get("ideal_equality") and mod_row.get("congruent_to_one"))
    time_max = max(r["seconds"] for r in rows)
    detail = (f"{len(caps)} verified capitulations "
              f"{[(r['d'], r['p']) for r in caps]}, modulus case "
              f"(d=11, m=3) -> p={mod_row.get('p')} {mod_row.get('verified')}, "
              f"max {time_max:.1f}s/case")
    for r in rows:
        r.pop("seconds")  # timing is not part of the deterministic payload
    payload = {"rows": rows}
    return ok, detail, payload


def test_criterion_3_capitulation_search_and_verify():
    ok, detail, _ = _run_capitulation_scan()
    _line(3, "principalizing prime search + verification", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 4

def _ell_groups(ell: int, bound: int) -> list[tuple[int, ...]]:
    out = []
    def rec(maxexp, left, cur):
        if cur:
            out.append(tuple(ell**a for a in cur))
        e = 1
        while ell**e <= left and e <= maxexp:
            rec(e, left // ell**e, cur + [e])
            e += 1
    rec(99, bound, [])
    return out


def _run_complement_brute():
    groups = checked = fails = 0
    for ell in (2, 3):
        for inv in _ell_groups(ell, 256):
            groups += 1
            for c in iproduct(*(range(di) for di in inv)):
                i0, basis = cyclic_complement(inv, c, ell)
                ord_c = 1
                for ci, di in zip(c, inv):
                    ord_c = lcm(ord_c, di // gcd(ci, di))
                # basis must be the standard vectors away from i0, so the
                # quotient is Z/inv[i0] and B is {x : x[i0] = 0}
                shape_ok = (len(basis) == len(inv) - 1
                            and all(sum(b) == 1 and b[i0] == 0 for b in basis))
                # the class of c keeps its full order in the quotient ...
                embeds = inv[i0] // gcd(c[i0], inv[i0]) == ord_c
                # ... equivalently no smaller multiple of c lands in B
                meets = all((k * c[i0]) % inv[i0] != 0 for k in range(1, ord_c))
                checked += 1
                if not (shape_ok and embeds and meets):
                    fails += 1
    ok = fails == 0 and groups == 84
    detail = (f"{groups} abelian ell-groups of order <= 256 (ell = 2, 3), "
              f"{checked} cyclic subgroups, {fails} failures")
    payload = {"groups": groups, "checked": checked, "fails": fails}
    return ok, detail, payload


def test_criterion_4_cyclic_complement_lemma_brute():
    ok, detail, _ = _run_complement_brute()
    _line(4, "cyclic complement lemma", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 5

def _run_period_splitting(seed: int = 5):
    rng = random.Random(seed)
    checked = skipped = mismatches = 0
    samples = []
    while checked < 50:
        m = rng.choice([2, 3, 4, 5, 6, 8])
        while True:
            p = rng.randrange(m + 2, 4000)
            if p % m == 1 and is_prime(p):
                break
        while True:
            q = rng.randrange(2, 1000)
            if is_prime(q) and q != p:
                break
        coeffs = gaussian_period_min_poly(p, m)
        want = multiplicative_order(pow(q, (p - 1) // m, p), p)
        try:
            got = splitting_degree(coeffs, q)
        except ValueError:
            skipped += 1  # q divides the index of the period order; the
            continue      # uniform-degree prediction only covers q prime to it
        if got != want:
            mismatches += 1
        samples.append([p, m, q, got, want])
        checked += 1
    ok = mismatches == 0 and checked == 50
    detail = (f"{checked} random (p, q) pairs, degrees 2..8, "
              f"{mismatches} mismatches, {skipped} index primes skipped")
    payload = {"samples": samples, "skipped": skipped}
    return ok, detail, payload


def test_criterion_5_period_polynomial_splitting():
    ok, detail, _ = _run_period_splitting()
    _line(5, "Gaussian period splitting degrees", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 6

def _run_principality_roundtrip(seed: int = 20260815):
    # all arithmetic is exact; there is no floating precision to escalate, so
    # one pass is the final answer
    rng = random.Random(seed)
    fields = [(2, 5), (3, 5), (2, 13), (6, 5), (34, 5)]
    false_neg = false_pos = done = 0
    for d, p in fields:
        L = biquad_field(d, p)
        for _ in range(40):
            while True:
                z = L.elt(*(rng.randint(-9, 9) for _ in range(4)))
                if z.norm() != 0:
                    break
            ideal = bq_principal(z)
            g = is_principal(ideal)
            if g is None:
                false_neg += 1
            elif bq_principal(g) != ideal:
                false_pos += 1
            done += 1
    # known nonprincipal inputs must come back empty: the primes above 17 in
    # Q(sqrt 5, sqrt 29) generate the order-2 class group
    L2 = biquad_field(5, 29)
    nonprincipal = [Q for Q, e, f in primes_above(L2, 17)]
    for Q in nonprincipal:
        if is_principal(Q) is not None:
            false_pos += 1
    ok = done == 200 and false_neg == 0 and false_pos == 0
    detail = (f"{done} random principal ideals over {len(fields)} fields, "
              f"{false_neg} false negatives, {false_pos} false positives "
              f"({len(nonprincipal)} nonprincipal probes)")
    payload = {"done": done, "false_neg": false_neg, "false_pos": false_pos}
    return ok, detail, payload


def test_criterion_6_principality_roundtrip():
    ok, detail, _ = _run_principality_roundtrip()
    _line(6, "principal ideal recovery", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 7

KERNELS = [
    ("ambig_identity", _run_ambig_identity),
    ("ray_order_identity", _run_ray_order_identity),
    ("capitulation", _run_capitulation_scan),
    ("complement_lemma", _run_complement_brute),
    ("period_splitting", _run_period_splitting),
    ("principality", _run_principality_roundtrip),
]


def _snapshot() -> str:
    payloads = {}
    for name, kernel in KERNELS:
        ok, _, payload = kernel()
        payloads[name] = {"ok": ok, "payload": payload}
    return canonical_json(stamp("acceptance", payloads))


def test_criterion_7_reports_are_deterministic():
    first = _snapshot()
    second = _snapshot()
    ok = first == second
    detail = (f"two full reruns of criteria 1-6, "
              f"{len(first)} bytes each, byte-identical: {ok}")
    _line(7, "deterministic reports", ok, detail)
    assert ok, detail
