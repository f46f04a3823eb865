#!/usr/bin/env python3
"""Scan real quadratic fields for an order-2 ray class, search for a
principalizing prime, and verify the resulting certificate end to end.

Prints one row per field: d, modulus, target class, the escalation attempts
(n and the prime found at each), the verification status, and the certified
generator in the composite field.  Fields whose unit obstruction blocks the
search (typically N(eps) = -1 and no qualifying character) are listed as
not_found with the reason from the search stats.
"""

from __future__ import annotations

import argparse
import json
import sys

from raycap.biquad import verify_certificate
from raycap.capsearch import SearchParams, search_with_escalation
from raycap.cli import _resolve_target
from raycap.errors import InputError
from raycap.exactmath import squarefree_part
from raycap.quadfield import modulus_from_rational, quadratic_field, ray_class_group
from raycap.report import canonical_json, stamp


def order_two_target(ray) -> tuple[int, ...] | None:
    try:
        return _resolve_target("auto-2", ray)
    except InputError:
        return None


def run_case(d: int, mod: int, bound: int, n: int, n_max: int) -> dict | None:
    K = quadratic_field(d)
    m = modulus_from_rational(K, mod)
    ray = ray_class_group(K, m)
    target = order_two_target(ray)
    if target is None:
        return None
    attempts = search_with_escalation(
        K, m, target, SearchParams(2, n, 0, bound), n_max=n_max
    )
    row = {
        "d": d,
        "modulus": mod,
        "ray_invariants": list(ray.group.invariants),
        "target": list(target),
        "attempts": [
            {"n": a.params.n, "status": a.status,
             "p": a.certificate.p if a.certificate else None}
            for a in attempts
        ],
        "status": attempts[-1].status,
        "verified": None,
        "generator": None,
    }
    last = attempts[-1]
    if last.status == "found":
        rep = verify_certificate(last.certificate)
        row["verified"] = rep.status
        row["generator"] = list(rep.generator) if rep.generator else None
    elif last.status == "not_found":
        row["reason"] = last.stats.get("reason", "bound exhausted")
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmax", type=int, default=100, help="scan squarefree d up to this")
    ap.add_argument("--mod", type=int, default=1, help="rational modulus (squarefree)")
    ap.add_argument("--bound", type=int, default=10**6, help="prime search bound")
    ap.add_argument("--n", type=int, default=1, help="starting 2-power exponent")
    ap.add_argument("--n-max", type=int, default=2, help="escalate n up to this")
    ap.add_argument("--json", action="store_true", help="emit one stamped JSON report")
    args = ap.parse_args(argv)

    rows = []
    for d in range(2, args.dmax + 1):
        if squarefree_part(d) != d:
            continue
        row = run_case(d, args.mod, args.bound, args.n, args.n_max)
        if row is not None:
            rows.append(row)

    if args.json:
        print(canonical_json(stamp("capitulation-table", {"rows": rows})))
        return 0

    hdr = f"{'d':>4} {'mod':>4} {'target':>8} {'attempts':>22} {'status':>12} generator"
    print(hdr)
    print("-" * len(hdr))
    n_cap = 0
    for r in rows:
        att = "; ".join(
            f"n={a['n']} {a['status']}" + (f" p={a['p']}" if a["p"] else "")
            for a in r["attempts"]
        )
        status = r["verified"] or r["status"]
        gen = "" if r["generator"] is None else str(tuple(r["generator"]))
        print(f"{r['d']:>4} {r['modulus']:>4} {str(tuple(r['target'])):>8} "
              f"{att:>22} {status:>12} {gen}")
        if r["verified"] == "capitulates":
            n_cap += 1
    print(f"\n{len(rows)} fields with an order-2 ray class; "
          f"{n_cap} verified capitulations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
