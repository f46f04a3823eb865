#!/usr/bin/env python3
"""Run the ambiguous-class-number identity over a corpus of extensions and
report formula-side versus direct-side counts.

The corpus has three layers: every quadratic field of fundamental discriminant
up to --disc-bound with trivial modulus, a batch of (field, odd modulus) pairs
with the modulus coprime to the discriminant, and a handful of biquadratic
steps over a quadratic base.  Exits nonzero if any case disagrees.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd

from raycap.ambigcheck import ambig_case, fundamental_field_params
from raycap.quadfield import quadratic_field
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


def build_corpus(disc_bound: int, mod_primes: tuple[int, ...]) -> list[tuple]:
    cases: list[tuple] = [("quad", d, 1) for d in fundamental_field_params(disc_bound)]
    for d in fundamental_field_params(min(disc_bound, 120)):
        D = quadratic_field(d).D
        for m in mod_primes:
            if gcd(m, D) == 1:
                cases.append(("quad", d, m))
    cases.extend(BIQUAD_CASES)
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--disc-bound", type=int, default=200)
    ap.add_argument("--mods", default="3,5,7",
                    help="comma list of odd moduli for the second layer")
    ap.add_argument("--json", action="store_true", help="stamped JSON instead of a table")
    args = ap.parse_args(argv)

    mods = tuple(int(t) for t in args.mods.split(",") if t.strip())
    cases = build_corpus(args.disc_bound, mods)
    reports = [ambig_case(c) for c in cases]

    bad = [r for r in reports if not r.equal]
    if args.json:
        payload = {"reports": [r.as_dict() for r in reports],
                   "cases": len(reports), "mismatches": len(bad)}
        print(canonical_json(stamp("ambig-sweep", payload)))
        return 1 if bad else 0

    w = max(len(r.extension) for r in reports)
    for r in reports:
        mark = "ok" if r.equal else "MISMATCH"
        print(f"{r.extension:<{w}}  base={r.base_ray_order:>4}  "
              f"e={r.ramified_e}  d_inf={r.local_degrees}  idx={r.norm_index}  "
              f"formula={r.formula:>4}  direct={r.direct:>4}  {mark}")
    print(f"\n{len(reports)} cases, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
