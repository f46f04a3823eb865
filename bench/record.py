"""Record a workload's population: draw its candidate pool, run every
candidate once, keep the stamped digest of its output and its cost, and cut
the pool into blocks of similar cost.

    python3 bench/record.py --workload classgroup

Rerun it only when a workload's definition changes, or when a change to the
library is meant to change outputs (the recorded digests are the reference
every later run is checked against). Costs are wall seconds on the
recording machine; they only decide which entries share a block, so every
round of a run gets the same cost profile. A candidate that raises or
fails an oracle stops the recording: the population must be clean.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import workloads  # noqa: E402
from raycap.ambigcheck import fundamental_field_params  # noqa: E402
from raycap.quadfield import modulus_from_rational, quadratic_field, ray_class_group  # noqa: E402

# rounds a population holds; a run uses three to six of them today
ROUNDS = {"classgroup": 16, "scan": 16, "certify": 16, "ambig": 12}
# blocks costlier than this are set aside as well: above it, certify has
# too few ops in a run for a steady p75 (its anchor keeps a tail verify)
COST_CAP_S = {"certify": 1.5}


def _squarefree(n: int) -> bool:
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def pool_classgroup() -> tuple[list, list]:
    """Imaginary and real fields with 5000 <= |D| <= 12000. The anchor,
    d = -11471 (h = 143, about 3 s), is the field of the pool's costly tail
    that needs the most memory: every run measures one real SNF-bound tail
    op, and peak RSS does not hinge on the draw."""
    ds = [d for d in fundamental_field_params(12000)
          if abs(workloads.fundamental_disc(d)) >= 5000 and d != -11471]
    pool = random.Random("classgroup-pool").sample(ds, 660)
    return [{"d": -11471}], [{"d": d} for d in pool]


def pool_scan() -> tuple[list, list]:
    """Real fields, half with a trivial modulus and half modulo one small odd
    prime; targets are the trivial class, which no prime reaches at n = 1,
    so every scan uses up its bound. The anchor is the d = 34 scan to
    2*10^5 (8,976 candidates)."""
    rng = random.Random("scan-pool")
    ds = [d for d in range(2, 8000) if _squarefree(d)]
    rng.shuffle(ds)
    out = []
    for i, d in enumerate(ds):
        D = workloads.fundamental_disc(d)
        m = 1 if i % 2 == 0 else rng.choice([q for q in (3, 5, 7, 11, 13) if D % q])
        out.append({"d": d, "m": m, "bound": 20000})
        if len(out) == 2800:
            break
    return [{"d": 34, "m": 1, "bound": 200000}], out


def pool_certify() -> tuple[list, list]:
    """Real fields 1000 <= d <= 5000 with moduli 1 and 7 whose ray class
    group has a cyclic 2-part (so the order-2 target is unique). The anchor,
    d = 1342 mod 1 (p = 233, a verify of about 3 s), is a tail op chosen for
    the same reasons as the classgroup anchor."""
    anchor = {"d": 1342, "m": 1}
    rng = random.Random("certify-pool")
    ds = [d for d in range(1000, 5001) if _squarefree(d)]
    rng.shuffle(ds)
    out = []
    for d in ds:
        K = quadratic_field(d)
        for m in (1, 7):
            inv = ray_class_group(K, modulus_from_rational(K, m)).group.invariants
            if sum(n % 2 == 0 for n in inv) == 1 and {"d": d, "m": m} != anchor:
                out.append({"d": d, "m": m})
        if len(out) >= 640:
            break
    return [anchor], out


def pool_ambig() -> tuple[list, list]:
    """The identity corpus of scripts/run_ambig_sweep.py at disc bound 4000;
    its 9 biquadratic steps are anchors, run by every run."""
    from run_ambig_sweep import build_corpus

    corpus = [{"case": list(c)} for c in build_corpus(4000, (3, 5, 7))]
    return ([e for e in corpus if e["case"][0] == "biquad"],
            [e for e in corpus if e["case"][0] != "biquad"])


POOLS = {"classgroup": pool_classgroup, "scan": pool_scan,
         "certify": pool_certify, "ambig": pool_ambig}


def measure(workload: str, entry: dict) -> dict | None:
    t0 = time.perf_counter()
    raw = workloads.run_op(workload, entry)
    cost = time.perf_counter() - t0
    bad = workloads.oracle_failures(workload, entry, raw)
    if bad:
        raise SystemExit(f"{workload} {entry}: {bad}")
    if workload in ("scan", "certify") and raw["candidates"] == 0:
        return None  # the search stops before scanning: nothing to measure
    if workload == "scan" and raw["result"].status != "not_found":
        return None  # a scan workload op uses up its whole bound
    return {"entry": entry, "digest": workloads.digest(workload, entry, raw),
            "cost_s": round(cost, 4)}


def cost_blocks(items: list[dict], rounds: int, cap: float) -> tuple[list, list]:
    """Sort by cost and cut into blocks of `rounds` members. A block whose
    members differ by more than 2x and by more than 0.25 s is set aside:
    one draw from it would decide a run's time. So is a block with a
    member above `cap` seconds."""
    items = sorted(items, key=lambda it: it["cost_s"])
    items = items[len(items) % rounds:]
    kept, dropped = [], []
    for i in range(0, len(items), rounds):
        block = items[i:i + rounds]
        lo, hi = block[0]["cost_s"], block[-1]["cost_s"]
        unsteady = hi > cap or (hi > 2 * lo and hi - lo > 0.25)
        (dropped if unsteady else kept).append(block)
    return kept, dropped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    args = ap.parse_args(argv)
    anchors, pool = POOLS[args.workload]()
    anchors = [measure(args.workload, e) for e in anchors]
    measured = [m for m in (measure(args.workload, e) for e in pool) if m]
    blocks, dropped = cost_blocks(measured, ROUNDS[args.workload],
                                  COST_CAP_S.get(args.workload, math.inf))
    out = {
        "workload": args.workload,
        "recorded_on": {"python": platform.python_version(),
                        "machine": platform.machine()},
        "pool_size": len(pool),
        "set_aside": [it["entry"] | {"cost_s": it["cost_s"]} for b in dropped for it in b],
        "anchors": anchors,
        "blocks": blocks,
    }
    path = BENCH / "population" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    round_s = sum(b[0]["cost_s"] for b in blocks)
    print(f"{args.workload}: {len(blocks)} blocks x {ROUNDS[args.workload]} rounds, "
          f"~{round_s:.1f} s per round, {sum(len(b) for b in dropped)} set aside")
    return 0


if __name__ == "__main__":
    sys.exit(main())
