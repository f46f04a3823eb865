"""One benchmark process: set up, run ops in a closed loop, check every
output, and print one JSON line of raw results for run.py.

Started by run.py in a fresh interpreter each time, so the library's
module-level caches start cold, as they do for a command-line user. It runs
in a single thread and starts no processes.

Modes:
  setup  import the library, build the seeded schedule, report setup_s and
         a few samples of the machine's speed, exit
  run    ops, whole rounds at a time, for about --seconds (stopping at
         the nearest round boundary), or exactly --rounds rounds
  trace  like run with --rounds, with spans around the library's functions
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# how often the timed loop samples the machine's speed, between ops, and
# how many samples a set-up process takes once it is ready
REFERENCE_EVERY_S = 0.2
SETUP_REFERENCE_SAMPLES = 8


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch the library: small-integer and bigint arithmetic, tuples and a
    dict, the mix the library itself runs on. Timed between ops, it follows
    the speed of the shared machine through a run; run.py scales the op
    timings by it."""
    t0 = time.perf_counter()
    x, acc, m = 1, {}, (1 << 127) - 1
    for i in range(5000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, i & 7)
        acc[key] = acc.get(key, 0) + x % 97
        if i % 16 == 0:
            acc[key] += pow(x, 65537, m) & 15
    return time.perf_counter() - t0


def load_population(workload: str) -> dict:
    return json.loads((BENCH / "population" / f"{workload}.json").read_text())


def schedule(pop: dict, seed: int) -> list[list[dict]]:
    """Rounds of population items. Each round takes one member of every
    cost block, so every round has the same cost profile; the seed decides
    which member and the order. The anchors open round 0."""
    rng = random.Random(f"{pop['workload']}:{seed}")
    perms = [rng.sample(block, len(block)) for block in pop["blocks"]]
    rounds = []
    for r in range(min(len(b) for b in perms)):
        items = [perm[r] for perm in perms]
        rng.shuffle(items)
        rounds.append(items)
    if rounds:
        rounds[0] = list(pop["anchors"]) + rounds[0]
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="stop after this many ops (for the benchmark's tests)")
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before spawning")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pop = load_population(args.workload)
    rounds = schedule(pop, args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.mode == "setup":
        reference_s = [reference_work() for _ in range(SETUP_REFERENCE_SAMPLES)]
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_namespaces=[workloads])
    if args.rounds:
        rounds = rounds[: args.rounds]

    # timed phase: library calls only, with the machine's speed sampled
    # between them (each sample at its midpoint, in seconds from t_start)
    done: list[tuple[dict, dict | None, float, str | None]] = []
    op_mid_s, reference_at_s, reference_s = [], [], []
    t_start = time.perf_counter()

    def sample_speed() -> float:
        t = time.perf_counter()
        reference_s.append(reference_work())
        reference_at_s.append(t - t_start + reference_s[-1] / 2)
        return t + reference_s[-1]

    t_ref = sample_speed()
    for n_done, rnd in enumerate(rounds):
        elapsed = time.perf_counter() - t_start
        # stop at the round boundary nearest to --seconds
        if not args.rounds and n_done and elapsed + elapsed / n_done / 2 >= args.seconds:
            break
        for item in rnd:
            if args.max_ops and len(done) >= args.max_ops:
                break
            if tracer:
                tracer.op_id = len(done)
            t0 = time.perf_counter()
            try:
                raw, err = workloads.run_op(args.workload, item["entry"]), None
            except Exception as exc:  # a failing op is counted, not fatal
                raw, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            done.append((item, raw, t1 - t0, err))
            op_mid_s.append((t0 + t1) / 2 - t_start)
            if t1 - t_ref >= REFERENCE_EVERY_S:
                t_ref = sample_speed()
    sample_speed()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # check phase: digests against the recorded ones, and the oracles
    failures, digests = [], []
    cands, scan_s, certificates = 0, 0.0, 0
    verify_s, rejected = [], {}
    for op_id, (item, raw, _, err) in enumerate(done):
        if tracer:
            tracer.op_id = op_id
        digest = None
        if err is None:
            try:
                digest = workloads.digest(args.workload, item["entry"], raw)
                bad = workloads.oracle_failures(args.workload, item["entry"], raw)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if digest is not None and digest != item["digest"]:
                bad.append("digest differs from the recorded one")
            err = "; ".join(bad) or None
        digests.append(digest)
        if err is not None:
            failures.append({"entry": item["entry"], "error": err})
            continue
        if "candidates" in raw:
            cands += raw["candidates"]
            scan_s += raw["scan_s"]
            for stats in raw["stats"]:
                for k, v in stats.items():
                    if k.startswith("rejected_"):
                        rejected[k] = rejected.get(k, 0) + v
            certificates += raw["found"]
        if raw.get("verify_s") is not None:
            verify_s.append(raw["verify_s"])

    out = {
        "setup_s": setup_s,
        "latencies_s": [lat for _, _, lat, _ in done],
        "op_mid_s": op_mid_s,
        "attempted": len(done),
        "failures": failures,
        "digests": digests,
        "candidates": cands,
        "scan_s": scan_s,
        "certificates": certificates,
        "rejected": rejected,
        "verify_s": verify_s,
        "peak_rss_mb": rss_mb,
        "reference_s": reference_s,
        "reference_at_s": reference_at_s,
    }
    if tracer:
        out["layers"] = tracer.summary()
        out["snf_shape"] = {"max_rows": tracer.snf_max_rows,
                            "max_cols": tracer.snf_max_cols,
                            "cells": tracer.snf_cells}
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
