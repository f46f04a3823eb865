"""raycap benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Runs from the root of a checkout. Every measuring process is a fresh
interpreter started from here (bench/worker.py), one at a time, so the
library's caches start cold and nothing runs in parallel. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs the same ops twice,
untraced and then traced, and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result.

The benchmark has no CPU isolation and no cache control, and changes no
machine setting; the environment line records what it ran on.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classgroup", "scan", "certify", "ambig")
SETUP_PROBES = 7  # set-up-only processes, one after another
DEADLINE_S = 170

# The shared machine's speed drifts by 20% and more within a minute, which
# would swamp the differences between program versions. So every worker
# times worker.reference_work, a fixed piece of pure Python outside the
# library, between its ops, and end-to-end times are scaled to the speed at
# which reference_work takes REFERENCE_S. Each op is scaled by the mean of
# the samples within REFERENCE_WINDOW_S of its midpoint. The raw figures
# and the machine's speed are printed beside the scaled ones.
REFERENCE_S = 0.004  # about its median on the 2-CPU Xeon VM it was tuned on
REFERENCE_WINDOW_S = 2.0

# per workload: the tail percentile, fixed so that versions are compared at
# the same percentile (at today's op counts at least 15 samples lie beyond
# it), and how many rounds --trace 1 measures (fixed, so counts repeat)
TAIL_PERCENTILE = {"classgroup": 90, "scan": 75, "certify": 75, "ambig": 99}
TRACE_ROUNDS = 1

LAYER_CALLS = (
    "abgroup.snf", "abgroup.hnf_rows", "quadfield.class_key",
    "quadfield.is_principal_with_generator", "quadfield.RayClassData.dlog",
    "exactmath.is_prime", "exactmath.factor", "kummerfrob.ConditionChecker.check",
    "kummerfrob.residue_character", "biquad.unit_group", "biquad.is_principal",
    "biquad.sqrt_in_biquad", "report.stamp",
)
LAYER_SELF = (
    "abgroup.snf", "abgroup.hnf_rows", "quadfield.class_group",
    "quadfield.ray_class_group", "quadfield.fundamental_unit", "quadfield.class_key",
    "quadfield.is_principal_with_generator", "quadfield.RayClassData.dlog",
    "exactmath.is_prime", "exactmath.factor", "exactmath.sqrt_mod",
    "exactmath.roots_mod_p", "kummerfrob.ConditionChecker.check",
    "kummerfrob.residue_character", "capsearch.find_principalizing_prime",
    "capsearch.gaussian_period_min_poly", "biquad.verify_certificate",
    "biquad.unit_group", "biquad.class_number", "biquad.is_principal",
    "biquad.sqrt_in_biquad", "biquad.primes_above", "biquad.adjust_to_congruence",
    "ambigcheck.ambig_case", "ambigcheck.norm_index_units", "report.stamp",
)


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"cpu={cpu!r}; no CPU isolation or cache control, no machine setting changed")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * pct // 100) - 1))
    return s[int(k)]


def slowdowns(op_mid_s: list[float], at_s: list[float], ref_s: list[float]) -> list[float]:
    """Per op, how much slower than reference speed the machine ran around
    it: the mean speed sample within REFERENCE_WINDOW_S of the op's
    midpoint (or the nearest two, if fewer lie there) over REFERENCE_S."""
    out = []
    for t in op_mid_s:
        lo = bisect.bisect_left(at_s, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(at_s, t + REFERENCE_WINDOW_S)
        if hi - lo < 2:
            j = bisect.bisect_left(at_s, t)
            lo, hi = max(0, j - 1), min(len(at_s), j + 1)
        out.append(statistics.fmean(ref_s[lo:hi]) / REFERENCE_S)
    return out


class ChildError(RuntimeError):
    pass


def child(args, mode: str, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           *extra, "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    probes = [child(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    setup_slow = [statistics.fmean(p["reference_s"]) / REFERENCE_S for p in probes]
    r = child(args, "run", deadline)
    raw = r["latencies_s"]
    slow = slowdowns(r["op_mid_s"], r["reference_at_s"], r["reference_s"])
    lat = [x / f for x, f in zip(raw, slow)]
    pct = TAIL_PERCENTILE[args.workload]
    beyond = sum(1 for x in lat if x > percentile(lat, pct))
    metrics = {
        "setup_s": metric(statistics.median(s / f for s, f in zip(setups, setup_slow)), "s"),
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "op_tail_ms": metric(1000 * percentile(lat, pct), "ms"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
    }
    lines = [
        f"op_tail_ms is p{pct} over {len(lat)} ops, {beyond} beyond it",
        f"times are scaled to reference speed; the machine ran at "
        f"{1 / statistics.median(slow):.3f}x of it over {len(r['reference_s'])} "
        f"samples, and the raw figures are setup_s = {statistics.median(setups):.4f} s, "
        f"ops_per_s = {len(raw) / sum(raw):.4f} 1/s, "
        f"op_p50_ms = {1000 * statistics.median(raw):.3f} ms, "
        f"op_tail_ms = {1000 * percentile(raw, pct):.3f} ms",
    ]
    lines += workload_lines(args.workload, r)
    return metrics, r, lines


def workload_lines(workload: str, r: dict) -> list[str]:
    """The end-to-end figures only some workloads have: printed, not gated,
    and not scaled to reference speed."""
    n, failed = r["attempted"], len(r["failures"])
    out = [f"failed_frac = {failed}/{n} = {failed / n:.4f}"]
    if r["scan_s"]:
        out.append(f"scan_cands_per_s = {r['candidates'] / r['scan_s']:.1f} 1/s "
                   f"({r['candidates']} candidates, raw)")
    else:
        out.append("scan_cands_per_s = n/a (this workload does not scan)")
    if r["verify_s"]:
        v, pct = r["verify_s"], TAIL_PERCENTILE[workload]
        out.append(f"verify_p50_ms = {1000 * statistics.median(v):.2f} ms, "
                   f"verify_tail_ms = {1000 * percentile(v, pct):.2f} ms "
                   f"(p{pct} over {len(v)} verifies, raw)")
    else:
        out.append("verify_p50_ms, verify_tail_ms = n/a (no certificate verified)")
    return out


def per_layer(args, deadline: float) -> tuple[dict, dict, dict, list[str]]:
    rounds = ["--rounds", str(TRACE_ROUNDS)]
    plain = child(args, "run", deadline, rounds)
    trace_out = BENCH / "out" / f"trace-{args.workload}-{args.seed}.json"
    trace_out.parent.mkdir(exist_ok=True)
    traced = child(args, "trace", deadline, rounds + ["--trace-out", str(trace_out)])
    layers = traced["layers"]
    m = {}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = metric(layers[name]["calls"], "count")
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = metric(layers[name]["self_s"], "s")
    for key, value in traced["snf_shape"].items():
        m[f"abgroup.snf.{key}"] = metric(value, "count")
    for k in ("i", "ii", "iii"):
        m[f"kummerfrob.rejected_{k}"] = metric(traced["rejected"].get(f"rejected_{k}", 0), "count")
    cands = traced["candidates"]
    m["capsearch.candidates"] = metric(cands, "count")
    m["capsearch.hit_ratio"] = metric(traced["certificates"] / cands if cands else 0.0, "ratio")
    m["trace_overhead_frac"] = metric(
        sum(traced["latencies_s"]) / sum(plain["latencies_s"]) - 1, "ratio")
    # untraced timings of single layers, for the workloads that have them
    m["scan_cands_per_s"] = metric(plain["candidates"] / plain["scan_s"]
                                   if plain["scan_s"] else 0.0, "1/s")
    v = plain["verify_s"]
    m["verify_p50_ms"] = metric(1000 * statistics.median(v) if v else 0.0, "ms")
    m["verify_tail_ms"] = metric(
        1000 * percentile(v, TAIL_PERCENTILE[args.workload]) if v else 0.0, "ms")
    lines = [f"spans written to {trace_out.relative_to(ROOT)}"]
    if traced["digests"] != plain["digests"]:
        lines.append("traced outputs differ from untraced outputs")
    return m, plain, traced, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: it strips the library's asserts, "
              "so it would time a different program", file=sys.stderr)
        return 2
    missing = [p for p in (ROOT / "src" / "raycap" / "__init__.py",
                           BENCH / "population" / f"{args.workload}.json")
               if not p.is_file()]
    if missing:
        print(f"not a raycap checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, plain, traced, lines = per_layer(args, deadline)
            failures = plain["failures"] + traced["failures"]
            failed = max(len(plain["failures"]), len(traced["failures"]))
            attempted = traced["attempted"]
            correct = failed == 0 and traced["digests"] == plain["digests"]
        else:
            metrics, r, lines = end_to_end(args, deadline)
            failures = r["failures"]
            failed, attempted = len(failures), r["attempted"]
            correct = failed == 0
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"env: {environment()}")
    for line in lines + [f"FAILED {f['entry']}: {f['error']}" for f in failures[:5]]:
        print(line)
    for name, mv in metrics.items():
        print(f"{name} = {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
