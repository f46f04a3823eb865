#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts of raycap.

    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR --workload ambig --pairs 10

Pair i runs `bench/run.py --workload W --seed SEED+i --seconds S --trace 0`
in each checkout, one after the other, with S the `run_seconds` of the
change's BENCHMARK.json. The parent goes first in even pairs and the
change first in odd ones, so a drift of the machine's speed falls on both
sides alike. Before every run the checkout's `__pycache__`
directories are removed, and every run starts with PYTHONDONTWRITEBYTECODE=1
from the resolved interpreter path, not a shim: compiling the sources, the
interpreter's path and the checkout's path all move `peak_rss_mb`, so both
sides pay them equally. Checkouts at paths of equal length compare best.

For each end-to-end metric of the change's BENCHMARK.json it prints the
median of each side, the interquartile range of the parent's runs, how
many pairs each side won (a tie counts for neither) and a verdict: "gain"
when the change won at least 9 in 10 of the pairs and its median is better
than the parent's by more than the parent's IQR, "worse" when its median
is worse than the parent's by more than the metric's `bound` (a fraction
of the parent's median), else "even/unresolved". It exits 1 if a run
fails or reports an incorrect or failed op.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def clear_bytecode(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `root`; its JSON result line."""
    clear_bytecode(root)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [os.path.realpath(sys.executable), "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{root}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root} seed {seed}: {result['failed']} ops failed")
    return result


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Per-metric summary of (parent, change) pairs: each side's median,
    the parent's interquartile range, and the pairs each side won, where
    `better` ("lower" or "higher") says which value wins and a tie counts
    for neither side."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") \
        if len(parent) > 1 else (parent[0],) * 3
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": q3 - q1,
        "change_won": sum(sign * (c - p) > 0 for p, c in pairs),
        "parent_won": sum(sign * (p - c) > 0 for p, c in pairs),
        "pairs": len(pairs),
    }


def verdict(s: dict, better: str, bound: float) -> str:
    """"gain", "worse" or "even/unresolved" for the summary `s` of a metric
    whose better side is `better` and whose bound is `bound`."""
    gap = (s["change_median"] - s["parent_median"]) * (1 if better == "higher" else -1)
    if 10 * s["change_won"] >= 9 * s["pairs"] and gap > s["parent_iqr"]:
        return "gain"
    if -gap > bound * abs(s["parent_median"]):
        return "worse"
    return "even/unresolved"


def format_row(name: str, s: dict) -> str:
    return (f"{name}: parent {s['parent_median']:.6g} -> change {s['change_median']:.6g}"
            f" (parent IQR {s['parent_iqr']:.4g}; change won {s['change_won']}/{s['pairs']},"
            f" parent won {s['parent_won']}/{s['pairs']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[tuple[float, float]]] = {name: [] for name in better}
    for i in range(args.pairs):
        seed = args.seed + i
        got = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            try:
                got[side] = run_side(roots[side], args.workload, seed, seconds)["metrics"]
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{name} {got['parent'][name]['value']:.6g}/{got['change'][name]['value']:.6g}"
            for name in better), flush=True)
        for name in better:
            values[name].append((got["parent"][name]["value"], got["change"][name]["value"]))
    for name, pairs in values.items():
        s = summarize(pairs, better[name])
        print(f"{format_row(name, s)}: {verdict(s, better[name], bound[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
