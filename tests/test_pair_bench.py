"""The summary that scripts/pair_bench.py prints for alternating benchmark
pairs, on fixed numbers (the benchmark itself is not run here)."""
import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "pair_bench.py"
spec = importlib.util.spec_from_file_location("pair_bench", PATH)
pair_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pair_bench)

# (parent, change) per pair: the change is lower in 7 pairs, higher in 2,
# and ties in one
PAIRS = [(0.070, 0.060), (0.074, 0.062), (0.072, 0.072), (0.068, 0.061),
         (0.080, 0.065), (0.060, 0.066), (0.071, 0.059), (0.075, 0.063),
         (0.043, 0.069), (0.073, 0.064)]


def test_lower_is_better():
    s = pair_bench.summarize(PAIRS, "lower")
    assert s["parent_median"] == pytest.approx(0.0715)
    assert s["change_median"] == pytest.approx(0.0635)
    # inclusive quartiles of the parent's ten values: 0.0685 and 0.07375
    assert s["parent_iqr"] == pytest.approx(0.07375 - 0.0685)
    assert (s["change_won"], s["parent_won"], s["pairs"]) == (7, 2, 10)


def test_higher_is_better_swaps_the_winners_and_a_tie_counts_for_neither():
    s = pair_bench.summarize(PAIRS, "higher")
    assert (s["change_won"], s["parent_won"]) == (2, 7)
    assert pair_bench.summarize([(1.0, 1.0)], "lower") == {
        "parent_median": 1.0, "change_median": 1.0, "parent_iqr": 0.0,
        "change_won": 0, "parent_won": 0, "pairs": 1}


def test_row_names_every_figure():
    row = pair_bench.format_row("op_p50_ms", pair_bench.summarize(PAIRS, "lower"))
    assert row == ("op_p50_ms: parent 0.0715 -> change 0.0635 (parent IQR 0.00525;"
                   " change won 7/10, parent won 2/10)")


# ten pairs the change wins 9 times, by a median gap of 0.01 against a
# parent IQR of 0.0025 (inclusive quartiles 0.06925 and 0.07175)
GAIN = [(0.070, 0.060), (0.071, 0.061), (0.072, 0.062), (0.069, 0.059),
        (0.068, 0.058), (0.073, 0.063), (0.070, 0.060), (0.071, 0.061),
        (0.069, 0.059), (0.072, 0.075)]


def test_a_change_that_wins_nine_pairs_beyond_the_iqr_is_a_gain():
    s = pair_bench.summarize(GAIN, "lower")
    assert (s["change_won"], s["change_median"], s["parent_median"]) == (
        9, pytest.approx(0.0605), pytest.approx(0.0705))
    assert s["parent_iqr"] == pytest.approx(0.0025)
    assert pair_bench.verdict(s, "lower", 0.25) == "gain"


def test_eight_wins_or_a_gap_within_the_iqr_is_unresolved():
    # PAIRS: the change wins 7 of 10 by a gap beyond the parent's IQR
    assert pair_bench.verdict(pair_bench.summarize(PAIRS, "lower"), "lower", 0.25) \
        == "even/unresolved"
    # 9 wins, but by a gap of 0.001 against the parent's IQR of 0.0025
    narrow = [(p, c + 0.009 * (c < p)) for p, c in GAIN]
    s = pair_bench.summarize(narrow, "lower")
    assert s["change_won"] == 9 and s["parent_median"] - s["change_median"] < s["parent_iqr"]
    assert pair_bench.verdict(s, "lower", 0.25) == "even/unresolved"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # for a higher-is-better metric the same pairs are a loss of 14%: worse
    # than a 10% bound, within a 25% one
    s = pair_bench.summarize(GAIN, "higher")
    assert s["parent_won"] == 9
    assert pair_bench.verdict(s, "higher", 0.10) == "worse"
    assert pair_bench.verdict(s, "higher", 0.25) == "even/unresolved"
