"""``tools/bench_pairs.py``'s verdict, on synthetic pairs (no benchmark run)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
ROWS = {"name": "rows", "unit": "rows", "better": "higher", "bound": 0.05}


def verdict(parent, change, metric=WALL):
    pairs = [
        {"parent": {"w": {metric["name"]: p}}, "change": {"w": {metric["name"]: c}}}
        for p, c in zip(parent, change)
    ]
    row = bench_pairs.summarize(pairs, [metric])["w"][metric["name"]]
    return row["gain_rule_met"], row["within_bound"], row["unresolved"]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


def test_a_clear_gain_meets_the_rule():
    assert verdict(PARENT, [0.5] * 10) == (True, True, False)


def test_a_gain_in_8_of_10_pairs_does_not_meet_the_rule():
    change = [0.5] * 8 + [2.0, 2.0]
    assert verdict(PARENT, change)[0] is False


def test_a_tie_counts_for_neither_side():
    # 9 pairs better would meet the rule; a tie in one of them leaves 8
    assert verdict(PARENT, [0.5] * 9 + [1.09])[0] is True
    assert verdict(PARENT, [0.5] * 8 + [1.08, 1.09])[0] is False


def test_a_median_shift_inside_the_parents_iqr_is_no_gain():
    # better in every pair, but by 0.01 against an IQR of 0.045
    change = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, change) == (False, True, False)


def test_a_loss_beyond_the_bound_is_out_of_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT]) == (False, False, False)
    assert verdict(PARENT, [p * 1.2 for p in PARENT])[1] is True


def test_a_wide_parent_spread_is_unresolved_unless_the_sides_separate():
    wide = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]  # IQR/median 0.5
    assert verdict(wide, wide)[2] is True
    assert verdict(wide, [0.9] * 10)[2] is False  # every change run beats every parent run


def test_a_higher_is_better_metric_reads_the_other_way():
    assert verdict(PARENT, [2.0] * 10, ROWS) == (True, True, False)
    assert verdict(PARENT, [0.9] * 10, ROWS) == (False, False, False)
