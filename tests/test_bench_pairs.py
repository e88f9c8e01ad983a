"""``tools/bench_pairs.py``'s verdict, on synthetic pairs (no benchmark run)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
ROWS = {"name": "rows", "unit": "rows", "better": "higher", "bound": 0.05}


def verdict(parent, change, metric=WALL, failed=(0, 0), attempted=(100, 100)):
    """The verdict on these pairs; ``failed`` and ``attempted`` are each
    side's (parent, change) op counts in every pair."""
    pairs = [
        {side: {"w": {metric["name"]: v, "ops": attempted[k], "ops_failed": failed[k]}}
         for k, (side, v) in enumerate((("parent", p), ("change", c)))}
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


def test_a_larger_share_of_failed_ops_voids_a_gain():
    assert verdict(PARENT, [0.5] * 10, failed=(0, 1))[0] is False
    assert verdict(PARENT, [0.5] * 10, failed=(2, 1), attempted=(100, 20))[0] is False
    # the same share, or a smaller one, leaves the gain standing
    assert verdict(PARENT, [0.5] * 10, failed=(2, 1), attempted=(100, 50))[0] is True
    assert verdict(PARENT, [0.5] * 10, failed=(1, 0))[0] is True


def test_each_sides_op_totals_are_recorded_per_workload():
    pairs = [
        {side: {"w": {"wall_s": 1.0, "ops": 10 + k, "ops_failed": k % 2}} for side in ("parent", "change")}
        for k in range(4)
    ]
    ops = bench_pairs.summarize(pairs, [WALL])["w"]["ops"]
    assert ops == {side: {"failed": 2, "attempted": 46} for side in ("parent", "change")}
