import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fairexperts.data import (
    CsvSchema,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
)
from fairexperts.metrics import (
    GroupMetrics,
    auc,
    build_report,
    gap,
    group_eval,
    max_min,
)
from fairexperts.net import APPLY_BLOCK

from helpers import (
    build_report_oracle,
    equalized_odds_oracle,
    load_interleaved_csv,
    pairwise_auc_oracle,
    separable_config,
)


# --- auc --------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0


def test_auc_pairwise_counting_example():
    # positives {0.9, 0.2} vs negatives {0.1, 0.8}: 3 wins of 4 pairs
    assert auc(np.array([0.9, 0.1, 0.8, 0.2]), np.array([1, 0, 0, 1])) == 0.75


def test_auc_all_ties_is_half():
    assert auc(np.full(6, 0.5), np.array([1, 1, 1, 0, 0, 0])) == 0.5


def test_auc_rejects_single_class():
    with pytest.raises(ValueError, match="positive and one negative"):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_auc_equals_pairwise_oracle_exactly_with_ties():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, n).astype(float)  # heavy ties
        assert auc(scores, labels) == pairwise_auc_oracle(scores, labels)


def test_auc_invariant_under_strictly_increasing_transforms():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(-3, 4, n).astype(float)
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(3.0 * scores + 11.0, labels) == base


# --- group metrics containers ----------------------------------------------


def test_group_metrics_validation():
    with pytest.raises(ValueError):
        GroupMetrics("accuracy", np.array([1.2]), np.array([1.0]), "val")
    with pytest.raises(ValueError):
        GroupMetrics("f1", np.array([0.5]), np.array([1.0]), "val")


def test_group_metrics_rejects_nan_value():
    with pytest.raises(ValueError, match="finite"):
        GroupMetrics("accuracy", np.array([0.5, np.nan]), np.array([0.5, 0.5]), "val")


def test_group_metrics_rejects_non_finite_proportion():
    with pytest.raises(ValueError, match="proportions"):
        GroupMetrics("accuracy", np.array([0.5, 0.6]), np.array([0.5, np.nan]), "val")
    with pytest.raises(ValueError, match="proportions"):
        GroupMetrics("accuracy", np.array([0.5, 0.6]), np.array([0.5, np.inf]), "val")


def test_group_metrics_rejects_negative_proportion():
    with pytest.raises(ValueError, match="proportions"):
        GroupMetrics("accuracy", np.array([0.5, 0.6]), np.array([1.5, -0.5]), "val")


@pytest.mark.parametrize("split", [7, "validation", None])
def test_group_metrics_rejects_a_split_outside_splits(split):
    with pytest.raises(ValueError, match=f"unknown split {split!r}"):
        GroupMetrics("accuracy", np.array([0.5]), np.array([1.0]), split)


def test_max_min_and_gap_fractional_values():
    gm = GroupMetrics("auc", np.array([0.8145, 0.8366]), np.array([0.5, 0.5]), "val")
    assert max_min(gm) == pytest.approx(0.8145, abs=1e-12)
    assert gap(gm) == pytest.approx(0.0221, abs=1e-12)


def test_gap_zero_for_equal_groups():
    gm = GroupMetrics("accuracy", np.array([0.7, 0.7, 0.7]), np.full(3, 1 / 3), "val")
    assert gap(gm) == 0.0


def test_max_min_gap_three_groups():
    gm = GroupMetrics("accuracy", np.array([0.7, 0.8, 0.9]), np.full(3, 1 / 3), "val")
    assert max_min(gm) == pytest.approx(0.7)
    assert gap(gm) == pytest.approx(0.2)


def test_max_min_gap_permutation_invariant():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 1, 5)
    p = np.full(5, 0.2)
    gm = GroupMetrics("accuracy", values, p, "val")
    for _ in range(5):
        perm = rng.permutation(5)
        shuffled = GroupMetrics("accuracy", values[perm], p, "val")
        assert max_min(shuffled) == max_min(gm)
        assert gap(shuffled) == gap(gm)


def test_gap_rejects_single_group():
    gm = GroupMetrics("accuracy", np.array([0.5]), np.array([1.0]), "val")
    with pytest.raises(ValueError):
        gap(gm)


# --- equalized odds ----------------------------------------------------------


def _report_eo(predictions, labels, groups):
    """``build_report``'s equalized-odds score of fixed binary predictions,
    with the group ids numbered 0..G-1 in sorted order."""
    ids, index = np.unique(groups, return_inverse=True)
    ds = dataset_from_arrays(np.zeros((len(labels), 1)), labels, index, 2, ids.size)
    probs = np.eye(2)[predictions]
    return build_report(lambda x, g: probs, ds, "train", "accuracy")["eo"]


def test_equalized_odds_perfect_parity():
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1, 0, 1, 1, 1])  # same rates in both groups
    groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert _report_eo(preds, labels, groups) == 1.0


def test_equalized_odds_formula_value():
    # group 0: TPR 1.0, FPR 0.5; group 1: TPR 0.8, FPR 0.4
    # score = 1 - (0.2 + 0.1) / 2 = 0.85
    labels = np.concatenate([np.repeat([1, 0], 10), np.repeat([1, 0], 10)])
    preds = np.concatenate(
        [
            np.repeat([1], 10), np.repeat([1, 0], 5),
            np.repeat([1, 1, 1, 1, 0], 2), np.repeat([1, 1, 0, 0, 0], 2),
        ]
    )
    groups = np.repeat([0, 1], 20)
    assert _report_eo(preds, labels, groups) == pytest.approx(0.85, abs=1e-12)


def test_equalized_odds_maximal_disparity():
    labels = np.array([1, 0, 1, 0])
    preds = np.array([1, 1, 0, 0])  # TPR/FPR 1/1 vs 0/0
    groups = np.array([0, 0, 1, 1])
    assert _report_eo(preds, labels, groups) == 0.0


def test_equalized_odds_symmetric_under_group_swap():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 2, 40)
    labels[:4] = [0, 1, 0, 1]
    labels[20:24] = [0, 1, 0, 1]
    preds = rng.integers(0, 2, 40)
    groups = np.repeat([0, 1], 20)
    a = _report_eo(preds, labels, groups)
    b = _report_eo(preds, labels, 1 - groups)
    assert a == b


def test_equalized_odds_multi_group_worst_pair():
    labels = np.tile([1, 1, 0, 0], 3)
    preds = np.concatenate([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    groups = np.repeat([0, 1, 2], 4)
    score = _report_eo(preds, labels, groups)
    # worst pair is (0, 2): TPR gap 1, FPR gap 1 -> score 0
    assert score == 0.0


@pytest.mark.parametrize(
    "binary", [np.array([True, False, True, False]), np.array([1.0, 0.0, 1.0, 0.0])]
)
def test_binary_inputs_may_be_bool_or_float(binary):
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    assert auc(scores, binary) == 1.0


@pytest.mark.parametrize("value", [0.5, 2.0, np.nan])
def test_binary_inputs_reject_other_values(value):
    bad = np.array([1.0, 0.0, value, 0.0])
    with pytest.raises(ValueError, match="labels must be binary"):
        auc(np.array([0.9, 0.1, 0.8, 0.2]), bad)


# --- group evaluation ---------------------------------------------------------


def dataset_from_arrays(features, labels, groups, classes, num_groups):
    n = len(labels)
    return Dataset(
        features, labels, groups, np.array(["train"] * n), classes, num_groups
    )


def test_group_eval_ground_truth_predictor_scores_one():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 40)
    groups = rng.integers(0, 2, 40)
    ds = dataset_from_arrays(rng.standard_normal((40, 2)), labels, groups, 2, 2)

    def perfect(features, g):
        probs = np.zeros((len(features), 2))
        probs[np.arange(len(features)), labels] = 1.0
        return probs

    gm = group_eval(perfect, ds, "train", "accuracy")
    assert np.all(gm.values == 1.0)


def test_group_eval_exact_fractional_accuracies():
    # per-group accuracies 0.7513 and 0.8818 -> MF 0.7513, Gap 0.1305
    n = 10_000
    labels = np.zeros(2 * n, dtype=int)
    groups = np.repeat([0, 1], n)
    correct = np.zeros(2 * n, dtype=bool)
    correct[:7513] = True
    correct[n : n + 8818] = True
    ds = dataset_from_arrays(np.zeros((2 * n, 1)), labels, groups, 2, 2)

    def predictor(features, g):
        probs = np.zeros((len(features), 2))
        probs[correct, 0] = 1.0
        probs[~correct, 1] = 1.0
        return probs

    gm = group_eval(predictor, ds, "train", "accuracy")
    assert gm.values[0] == pytest.approx(0.7513, abs=1e-12)
    assert gm.values[1] == pytest.approx(0.8818, abs=1e-12)
    assert max_min(gm) == pytest.approx(0.7513, abs=1e-12)
    assert gap(gm) == pytest.approx(0.1305, abs=1e-12)


def test_group_eval_constant_predictor_on_balanced_groups():
    labels = np.tile([0, 1], 20)
    groups = np.repeat([0, 1], 20)
    ds = dataset_from_arrays(np.zeros((40, 1)), labels, groups, 2, 2)

    def constant(features, g):
        probs = np.zeros((len(features), 2))
        probs[:, 0] = 1.0
        return probs

    gm = group_eval(constant, ds, "train", "accuracy")
    assert np.allclose(gm.values, 0.5, atol=0)


def test_group_eval_rejects_missing_group():
    labels = np.zeros(10, dtype=int)
    groups = np.zeros(10, dtype=int)
    ds = dataset_from_arrays(np.zeros((10, 1)), labels, groups, 1, 2)
    with pytest.raises(ValueError, match=r"groups \[1\] absent"):
        group_eval(lambda x, g: np.ones((len(x), 1)), ds, "train", "accuracy")


def test_group_eval_auc_names_single_class_group():
    labels = np.array([0, 1, 0, 0])
    groups = np.array([0, 0, 1, 1])
    ds = dataset_from_arrays(np.zeros((4, 1)), labels, groups, 2, 2)
    with pytest.raises(ValueError, match="group 1"):
        group_eval(lambda x, g: np.full((len(x), 2), 0.5), ds, "train", "auc")


def test_group_accuracy_aggregates_to_pooled_accuracy():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(10, 200))
        labels = rng.integers(0, 3, n)
        groups = rng.integers(0, 3, n)
        for g in range(3):  # ensure every group present
            groups[g] = g
        preds = rng.integers(0, 3, n)
        ds = dataset_from_arrays(np.zeros((n, 1)), labels, groups, 3, 3)

        def predictor(features, gg, preds=preds):
            probs = np.zeros((len(features), 3))
            probs[np.arange(len(features)), preds] = 1.0
            return probs

        gm = group_eval(predictor, ds, "train", "accuracy")
        pooled = np.count_nonzero(preds == labels) / n
        assert abs(float(gm.proportions @ gm.values) - pooled) < 1e-12


def test_pooled_auc_is_not_weighted_mean_of_group_aucs():
    # scores interleave across groups so the pooled ranking differs from
    # any per-group mixture
    labels = np.array([1, 0, 1, 0])
    groups = np.array([0, 0, 1, 1])
    scores = np.array([0.9, 0.6, 0.5, 0.2])
    ds = dataset_from_arrays(np.zeros((4, 1)), labels, groups, 2, 2)

    def predictor(features, g):
        return np.column_stack([1 - scores, scores])

    gm = group_eval(predictor, ds, "train", "auc")
    report = build_report(predictor, ds, "train", "auc")
    weighted = float(gm.proportions @ gm.values)
    assert gm.values.tolist() == [1.0, 1.0]
    assert report["overall"] == 0.75  # one of four cross-group pairs inverts
    assert report["overall"] != weighted


def test_group_metrics_round_trip_dict():
    payload = {"metric_kind": "auc", "split": "test", "values": [0.7, 0.9],
               "proportions": [0.4, 0.6]}
    gm = GroupMetrics.from_dict(payload)
    assert gm.metric_kind == "auc" and gm.split == "test"
    assert gm.values.tolist() == payload["values"]
    assert gm.proportions.tolist() == payload["proportions"]


def test_group_metrics_from_report_dict():
    payload = {
        "metric_kind": "accuracy",
        "split": "val",
        "per_group": [0.5, 0.75],
        "proportions": [0.5, 0.5],
    }
    gm = GroupMetrics.from_dict(payload)
    assert gm.values.tolist() == [0.5, 0.75]


def test_build_report_fields():
    labels = np.tile([0, 1], 10)
    groups = np.repeat([0, 1], 10)
    ds = dataset_from_arrays(np.zeros((20, 1)), labels, groups, 2, 2)

    def predictor(features, g):
        probs = np.zeros((len(features), 2))
        probs[np.arange(len(features)), labels] = 1.0
        return probs

    payload = build_report(predictor, ds, "train", "accuracy")
    assert set(payload) == {
        "metric_kind", "split", "overall", "per_group", "proportions",
        "mf", "gap", "eo", "selection",
    }
    assert payload["mf"] == 1.0 and payload["gap"] == 0.0 and payload["eo"] == 1.0


def test_build_report_single_group_has_worst_group_value_and_zero_gap():
    labels = np.array([0, 1, 1, 0])
    ds = dataset_from_arrays(np.zeros((4, 1)), labels, np.zeros(4, dtype=int), 2, 1)

    def predictor(features, g):
        return np.tile([0.4, 0.6], (len(features), 1))

    payload = build_report(predictor, ds, "train", "accuracy")
    assert payload["mf"] == 0.5 and payload["gap"] == 0.0


def test_build_report_eo_none_when_group_lacks_class():
    labels = np.array([0, 0, 0, 1])
    groups = np.array([0, 0, 1, 1])
    ds = dataset_from_arrays(np.zeros((4, 1)), labels, groups, 2, 2)

    def predictor(features, g):
        return np.tile([0.6, 0.4], (len(features), 1))

    report = build_report(predictor, ds, "train", "accuracy")
    assert report["eo"] is None


def test_equalized_odds_stays_in_unit_interval():
    rng = np.random.default_rng(31)
    for trial in range(50):
        n = int(rng.integers(12, 60))
        labels = rng.integers(0, 2, n)
        preds = rng.integers(0, 2, n)
        groups = rng.integers(0, 3, n)
        # patch each group to contain both classes
        ids = np.unique(groups)
        for g in ids:
            rows = np.flatnonzero(groups == g)[:2]
            labels[rows] = [0, 1]
        score = _report_eo(preds, labels, groups)
        assert 0.0 <= score <= 1.0


def _bits(value):
    return np.float64(value).view(np.int64)


def test_equalized_odds_matches_the_per_group_loop_oracle():
    rng = np.random.default_rng(15)
    absent = 0
    for trial in range(600):
        num_groups = int(rng.integers(1, 7))
        n = int(rng.integers(num_groups, 40))
        # every group holds a row; a group may lack a label class
        groups = np.append(np.arange(num_groups), rng.integers(0, num_groups, n - num_groups))
        labels = rng.integers(0, 2, n)
        preds = rng.integers(0, 2, n)
        try:
            want = _bits(equalized_odds_oracle(preds, labels, groups))
        except ValueError:  # the report leaves eo out
            want = None
        eo = _report_eo(preds, labels, groups)
        assert (None if eo is None else _bits(eo)) == want
        absent += want is None
    assert 0 < absent < 600
    assert _report_eo(np.array([1, 0]), np.array([0, 1]), np.array([0, 0])) == 1.0


def test_equalized_odds_of_more_groups_than_a_uint8_odds_code_holds():
    # 70 groups are stored as uint8, and group * 4 passes 255 from group 64 on
    rng = np.random.default_rng(25)
    groups = np.repeat(np.arange(70), 10)
    labels = np.tile(np.arange(10) % 2, 70)
    preds = rng.integers(0, 2, groups.size)
    ds = dataset_from_arrays(np.zeros((groups.size, 1)), labels, groups, 2, 70)
    assert ds.groups.dtype == np.uint8
    eo = _report_eo(preds, labels, groups)
    assert _bits(eo) == _bits(equalized_odds_oracle(preds, labels, groups))


def _three_group_three_class():
    means = np.arange(27, dtype=float).reshape(3, 3, 3) / 9.0
    return SyntheticConfig(
        d=3,
        classes=3,
        groups=3,
        means=means,
        stds=np.ones((3, 3)),
        counts={"train": (60, 31, 17), "val": (30, 16, 9), "test": (30, 16, 9)},
        seed=3,
    )


def test_report_accuracies_equal_a_mask_per_group_oracle(tmp_path):
    rng = np.random.default_rng(21)
    cases = [
        (generate_synthetic(separable_config(seed=7)), ("train", "val", "test")),
        (generate_synthetic(_three_group_three_class()), ("train", "val", "test")),
        (load_interleaved_csv(tmp_path), ("train",)),  # splits interleave in the file
    ]
    for ds, splits in cases:
        for split in splits:
            _, labels, groups = ds.split_arrays(split)
            probs = rng.random((labels.size, ds.classes))
            probs[: labels.size // 3, 0] = probs[: labels.size // 3, -1]  # argmax ties
            predicted = probs.argmax(axis=1)
            want = [
                float(np.mean(predicted[groups == g] == labels[groups == g]))
                for g in range(ds.num_groups)
            ]
            gm = group_eval(lambda x, g: probs, ds, split, "accuracy")
            report = build_report(lambda x, g: probs, ds, split, "accuracy")
            assert [_bits(v) for v in gm.values] == [_bits(v) for v in want]
            assert [_bits(v) for v in report["per_group"]] == [_bits(v) for v in want]
            assert _bits(report["overall"]) == _bits(np.mean(predicted == labels))
            if report["eo"] is not None:
                assert _bits(report["eo"]) == _bits(
                    equalized_odds_oracle(predicted, labels, groups)
                )


@pytest.mark.parametrize("evaluate", [group_eval, build_report])
def test_predictor_output_needs_one_column_per_class(evaluate):
    labels = np.tile([0, 1], 4)
    ds = dataset_from_arrays(np.zeros((8, 1)), labels, np.repeat([0, 1], 4), 2, 2)
    for shape in ((8, 1), (8, 3), (7, 2)):
        message = rf"^predictor returned shape \({shape[0]}, {shape[1]}\), expected \(8, 2\)$"
        with pytest.raises(ValueError, match=message):
            evaluate(lambda x, g: np.full(shape, 0.5), ds, "train", "accuracy")

    def never_called(features, g):
        raise AssertionError("predictor called")

    multiclass = dataset_from_arrays(np.zeros((12, 1)), np.tile([0, 1, 2], 4), np.repeat([0, 1], 6), 3, 2)
    with pytest.raises(ValueError, match=r"auc needs binary class probabilities \(n, 2\)"):
        evaluate(never_called, multiclass, "train", "auc")


@st.composite
def report_cases(draw):
    """A dataset, one of its splits, and predictor output rich in ties.

    Each group holds one to three triples of rows, a train, a val and a
    test row with one label, so every split holds every group and every
    (group, class) cell of val and test is in train; a group whose
    triples share a label lacks a class. The rows are shuffled
    (interleaved splits, which ``Dataset`` groups) or ordered by split,
    and may go through a CSV file.
    """
    num_groups, classes = draw(st.integers(1, 70)), draw(st.integers(1, 3))
    triples = [draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=3))
               for _ in range(num_groups)]
    labels = np.repeat(np.concatenate(triples), 3)
    groups = np.repeat(np.arange(num_groups), [3 * len(t) for t in triples])
    split = np.tile(np.arange(3), labels.size // 3)
    order = (np.array(draw(st.permutations(range(labels.size)))) if draw(st.booleans())
             else np.argsort(split, kind="stable"))
    features = np.arange(labels.size, dtype=np.float64)[order, None]
    ds = Dataset(features, labels[order], groups[order], split[order], classes, num_groups)
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            save_csv(ds, path)
            ds = load_csv(path, CsvSchema(1, classes, num_groups))
    split_name = draw(st.sampled_from(("train", "val", "test")))
    # values 0, 0.5 and 1: rows often tie, and argmax takes the first
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.integers(0, 3, (int(ds.cell_counts(split_name).sum()), classes)) / 2
    return ds, split_name, probs


@settings(max_examples=150, deadline=None, derandomize=True, phases=[Phase.generate])
@given(case=report_cases())
def test_report_equals_the_whole_split_oracle_bit_for_bit(case):
    ds, split, probs = case
    kinds = ["accuracy"]
    if ds.classes == 2 and ds.cell_counts(split).all():
        kinds.append("auc")
    for kind in kinds:
        report = build_report(lambda x, g: probs, ds, split, kind)
        want = build_report_oracle(probs, ds, split, kind)
        # the bytes a report file holds, so -0.0 and 0.0 differ too
        assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)
        gm = group_eval(lambda x, g: probs, ds, split, kind)
        assert json.dumps(gm.values.tolist()) == json.dumps(want["per_group"])


def test_build_report_holds_one_block_beyond_the_predictor_output():
    datasets = [
        generate_synthetic(SyntheticConfig(
            d=1, classes=2, groups=6, means=np.zeros((6, 2, 1)), stds=np.ones((6, 2)),
            counts={"train": (2,) * 6, "val": (per_group,) * 6, "test": (1,) * 6}, seed=3,
        ))
        for per_group in (5_000, 20_000)  # 30,000 and 120,000 rows
    ]
    # 120,000 rows of 10 features whose split codes interleave: a copy of
    # the 40,000 val rows' features would take 3.2 MB
    n = 120_000
    datasets.append(Dataset(
        np.zeros((n, 10)), np.tile([0, 1], n // 2), np.repeat(np.arange(6), n // 6),
        np.tile([0, 1, 2], n // 3), 2, 6,
    ))
    peaks = []
    for ds in datasets:
        probs = np.random.default_rng(1).random((int(ds.cell_counts("val").sum()), 2))
        tracemalloc.start()
        try:
            build_report(lambda x, g: probs, ds, "val", "accuracy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # a few intp arrays of one block each; an argmax, hit mask or code per
    # row of the split would take 0.25 MB at 30,000 rows
    assert max(peaks) < 8 * APPLY_BLOCK * 8
