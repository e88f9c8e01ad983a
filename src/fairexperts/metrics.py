"""Evaluation metrics: accuracy, AUC, per-group values, max-min, gap,
and an equalized-odds score for binary tasks.

A predictor is anything callable as ``predict(features, groups)``
returning one row of class probabilities per sample, one column per
class (the groups argument picks each row's head in a model with
per-group heads; the pooled model ignores it). ``experiment.run_seed``
passes predictors that return rows it already predicted for the whole
split, so one prediction per model and split serves every report and
the selection inputs. A report calls its predictor once on the whole split,
then counts (group, label, argmax) over ``net.row_blocks`` of at most
``APPLY_BLOCK`` rows, the blocks of every streamed pass, into one
(groups, classes, classes) table; its accuracies and equalized-odds
rates are counts of that table divided by counts, so it holds the
predictor's output plus one block. Each group's row count and
proportion come from the dataset's ``cell_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SPLITS, DataError, Dataset
from .net import APPLY_BLOCK, row_blocks

METRIC_KINDS = ("accuracy", "auc")


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative.

    Ties count one half (the Mann-Whitney convention). Computed from
    exact integer win/tie counts, so the result equals the quadratic
    pairwise-count oracle bit for bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be binary 0/1")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc undefined: needs at least one positive and one negative")
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    below_or_equal = np.searchsorted(neg_sorted, pos, side="right")
    wins = int(below.sum())
    ties = int((below_or_equal - below).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


@dataclass(frozen=True)
class GroupMetrics:
    """Per-group metric values plus the group proportions of the split."""

    metric_kind: str
    values: np.ndarray  # (G,) in [0, 1]
    proportions: np.ndarray  # (G,), sums to 1
    split: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "proportions", np.asarray(self.proportions, dtype=np.float64))
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")
        if self.values.shape != self.proportions.shape or self.values.ndim != 1:
            raise ValueError("values and proportions must be matching vectors")
        if not np.all((self.values >= 0) & (self.values <= 1)):
            raise ValueError("metric values must be finite and lie in [0, 1]")
        if not np.all(np.isfinite(self.proportions) & (self.proportions >= 0)):
            raise ValueError("proportions must be finite and nonnegative")

    @property
    def num_groups(self) -> int:
        return self.values.size

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupMetrics":
        values = payload.get("values", payload.get("per_group"))
        if values is None:
            raise ValueError("group metrics payload needs 'values' or 'per_group'")
        return cls(
            payload.get("metric_kind", "accuracy"),
            np.asarray(values, dtype=np.float64),
            np.asarray(payload["proportions"], dtype=np.float64),
            payload.get("split", "val"),
        )


def max_min(gm: GroupMetrics) -> float:
    """Worst-group value (the max-min fairness objective)."""
    if gm.num_groups == 0:
        raise ValueError("no groups")
    return float(gm.values.min())


def gap(gm: GroupMetrics) -> float:
    """Spread between the best and worst group, 0.0 for one group."""
    worst = max_min(gm)  # no groups raise here
    return float(gm.values.max() - worst)


def _odds_score(table: np.ndarray) -> float:
    """Worst pairwise equalized-odds score of a table in which every group
    has both labels."""
    rates = table[:, :, 1] / table.sum(axis=2)  # (G, 2): FPR, TPR
    spread = np.abs(rates[:, None, :] - rates[None, :, :]).sum(axis=2)
    return float(np.min(1.0 - 0.5 * spread, initial=1.0))


def _evaluate(predict, dataset: Dataset, split: str, kind: str):
    """(GroupMetrics, counts, probabilities, labels) of one predictor
    call, whose output must be (rows, classes).

    ``counts[g, y, k]`` is the number of rows of group g with label y
    whose argmax is k (the first index on ties). Per-group accuracy is a
    group's diagonal over its rows, and a group's proportion its rows
    over the split's, both read from ``dataset.cell_counts``. An empty
    split raises ``DataError``, a group absent from it ``ValueError``.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if kind == "auc" and dataset.classes != 2:
        raise ValueError("auc needs binary class probabilities (n, 2)")
    features, labels, groups = dataset.split_arrays(split)
    sizes = dataset.cell_counts(split).sum(axis=1)
    if not sizes.any():
        raise DataError(f"split {split!r} is empty")
    if not sizes.all():
        raise ValueError(f"groups {np.flatnonzero(sizes == 0).tolist()} absent from split {split!r}")
    probs = np.asarray(predict(features, groups), dtype=np.float64)
    expected = (features.shape[0], dataset.classes)
    if probs.shape != expected:
        raise ValueError(f"predictor returned shape {probs.shape}, expected {expected}")
    c = dataset.classes
    counts = np.zeros(dataset.num_groups * c * c, dtype=np.int64)
    for rows in row_blocks(len(probs), APPLY_BLOCK):
        codes = groups[rows].astype(np.intp)  # intp, or it wraps
        codes *= c
        codes += labels[rows]
        codes *= c
        codes += probs[rows].argmax(axis=1)
        counts += np.bincount(codes, minlength=counts.size)
    counts = counts.reshape(dataset.num_groups, c, c)
    if kind == "accuracy":
        values = np.trace(counts, axis1=1, axis2=2) / sizes
    else:
        values = np.empty(dataset.num_groups)
        cells = dataset.cell_counts(split)
        for g in range(dataset.num_groups):
            if np.count_nonzero(cells[g]) < 2:
                raise ValueError(f"group {g} has a single class; auc undefined")
            mask = groups == g
            values[g] = auc(probs[mask, 1], labels[mask])
    gm = GroupMetrics(kind, values, sizes / sizes.sum(), split)
    return gm, counts, probs, labels


def group_eval(predict, dataset: Dataset, split: str, kind: str) -> GroupMetrics:
    """Evaluate one metric independently per group on a split."""
    return _evaluate(predict, dataset, split, kind)[0]


def build_report(
    predict, dataset: Dataset, split: str, kind: str, selection: dict | None = None
) -> dict:
    """Full evaluation of one predictor on one split, as a JSON-ready dict.

    Keys: metric_kind, split, overall, per_group, proportions, mf (the
    worst-group value), gap, eo, and the ``selection`` passed in. The
    pooled value is computed on the whole split (for AUC this is not
    a proportion-weighted mean of the group values). The equalized-odds
    score is included for binary tasks when every group carries both
    classes, from argmax predictions. The predictor is called once, on
    the whole split; accuracies and the equalized-odds score come from
    one (group, label, argmax) count table, so no array as long as the
    split is made beyond the predictor's output (AUC, which ranks the
    scores, still takes per-group masks of the split).
    """
    gm, counts, probs, labels = _evaluate(predict, dataset, split, kind)
    if kind == "accuracy":
        # equal to the mean of the n-length hit mask: an integer count over n
        overall = np.trace(counts, axis1=1, axis2=2).sum() / len(labels)
    else:
        overall = auc(probs[:, 1], labels)
    eo = None
    if dataset.classes == 2 and dataset.cell_counts(split).all():
        eo = _odds_score(counts)
    return {
        "metric_kind": kind,
        "split": split,
        "overall": float(overall),
        "per_group": [float(v) for v in gm.values],
        "proportions": [float(p) for p in gm.proportions],
        "mf": max_min(gm),
        "gap": gap(gm),
        "eo": eo,
        "selection": selection,
    }
