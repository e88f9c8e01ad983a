"""No-harm model selection between per-group experts and the pooled model.

Both strategies consume validation GroupMetrics of the expert and pooled
models and return a per-group binary choice that never assigns a group a
value below its pooled baseline:

* greedy keeps the better model per group, maximizing the worst-group
  value over all selections;
* the integer program minimizes the max pairwise gap minus a weighted
  mean-performance bonus. It is solved exactly by a sweep over value
  windows [lo, hi]: inside a window each group takes its largest
  feasible value, so only O(G^2) choice vectors need scoring, in O(G^3)
  time and O(G^2) memory (the windows of one lo at a time), with no
  recursion. The floors lo swept are the values some group can take:
  each pooled value, and each expert value strictly above its own
  pooled value.

The two metrics must share their group count, metric kind, split and
group proportions.
A decision's per-group values come from ``combine``, the one place that
writes a selection's value rule (expert where chosen, pooled
elsewhere). ``route`` applies a decision to the rows of a split: each
routed row is the chosen model's row of its whole-split prediction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .metrics import GroupMetrics
from .net import check_index


@dataclass(frozen=True)
class SelectionDecision:
    """Per-group choice: 1 routes the group to its expert, 0 to pooled."""

    choices: tuple[int, ...]
    per_group: tuple[float, ...]
    delta: float
    objective: float
    strategy: str
    lambda_sel: float | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "choices": list(self.choices), "per_group": list(self.per_group)}


def _check_compatible(expert: GroupMetrics, erm: GroupMetrics) -> None:
    if expert.num_groups == 0:
        raise ValueError("no groups to select over")
    if expert.num_groups != erm.num_groups:
        raise ValueError("expert and pooled metrics cover different group counts")
    if expert.metric_kind != erm.metric_kind:
        raise ValueError("expert and pooled metrics use different metric kinds")
    if expert.split != erm.split:
        raise ValueError(f"expert metrics are from split {expert.split}, pooled from {erm.split}")
    # Bytes first: equal vectors, the usual case, then skip np.array_equal,
    # whose Python-level overhead, paid twice per selection, is about a
    # tenth of a small selection's time.
    p, q = expert.proportions, erm.proportions
    if p.tobytes() != q.tobytes() and not np.array_equal(p, q):
        raise ValueError(f"expert proportions {p} differ from pooled {q}")


def combine(choices: np.ndarray, expert: GroupMetrics, erm: GroupMetrics) -> np.ndarray:
    """Per-group value of a selection: expert where chosen, pooled elsewhere."""
    _check_compatible(expert, erm)
    v = np.asarray(choices)
    if v.shape != (expert.num_groups,):
        raise ValueError("choices must have one bit per group")
    return v * expert.values + (1 - v) * erm.values


def _decide(
    choices: np.ndarray, expert: GroupMetrics, erm: GroupMetrics, **fields
) -> SelectionDecision:
    """The decision for ``choices``, its per-group values from ``combine``.

    ``fields`` name the strategy and may give the objective and
    lambda_sel; the objective defaults to the worst-group value.
    """
    alpha = combine(choices, expert, erm)
    low = np.minimum.reduce(alpha)
    fields.setdefault("objective", float(low))
    return SelectionDecision(
        choices=tuple(choices.tolist()),
        per_group=tuple(alpha.tolist()),
        delta=float(np.maximum.reduce(alpha) - low),
        **fields,
    )


def select_greedy(expert: GroupMetrics, erm: GroupMetrics) -> SelectionDecision:
    """Keep the strictly better model per group; ties go to pooled.

    Maximizes each group's value independently, hence also the minimum
    over groups among all 2^G selections.
    """
    _check_compatible(expert, erm)
    choices = (expert.values > erm.values).astype(np.int64)
    return _decide(choices, expert, erm, strategy="greedy")


def _solve_windows(
    expert: np.ndarray, erm: np.ndarray, proportions: np.ndarray, lambda_sel: float
) -> tuple[tuple[int, ...], float]:
    """Optimal choice vector and objective, by a sweep over value windows.

    Fix a window [lo, hi] and give each group its largest feasible value
    inside it. An expert value counts only when it is strictly above the
    pooled one and lambda_sel * p > 0; otherwise the pooled value, which
    is as good, is taken. No choice vector whose values lie in the window
    beats this one or ties it with fewer experts, so the optimum is the
    best of these window vectors. (That tie claim holds while each expert
    gain lambda_sel * p * (expert - pooled) moves the rounded objective;
    for a lambda_sel too small for that, the expert is kept.)

    Groups whose pooled value is below lo are forced onto their expert;
    once one of them cannot reach lo, that is once lo passes the least
    per-group maximum, no larger lo is feasible either. For one lo the
    candidate hi values give nested expert sets, so the first row with
    the least objective has the fewest experts.

    The floors lo are the values some group can take: the pooled values
    and the expert values strictly above their own pooled value. The
    loop reads lo only through the groups it forces. No pooled value
    lies between an expert value at or below its pooled one and the
    next floor kept, so both floors force the same groups and score the
    same rows, and that next floor passes the bound, which is itself a
    value some group can take. Leaving such expert values out therefore
    changes no choice and no objective bit; it saves work where they
    lie below the least per-group maximum.

    The loop calls only numpy functions and methods written in C
    (ufuncs, sort, indexing): numpy's Python-level helpers (unique, pad,
    ndarray.max) cost more than a small window's arithmetic.
    """
    optional = (expert > erm) & (lambda_sel * proportions > 0)
    erm_top = np.maximum.reduce(erm)
    los = np.concatenate([erm, expert[expert > erm]])
    los.sort()
    los = los[np.concatenate([[True], los[1:] != los[:-1]])]  # distinct, ascending
    best = (np.inf, 0, ())
    for lo in los[los <= np.minimum.reduce(np.maximum(erm, expert))]:
        forced = erm < lo
        top = max(erm_top, np.maximum.reduce(expert, where=forced, initial=-np.inf))
        free = optional & ~forced
        his = np.concatenate([[top], expert[free & (expert > top)]])
        his.sort()  # top stays first: every other value is above it
        his = his[np.concatenate([[True], his[1:] != his[:-1]])]
        # Repeat the last row up to a multiple of 4. OpenBLAS dgemv rounds a
        # leftover row differently from a row in a full 4-row block, and
        # each objective must equal bit for bit that of the same row in the
        # full (2^G, G) matrix of all choice vectors, whose blocks are full.
        his = his[np.minimum(np.arange(his.size + -his.size % 4), his.size - 1)]
        bits = (forced | (free & (expert <= his[:, None]))).astype(np.int64)
        alpha = bits * expert + (1 - bits) * erm
        spread = np.maximum.reduce(alpha, axis=1) - np.minimum.reduce(alpha, axis=1)
        objective = spread - lambda_sel * (alpha @ proportions)
        i = objective.argmin()
        if objective[i] > best[0]:
            continue
        # tie order: objective, then fewer experts, then smallest choices
        row = bits[i].tolist()
        best = min(best, (float(objective[i]), sum(row), tuple(row)))
    return best[2], best[0]


def select_ip(
    expert: GroupMetrics, erm: GroupMetrics, lambda_sel: float = 0.1
) -> SelectionDecision:
    """Exact optimum of the gap-minimizing integer program.

    Minimizes (max pairwise value difference) - lambda_sel * (proportion
    weighted mean value) over all selections whose per-group value stays
    at or above the pooled baseline. The all-pooled selection is always
    feasible, so a solution always exists. Objective ties break toward
    fewer experts, then the lexicographically smallest choice vector.
    """
    _check_compatible(expert, erm)
    if not 0 <= lambda_sel < np.inf:
        raise ValueError("lambda_sel must be finite and nonnegative")
    choices, objective = _solve_windows(expert.values, erm.values, erm.proportions, lambda_sel)
    return _decide(
        np.asarray(choices), expert, erm, objective=objective, strategy="ip", lambda_sel=lambda_sel
    )


def route(
    decision: SelectionDecision,
    expert_probs: np.ndarray,
    erm_probs: np.ndarray,
    groups: np.ndarray,
) -> np.ndarray:
    """Rows of a routed prediction: each row's group picks its model's row.

    ``expert_probs`` and ``erm_probs`` are the two models' predictions
    for the same whole split, whose rows carry ``groups``; each routed
    row equals its chosen model's row bit for bit. When every row chose
    one model, that model's array is returned itself, not a copy; a
    mixed selection returns one new array.
    """
    # a boolean lookup: one byte per routed row, not an int64
    expert_groups = np.asarray(decision.choices) == 1
    groups = check_index("groups", groups, expert_probs.shape[0], expert_groups.size)
    use_expert = expert_groups[groups]
    if use_expert.all():
        return expert_probs
    if not use_expert.any():
        return erm_probs
    return np.where(use_expert[:, None], expert_probs, erm_probs)
