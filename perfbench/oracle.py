"""Independent checks of selection decisions.

The integer program minimizes ``(max alpha - min alpha) - lambda * sum(p * alpha)``
over per-group choices (1 = expert, 0 = pooled) that never put a group
below its pooled value. Objective ties break toward fewer experts, then
the lexicographically smallest choice vector.

Two oracles find that optimum without the program's code:

* ``brute_force`` scores every choice vector; it is used up to
  ``BRUTE_FORCE_LIMIT`` groups.
* ``window_optimum`` works for any group count. For lambda > 0 and
  positive proportions an optimal choice gives each group its largest
  feasible value inside the window [min alpha, max alpha]; any other
  value in the window lowers the bonus without narrowing the window.
  Trying every window bounded by candidate values therefore reaches the
  optimum, in O(G^3).

Objectives within ``TOL`` of each other count as tied, so that the
oracles' own rounding cannot decide a tie.
"""

from __future__ import annotations

import math
from itertools import product

BRUTE_FORCE_LIMIT = 16
TOL = 1e-12


def objective(choices, expert, erm, proportions, lam: float) -> float:
    alpha = [e if c else r for c, e, r in zip(choices, expert, erm)]
    spread = max(alpha) - min(alpha) if len(alpha) > 1 else 0.0
    return spread - lam * math.fsum(p * a for p, a in zip(proportions, alpha))


def _best(candidates, expert, erm, proportions, lam) -> tuple[tuple[int, ...], float]:
    scored = [(objective(c, expert, erm, proportions, lam), c) for c in set(candidates)]
    low = min(obj for obj, _ in scored)
    tied = [(sum(c), c, obj) for obj, c in scored if obj <= low + TOL]
    _, choices, obj = min(tied)
    return choices, obj


def brute_force(expert, erm, proportions, lam) -> tuple[tuple[int, ...], float]:
    """Optimum over every feasible choice vector; for small group counts."""
    if len(expert) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_LIMIT} groups")
    options = [(0, 1) if e >= r else (0,) for e, r in zip(expert, erm)]
    return _best(product(*options), expert, erm, proportions, lam)


def window_optimum(expert, erm, proportions, lam) -> tuple[tuple[int, ...], float]:
    """Optimum over window-maximal choice vectors; exact for lam > 0."""
    if lam <= 0 or min(proportions) <= 0:
        raise ValueError("the window oracle needs lam > 0 and positive proportions")
    feasible = [[(r, 0)] + ([(e, 1)] if e >= r else []) for e, r in zip(expert, erm)]
    values = sorted({v for opts in feasible for v, _ in opts})
    candidates = []
    for i, lo in enumerate(values):
        for hi in values[i:]:
            choice = []
            for opts in feasible:
                inside = [(v, -bit) for v, bit in opts if lo <= v <= hi]
                if not inside:
                    break
                choice.append(-max(inside)[1])
            else:
                candidates.append(tuple(choice))
    return _best(candidates, expert, erm, proportions, lam)


def check_ip(instance: dict, decision: dict, lam: float) -> list[str]:
    """Problems with an integer-program decision; empty when it is right."""
    expert, erm, props = instance["expert"], instance["erm"], instance["proportions"]
    choices = tuple(decision["choices"])
    problems = []
    if len(choices) != len(expert) or set(choices) - {0, 1}:
        return [f"malformed choices {choices}"]
    alpha = [e if c else r for c, e, r in zip(choices, expert, erm)]
    if any(a < r for a, r in zip(alpha, erm)):
        problems.append("harm: a group is below its pooled value")
    if list(decision["per_group"]) != alpha:
        problems.append("per_group does not match the choices")
    recomputed = objective(choices, expert, erm, props, lam)
    if abs(decision["objective"] - recomputed) > TOL:
        problems.append(f"objective {decision['objective']!r} != recomputed {recomputed!r}")
    oracles = [window_optimum]
    if len(expert) <= BRUTE_FORCE_LIMIT:
        oracles.append(brute_force)
    for oracle in oracles:
        best, _ = oracle(expert, erm, props, lam)
        if best != choices:
            problems.append(f"{oracle.__name__} chose {best}, solver chose {choices}")
    return problems


def check_greedy(instance: dict, decision: dict) -> list[str]:
    """Problems with a greedy decision; empty when it is right."""
    expert, erm = instance["expert"], instance["erm"]
    expected = tuple(int(e > r) for e, r in zip(expert, erm))
    alpha = [max(e, r) for e, r in zip(expert, erm)]
    problems = []
    if tuple(decision["choices"]) != expected:
        problems.append(f"greedy chose {tuple(decision['choices'])}, expected {expected}")
    if list(decision["per_group"]) != alpha:
        problems.append("per_group is not the better value per group")
    if decision["objective"] != min(alpha):
        problems.append("objective is not the worst-group value")
    return problems
