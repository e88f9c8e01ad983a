import tracemalloc

import numpy as np
import pytest

from fairexperts.metrics import GroupMetrics
from fairexperts.net import init_mlp
from fairexperts.selection import (
    SelectionDecision,
    combine,
    route,
    select_greedy,
    select_ip,
)
from fairexperts.training import Model

from helpers import enumerate_ip_oracle, solve_windows_oracle


def gm(values, proportions=None, kind="accuracy", split="val"):
    values = np.asarray(values, dtype=np.float64)
    if proportions is None:
        proportions = np.full(values.size, 1.0 / values.size)
    return GroupMetrics(kind, values, np.asarray(proportions), split)


def random_instance(rng, max_groups=6):
    g = int(rng.integers(1, max_groups + 1))
    expert = rng.uniform(0, 1, g)
    erm = rng.uniform(0, 1, g)
    if rng.uniform() < 0.3:  # force some exact ties
        i = int(rng.integers(g))
        expert[i] = erm[i]
    p = rng.uniform(0.05, 1.0, g)
    p = p / p.sum()
    return gm(expert, p), gm(erm, p)


def oracle_instance(rng, max_groups=12):
    """Instance plus lambda for exactness checks.

    Values are continuous or quantized to k/n, so that expert and pooled
    values often coincide; some instances give one group zero
    proportion; lambda is 0, 0.1 or uniform in [0, 2].
    """
    g = int(rng.integers(1, max_groups + 1))
    if rng.uniform() < 0.5:
        n = int(rng.integers(2, 30))
        expert, erm = rng.integers(0, n + 1, (2, g)) / n
    else:
        expert, erm = rng.uniform(0, 1, (2, g))
    if rng.uniform() < 0.3:
        i = int(rng.integers(g))
        expert[i] = erm[i]
    p = rng.uniform(0.05, 1.0, g)
    if g > 1 and rng.uniform() < 0.2:
        p[int(rng.integers(g))] = 0.0
    p = p / p.sum()
    lam = (0.0, 0.1, float(rng.uniform(0, 2)))[int(rng.integers(3))]
    return gm(expert, p), gm(erm, p), lam


# --- combine -----------------------------------------------------------------


def test_combine_all_zeros_returns_erm():
    expert, erm = gm([0.9, 0.8]), gm([0.7, 0.6])
    assert np.array_equal(combine(np.array([0, 0]), expert, erm), erm.values)


def test_combine_all_ones_returns_expert():
    expert, erm = gm([0.9, 0.8]), gm([0.7, 0.6])
    assert np.array_equal(combine(np.array([1, 1]), expert, erm), expert.values)


def test_combine_mixed_selection_example():
    # expert AUCs (81.45, 83.66), pooled (81.19, 83.80); choosing the
    # expert for group 0 only yields (81.45, 83.80)
    expert = gm([0.8145, 0.8366], kind="auc")
    erm = gm([0.8119, 0.8380], kind="auc")
    alpha = combine(np.array([1, 0]), expert, erm)
    assert np.allclose(alpha, [0.8145, 0.8380], atol=1e-15)


@pytest.mark.parametrize("select", [select_greedy, select_ip])
def test_strategies_reject_no_groups_and_metrics_from_different_splits(select):
    with pytest.raises(ValueError, match="no groups to select over"):
        select(gm([], []), gm([], []))
    with pytest.raises(ValueError, match="expert metrics are from split val, pooled from test"):
        select(gm([0.6, 0.7]), gm([0.5, 0.8], split="test"))


@pytest.mark.parametrize("select", [select_greedy, select_ip])
def test_strategies_reject_expert_and_pooled_proportions_that_differ(select):
    # select_ip weighs the groups by one proportion vector, so the two
    # metrics must agree on it
    match = r"expert proportions \[0.9 0.1\] differ from pooled \[0.1 0.9\]"
    with pytest.raises(ValueError, match=match):
        select(gm([0.6, 0.7], [0.9, 0.1]), gm([0.5, 0.8], [0.1, 0.9]))
    # equal values with other bytes are the same weights
    assert select(gm([0.6, 0.7], [0.0, 1.0]), gm([0.5, 0.8], [-0.0, 1.0])).choices[0] == 1


def test_decisions_take_their_values_from_combine():
    rng = np.random.default_rng(20)
    for _ in range(100):
        expert, erm, lam = oracle_instance(rng)
        for decision in (select_greedy(expert, erm), select_ip(expert, erm, lam)):
            alpha = combine(np.array(decision.choices), expert, erm)
            assert decision.per_group == tuple(alpha.tolist())
            assert decision.delta == float(alpha.max() - alpha.min())


def test_combine_rejects_group_mismatch():
    with pytest.raises(ValueError):
        combine(np.array([0]), gm([0.5]), gm([0.5, 0.5]))
    with pytest.raises(ValueError):
        combine(np.array([0, 1, 0]), gm([0.5, 0.5]), gm([0.5, 0.5]))


# --- greedy --------------------------------------------------------------------


def test_greedy_picks_per_group_max():
    decision = select_greedy(gm([0.80, 0.70]), gm([0.78, 0.72]))
    assert decision.choices == (1, 0)
    assert decision.per_group == (0.80, 0.72)
    assert decision.strategy == "greedy"


def test_greedy_ties_favor_pooled():
    values = gm([0.6, 0.7])
    assert select_greedy(values, gm([0.6, 0.7])).choices == (0, 0)


def test_greedy_three_groups():
    decision = select_greedy(gm([0.6, 0.9, 0.5]), gm([0.7, 0.8, 0.5]))
    assert decision.choices == (0, 1, 0)


def test_greedy_maximizes_worst_group_over_all_selections():
    rng = np.random.default_rng(21)
    for _ in range(300):
        expert, erm = random_instance(rng)
        decision = select_greedy(expert, erm)
        best_min = max(
            min(combine(np.array([(mask >> i) & 1 for i in range(expert.num_groups)]), expert, erm))
            for mask in range(2**expert.num_groups)
        )
        assert min(decision.per_group) == best_min


def test_greedy_no_harm_exact():
    rng = np.random.default_rng(22)
    for _ in range(200):
        expert, erm = random_instance(rng)
        decision = select_greedy(expert, erm)
        assert np.all(np.asarray(decision.per_group) >= erm.values)


# --- integer program -------------------------------------------------------------


def all_pooled_objective(erm, lam):
    return float(erm.values.max() - erm.values.min()) - lam * float(erm.proportions @ erm.values)


def test_ip_trivial_when_expert_strictly_worse():
    expert, erm = gm([0.6, 0.7]), gm([0.8, 0.9])
    decision = select_ip(expert, erm, 0.1)
    assert decision.choices == (0, 0)
    assert decision.delta == pytest.approx(float(erm.values.max() - erm.values.min()))


def test_ip_rejects_gap_widening_improvement_small_lambda():
    # objectives over the four selections: -0.080, -0.080, -0.0325,
    # -0.0325; tie between (0,0) and (0,1) resolves to fewer experts
    expert = gm([0.85, 0.80], [0.5, 0.5])
    erm = gm([0.80, 0.80], [0.5, 0.5])
    decision = select_ip(expert, erm, 0.1)
    assert decision.choices == (0, 0)
    assert decision.delta == 0.0
    assert decision.objective == pytest.approx(-0.080, abs=1e-12)


def test_ip_accuracy_term_dominates_large_lambda():
    expert = gm([0.85, 0.80], [0.5, 0.5])
    erm = gm([0.80, 0.80], [0.5, 0.5])
    decision = select_ip(expert, erm, 10.0)
    assert decision.choices == (1, 0)
    assert decision.objective == pytest.approx(0.05 - 8.25, abs=1e-12)


def test_ip_rejects_negative_lambda():
    for lam in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda_sel"):
            select_ip(gm([0.5]), gm([0.5]), lam)


def test_ip_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        expert, erm, lam = oracle_instance(rng)
        decision = select_ip(expert, erm, lam)
        choices, objective, alpha, delta = enumerate_ip_oracle(
            expert.values, erm.values, erm.proportions, lam
        )
        assert decision.choices == choices
        assert abs(decision.objective - objective) < 1e-12


def test_ip_all_pooled_always_feasible():
    rng = np.random.default_rng(24)
    for _ in range(100):
        expert, erm = random_instance(rng)
        decision = select_ip(expert, erm, 0.1)
        # the returned optimum can never be worse than the trivial point
        assert decision.objective <= all_pooled_objective(erm, 0.1) + 1e-15
        assert np.all(np.asarray(decision.per_group) >= erm.values)


def test_ip_lambda_zero_minimizes_delta():
    rng = np.random.default_rng(25)
    for _ in range(200):
        expert, erm = random_instance(rng)
        decision = select_ip(expert, erm, 0.0)
        g = expert.num_groups
        feasible_deltas = []
        for mask in range(2**g):
            v = np.array([(mask >> i) & 1 for i in range(g)])
            if np.any((v == 1) & (expert.values < erm.values)):
                continue
            alpha = combine(v, expert, erm)
            feasible_deltas.append(alpha.max() - alpha.min() if g > 1 else 0.0)
        assert decision.delta == pytest.approx(min(feasible_deltas), abs=1e-15)


def test_ip_mean_value_monotone_in_lambda():
    rng = np.random.default_rng(26)
    for _ in range(40):
        expert, erm = random_instance(rng)
        previous = -np.inf
        for lam in (0.0, 0.05, 0.1, 0.5, 1.0, 5.0):
            decision = select_ip(expert, erm, lam)
            weighted = float(erm.proportions @ np.asarray(decision.per_group))
            assert weighted >= previous - 1e-12
            previous = weighted


def test_ip_tie_break_fewer_experts_then_lexicographic():
    # all four selections tie in objective when expert == erm
    expert = gm([0.7, 0.7])
    decision = select_ip(expert, gm([0.7, 0.7]), 0.1)
    assert decision.choices == (0, 0)
    # equal-objective nontrivial tie: groups are symmetric, lexicographic
    # order prefers the expert on the later group
    expert = gm([0.8, 0.8], [0.5, 0.5])
    erm = gm([0.8, 0.8], [0.5, 0.5])
    assert select_ip(expert, erm, 1.0).choices == (0, 0)


def full_enumeration_objectives(expert, erm, proportions, lam):
    """Feasibility and objective of every selection, scored as one (2^G, G)
    matrix; row m holds the choice vector whose bit i is (m >> i) & 1."""
    g = expert.size
    bits = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
    alpha = bits * expert + (1 - bits) * erm
    feasible = ~np.any((bits == 1) & (expert < erm), axis=1)
    objective = alpha.max(axis=1) - alpha.min(axis=1) - lam * (alpha @ proportions)
    return feasible, objective


def test_ip_objective_bits_match_full_enumeration():
    # Reports carry the objective, so the solver must reproduce the bits
    # the full 2^G matrix gives the chosen row. BLAS rounds a row of a
    # matrix-vector product by its position in a block of rows; a numpy or
    # BLAS change that breaks the solver's row padding fails here.
    rng = np.random.default_rng(27)
    for _ in range(300):
        expert, erm, lam = oracle_instance(rng)
        decision = select_ip(expert, erm, lam)
        feasible, objective = full_enumeration_objectives(
            expert.values, erm.values, erm.proportions, lam
        )
        row = sum(bit << i for i, bit in enumerate(decision.choices))
        assert decision.objective == objective[row]
        assert decision.objective == objective[feasible].min()


def test_ip_matches_the_window_sweep_oracle_bit_for_bit():
    # quantized values so that expert and pooled values tie, all-equal
    # values, and -0.0 beside 0.0; the objective must match exactly. At
    # lambda 1e-17 no expert gain moves the rounded objective, so rows of
    # one window tie and only the row order picks among them.
    rng = np.random.default_rng(29)
    cases = []
    for g in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        for _ in range(6):
            n = int(rng.integers(2, 12))
            expert, erm = rng.integers(0, n + 1, (2, g)) / n
            cases.append((expert, erm, rng.dirichlet(np.ones(g))))
        cases.append((np.full(g, 0.5), np.full(g, 0.5), np.full(g, 1.0 / g)))
        signed = np.where(rng.uniform(size=(2, g)) < 0.5, -0.0, 0.0)
        signed[0, ::3] = 0.25
        cases.append((signed[0], signed[1], rng.dirichlet(np.ones(g))))
    for expert_values, erm_values, p in cases:
        expert, erm = gm(expert_values, p), gm(erm_values, p)
        for lam in (0.0, 1e-17, 1e-12, 0.1, 2.0):
            decision = select_ip(expert, erm, lam)
            choices, objective = solve_windows_oracle(expert.values, erm.values, p, lam)
            assert decision.choices == tuple(choices.tolist())
            assert np.float64(decision.objective).tobytes() == np.float64(objective).tobytes()


def test_ip_matches_the_oracle_bit_for_bit_when_experts_lose_below_the_floor_bound():
    # Expert values at or below their pooled value can be no group's
    # value; where they also lie below the floor bound min(max(erm,
    # expert)), the oracle sweeps them as floors of their own. Quantized
    # values tie, and signed zeros stand as experts below a positive
    # pooled value or beside a pooled zero of the other sign.
    rng = np.random.default_rng(34)
    for g in (2, 8, 32, 200, 1200):
        for case in range(4):
            n = int(rng.integers(4, 12))
            erm_values = rng.integers(n // 2, n + 1, g) / n
            expert_values = rng.integers(0, n + 1, g) / n
            if case >= 2:
                zeros = rng.uniform(size=g) < 0.3
                expert_values[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, -0.0, 0.0)
            if case == 3:
                erm_values[0], expert_values[0] = -0.0, 0.0
            bound = np.maximum(erm_values, expert_values).min()
            lost = (expert_values <= erm_values) & (expert_values < bound)
            assert case == 3 or lost.sum() >= g // 4
            p = rng.dirichlet(np.ones(g))
            expert, erm = gm(expert_values, p), gm(erm_values, p)
            for lam in (0.0, 1e-17, 0.1, 2.0):
                decision = select_ip(expert, erm, lam)
                choices, objective = solve_windows_oracle(expert.values, erm.values, p, lam)
                assert decision.choices == tuple(choices.tolist())
                assert np.float64(decision.objective).tobytes() == np.float64(objective).tobytes()


def test_ip_solves_1200_groups():
    rng = np.random.default_rng(28)
    g = 1200
    erm_values = rng.uniform(0.5, 0.9, g)
    expert_values = np.clip(erm_values + rng.normal(0.01, 0.05, g), 0, 1)
    p = rng.dirichlet(np.ones(g))
    expert, erm = gm(expert_values, p), gm(erm_values, p)
    decision = select_ip(expert, erm, 0.1)
    assert len(decision.choices) == g
    assert np.all(np.asarray(decision.per_group) >= erm.values)
    assert decision.objective <= all_pooled_objective(erm, 0.1) + 1e-12


def test_ip_nested_worst_case_completes():
    # every pooled value lies below every expert value, so each of the G
    # lowest windows is feasible and offers up to G candidate rows
    g = 200
    p = np.full(g, 1.0 / g)
    expert, erm = gm(np.linspace(0.5, 1.0, g), p), gm(np.linspace(0.0, 0.4, g), p)
    decision = select_ip(expert, erm, 0.1)
    assert np.all(np.asarray(decision.per_group) >= erm.values)
    assert decision.objective <= all_pooled_objective(erm, 0.1) + 1e-12


# --- routing ---------------------------------------------------------------------


class StubModel:
    def __init__(self, value):
        self.value = value

    def predict_proba(self, features, groups=None):
        features = np.atleast_2d(features)
        probs = np.full((features.shape[0], 2), self.value, dtype=float)
        probs[:, 1] = 1 - self.value
        return probs


def make_decision(choices):
    return SelectionDecision(
        choices=choices,
        per_group=tuple(0.5 for _ in choices),
        delta=0.0,
        objective=0.0,
        strategy="greedy",
    )


def test_routing_all_zero_equals_erm():
    experts, erm = StubModel(0.9), StubModel(0.1)
    x = np.zeros((4, 3))
    groups = np.array([0, 1, 0, 1])
    probs = route(make_decision((0, 0)), experts.predict_proba(x), erm.predict_proba(x), groups)
    assert np.array_equal(probs, erm.predict_proba(x))


def test_routing_all_one_equals_expert():
    experts, erm = StubModel(0.9), StubModel(0.1)
    x = np.zeros((4, 3))
    groups = np.array([0, 1, 0, 1])
    probs = route(make_decision((1, 1)), experts.predict_proba(x), erm.predict_proba(x), groups)
    assert np.array_equal(probs, experts.predict_proba(x))


def test_routing_mixed_decision():
    experts, erm = StubModel(0.9), StubModel(0.1)
    x = np.zeros((4, 2))
    groups = np.array([0, 1, 1, 0])
    probs = route(make_decision((1, 0)), experts.predict_proba(x), erm.predict_proba(x), groups)
    assert np.allclose(probs[groups == 0, 0], 0.9)
    assert np.allclose(probs[groups == 1, 0], 0.1)


def test_routing_zero_rows_gives_the_models_empty_shape():
    rng = np.random.default_rng(0)
    backbone = init_mlp([3, 4], ["relu"], rng)
    erm = Model("erm", backbone, [init_mlp([4, 2], ["identity"], rng)])
    experts = Model("decoupled", backbone, [init_mlp([4, 2], ["identity"], rng) for _ in range(2)])
    x, groups = np.empty((0, 3)), np.empty(0, dtype=np.int64)
    expert_probs, erm_probs = experts.predict_proba(x, groups), erm.predict_proba(x, groups)
    for choices in ((0, 0), (1, 0), (1, 1)):
        probs = route(make_decision(choices), expert_probs, erm_probs, groups)
        assert probs.shape == experts.predict_proba(x, groups).shape == (0, 2)


@pytest.mark.parametrize(
    "groups, match",
    [
        pytest.param([0.5, 1.0], "groups must hold integers", id="fractional-group"),
        pytest.param([0], "groups must be 1-D", id="short-groups"),
        pytest.param([[0, 1]], "groups must be 1-D", id="2d-groups"),
    ],
)
def test_models_and_routing_reject_groups_they_cannot_route(groups, match):
    # a group of 0.5 used to pass the range check and leave its row unset
    rng = np.random.default_rng(0)
    backbone = init_mlp([3, 4], ["relu"], rng)
    erm = Model("erm", backbone, [init_mlp([4, 2], ["identity"], rng)])
    experts = Model("decoupled", backbone, [init_mlp([4, 2], ["identity"], rng) for _ in range(2)])
    x, groups = np.ones((2, 3)), np.array(groups)
    with pytest.raises(ValueError, match=match):
        experts.predict_proba(x, groups)
    expert_probs, erm_probs = experts.predict_proba(x, [0, 1]), erm.predict_proba(x)
    for choices in ((0, 0), (1, 0), (1, 1)):
        with pytest.raises(ValueError, match=match):
            route(make_decision(choices), expert_probs, erm_probs, groups)


def routed_models(d, groups, repr_dim, seed=0):
    """A decoupled model with ``groups`` heads and a pooled model sharing
    one randomly initialised backbone."""
    rng = np.random.default_rng(seed)
    backbone = init_mlp([d, 16, repr_dim], ["relu", "relu"], rng)
    erm = Model("erm", backbone, [init_mlp([repr_dim, 2], ["identity"], rng)])
    heads = [init_mlp([repr_dim, 2], ["identity"], rng) for _ in range(groups)]
    return Model("decoupled", backbone, heads), erm


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_routed_rows_equal_each_models_own_rows_bit_for_bit(seed):
    # at repr_dim 32 a head product rounds by its row count, so a model
    # run on a gathered subset of rows differs in the last bit from the
    # same rows of its whole-input prediction
    rng = np.random.default_rng(seed)
    experts, erm = routed_models(3, 2, 32, seed)
    x = rng.normal(size=(30_000, 3))
    groups = (rng.uniform(size=30_000) < 0.02).astype(np.uint8)  # a 2% group
    expert_probs, erm_probs = experts.predict_proba(x, groups), erm.predict_proba(x, groups)
    for choices in ((1, 0), (0, 1)):
        use_expert = np.asarray(choices)[groups] == 1
        want = np.where(
            use_expert[:, None], experts.predict_proba(x, groups), erm.predict_proba(x, groups)
        )
        got = route(make_decision(choices), expert_probs, erm_probs, groups)
        assert got.tobytes() == want.tobytes()


def test_mixed_route_allocates_only_its_output():
    rng = np.random.default_rng(1)
    groups = rng.integers(0, 6, 120_000).astype(np.uint8)
    expert_probs, erm_probs = rng.uniform(size=(2, 120_000, 2))
    tracemalloc.start()
    try:
        probs = route(make_decision((1, 0, 1, 0, 1, 0)), expert_probs, erm_probs, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (rows, 2) output plus the one-byte-per-row choice mask
    assert peak <= probs.nbytes + 2 * groups.nbytes


@pytest.mark.parametrize(
    "choices, held",
    [((1, 1), "expert"), ((1, 0), None), ((0, 1), None), ((0, 0), "erm")],
)
def test_uniform_routing_returns_the_held_rows_without_a_copy(choices, held):
    x = np.zeros((4, 2))
    expert_probs, erm_probs = StubModel(0.9).predict_proba(x), StubModel(0.1).predict_proba(x)
    probs = route(make_decision(choices), expert_probs, erm_probs, np.array([0, 1, 1, 0]))
    assert (probs is expert_probs, probs is erm_probs) == (held == "expert", held == "erm")


def test_routing_rejects_unknown_group():
    experts, erm = StubModel(0.9), StubModel(0.1)
    x = np.zeros((1, 2))
    with pytest.raises(ValueError, match="group index"):
        route(make_decision((1, 0)), experts.predict_proba(x), erm.predict_proba(x), np.array([2]))
