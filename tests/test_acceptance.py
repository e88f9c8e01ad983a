"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

The reference experiment is configs/group_shift.cfg: three seeds of an
imbalanced two-group mixture where the pooled baseline underperforms the
minority group. Bundles are produced once per session and shared.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fairexperts import rng as rngmod
from fairexperts.config import config_from_dict, load_config
from fairexperts.experiment import dataset_for_seed, run_experiment
from fairexperts.losses import (
    CenterCosines,
    VirtualCenters,
    center_alignment_loss,
    discriminator_loss,
    diversity_loss,
    sample_pairs,
)
from fairexperts.metrics import GroupMetrics, auc, group_eval
from fairexperts.net import Layer, Mlp, init_mlp
from fairexperts.selection import combine, select_greedy, select_ip
from fairexperts.training import _routed_cross_entropy, train_erm, train_experts

from helpers import (
    central_difference,
    enumerate_ip_oracle,
    group_batch,
    max_relative_error,
    one_batch,
    pairwise_auc_oracle,
)

CONFIG_PATH = "configs/group_shift.cfg"


def report_criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def reference_bundle(tmp_path_factory):
    config = load_config(CONFIG_PATH)
    out_dir = str(tmp_path_factory.mktemp("reference"))
    start = time.perf_counter()
    out = run_experiment(config, out_dir)
    out["elapsed"] = time.perf_counter() - start
    out["config"] = config
    out["out_dir"] = out_dir
    return out


@pytest.fixture(scope="session")
def ablation_bundle(tmp_path_factory):
    config = load_config(CONFIG_PATH)
    raw = dict(config.raw)
    raw["hyper.lambda_virt"] = "0.0"
    raw["hyper.lambda_div"] = "0.0"
    ablated = config_from_dict(raw)
    return run_experiment(ablated, str(tmp_path_factory.mktemp("ablation")))


def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        n = int(rng.integers(2, 17))
        m = int(rng.integers(2, 9))
        g = int(rng.integers(2, 4))
        c = int(rng.integers(2, 4))
        z = rng.standard_normal((n, m))
        labels = rng.integers(0, c, n)
        groups = rng.integers(0, g, n)
        disc = init_mlp([m, g], ["identity"], rng)
        centers = VirtualCenters(rng.standard_normal((g, c, m)))
        head = init_mlp([m, g * c], ["identity"], rng).layers[0]
        pairs = sample_pairs(labels, groups, rng, batch_size=len(labels))
        batch = one_batch(labels, groups, (g, c), pairs)

        _, dz, dparams = discriminator_loss(z, batch, disc)
        worst = max(worst, max_relative_error(
            dz, central_difference(lambda: discriminator_loss(z, batch, disc)[0], z)
        ))
        for p, grad in zip(disc.params(), dparams):
            worst = max(worst, max_relative_error(
                grad, central_difference(lambda: discriminator_loss(z, batch, disc)[0], p)
            ))

        _, dz, dv = center_alignment_loss(CenterCosines(z, centers), batch)
        worst = max(worst, max_relative_error(
            dz,
            central_difference(
                lambda: center_alignment_loss(CenterCosines(z, centers), batch)[0], z
            ),
        ))
        worst = max(worst, max_relative_error(
            dv,
            central_difference(
                lambda: center_alignment_loss(CenterCosines(z, centers), batch)[0], centers.vectors
            ),
        ))

        _, dz, dv, _ = diversity_loss(CenterCosines(z, centers), batch)
        worst = max(worst, max_relative_error(
            dz,
            central_difference(lambda: diversity_loss(CenterCosines(z, centers), batch)[0], z),
        ))
        worst = max(worst, max_relative_error(
            dv,
            central_difference(
                lambda: diversity_loss(CenterCosines(z, centers), batch)[0], centers.vectors
            ),
        ))

        _, dz, (dw, db) = _routed_cross_entropy(head, z, batch)
        worst = max(worst, max_relative_error(
            dz,
            central_difference(lambda: _routed_cross_entropy(head, z, batch)[0], z),
        ))
        # each group's rows of the stacked weight and bias
        for k in range(g):
            rows = slice(k * c, (k + 1) * c)
            for p, grad in zip((head.weight[rows], head.bias[rows]), (dw[rows], db[rows])):
                worst = max(worst, max_relative_error(
                    grad,
                    central_difference(lambda: _routed_cross_entropy(head, z, batch)[0], p),
                ))
        checked += 1
    elapsed = time.perf_counter() - start
    report_criterion(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"{checked} instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_loss_values():
    disc = Mlp([Layer(np.zeros((2, 3)), np.zeros(2), "identity")])
    loss_disc, _, _ = discriminator_loss(
        np.array([[1.0, 2.0, 3.0]]), group_batch(np.array([0]), 2), disc
    )
    err_disc = abs(loss_disc - math.log(2))

    centers_single = VirtualCenters(np.ones((2, 1, 3)))
    loss_virt, _, _ = center_alignment_loss(
        CenterCosines(np.array([[1.0, 2.0, 3.0]]), centers_single),
        one_batch(np.array([0]), np.array([1]), (2, 1)),
    )

    vectors = np.zeros((2, 2, 3))
    vectors[0, 0] = [1.0, 1.0, 0.0]
    vectors[1, 1] = [1.0, 1.0, 0.0]
    vectors[0, 1] = [0.0, 0.0, 5.0]
    vectors[1, 0] = [0.0, 0.0, 5.0]
    loss_div, _, _, _ = diversity_loss(
        CenterCosines(np.array([[1.0, 0.0, 0.0]]), VirtualCenters(vectors)),
        one_batch(np.array([0]), np.array([0]), (2, 2)),
    )
    ok = err_disc < 1e-12 and abs(loss_virt) < 1e-12 and abs(loss_div) < 1e-12
    report_criterion(
        2,
        ok,
        f"|disc - ln2|={err_disc:.1e}, virt(C=1)={loss_virt:.1e}, div(symmetric)={loss_div:.1e}",
    )


def test_criterion_03_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    exact = 0
    invariant = 0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 2 == 0:
            scores = rng.integers(0, 8, n).astype(float)  # tie-heavy
        else:
            scores = rng.standard_normal(n)
        value = auc(scores, labels)
        exact += value == pairwise_auc_oracle(scores, labels)
        invariant += (
            auc(np.exp(scores), labels) == value and auc(5.0 * scores - 2.0, labels) == value
        )
    report_criterion(
        3, exact == 1000 and invariant == 1000,
        f"{exact}/1000 exact oracle matches, {invariant}/1000 transform-invariant",
    )


def test_criterion_04_integer_program_is_exact_and_always_feasible():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    agree = 0
    feasible = 0
    for trial in range(1000):
        g = int(rng.integers(1, 7))
        expert_values = rng.uniform(0, 1, g)
        erm_values = rng.uniform(0, 1, g)
        if rng.uniform() < 0.3:
            i = int(rng.integers(g))
            expert_values[i] = erm_values[i]
        p = rng.uniform(0.05, 1.0, g)
        p = p / p.sum()
        lam = float(rng.uniform(0, 1))
        expert = GroupMetrics("accuracy", expert_values, p, "val")
        erm = GroupMetrics("accuracy", erm_values, p, "val")
        decision = select_ip(expert, erm, lam)
        choices, objective, _, _ = enumerate_ip_oracle(expert_values, erm_values, p, lam)
        agree += decision.choices == choices and abs(decision.objective - objective) < 1e-12
        # the all-pooled point is feasible with the pooled spread
        alpha0 = combine(np.zeros(g, dtype=int), expert, erm)
        delta0 = float(alpha0.max() - alpha0.min()) if g > 1 else 0.0
        trivial_objective = delta0 - lam * float(p @ alpha0)
        feasible += (
            np.array_equal(alpha0, erm_values) and decision.objective <= trivial_objective + 1e-15
        )
    elapsed = time.perf_counter() - start
    report_criterion(
        4,
        agree == 1000 and feasible == 1000 and elapsed < 10.0,
        f"{agree}/1000 oracle agreements, {feasible}/1000 trivial-feasibility checks, {elapsed:.1f}s",
    )


def test_criterion_05_no_harm_on_validation(reference_bundle, ablation_bundle):
    violations = []
    for bundle_name, bundle in (("reference", reference_bundle), ("ablation", ablation_bundle)):
        for report in bundle["reports"]:
            erm_val = report["models"]["erm"]["val"]["per_group"]
            for strategy, section in report["selection"].items():
                routed_val = section["val"]["per_group"]
                for g, (routed, baseline) in enumerate(zip(routed_val, erm_val)):
                    if not routed >= baseline:
                        violations.append(
                            (bundle_name, report["seed"], strategy, g, routed, baseline)
                        )
    report_criterion(
        5, not violations, f"violations: {violations!r}" if violations else
        "routed >= pooled per group on validation for every run and strategy",
    )


def test_criterion_06_greedy_maximizes_worst_group():
    rng = np.random.default_rng(9)
    optimal = 0
    for _ in range(1000):
        g = int(rng.integers(1, 7))
        expert_values = rng.uniform(0, 1, g)
        erm_values = rng.uniform(0, 1, g)
        p = np.full(g, 1.0 / g)
        expert = GroupMetrics("accuracy", expert_values, p, "val")
        erm = GroupMetrics("accuracy", erm_values, p, "val")
        decision = select_greedy(expert, erm)
        best = max(
            min(
                combine(
                    np.array([(mask >> i) & 1 for i in range(g)]), expert, erm
                )
            )
            for mask in range(2**g)
        )
        optimal += min(decision.per_group) == best
    report_criterion(6, optimal == 1000, f"{optimal}/1000 worst-group optima")


def test_criterion_07_pooled_disadvantage_is_repaired_without_harm(reference_bundle):
    gaps = []
    mf_ok = []
    gap_ok = []
    for report in reference_bundle["reports"]:
        erm_val = report["models"]["erm"]["val"]
        greedy_val = report["selection"]["greedy"]["val"]
        ip_val = report["selection"]["ip"]["val"]
        gaps.append(erm_val["gap"])
        mf_ok.append(greedy_val["mf"] >= erm_val["mf"])
        gap_ok.append(ip_val["gap"] <= erm_val["gap"])
    elapsed = reference_bundle["elapsed"]
    ok = all(g >= 0.05 for g in gaps) and all(mf_ok) and all(gap_ok) and elapsed < 300.0
    report_criterion(
        7,
        ok,
        f"pooled gaps {[round(g, 4) for g in gaps]} (>=0.05), "
        f"greedy MF no-harm {mf_ok}, IP gap reduced {gap_ok}, bundle {elapsed:.0f}s",
    )


def test_criterion_08_expert_representations_are_more_group_separable(reference_bundle):
    diffs = [
        r["probe"]["experts_accuracy"] - r["probe"]["erm_accuracy"]
        for r in reference_bundle["reports"]
    ]
    mean_diff = float(np.mean(diffs))
    report_criterion(
        8,
        mean_diff >= 0.05,
        f"probe accuracy gain per seed {[round(d, 4) for d in diffs]}, mean {mean_diff:.4f}",
    )


def test_criterion_09_centers_off_variant_reverts_to_pooled_selection(ablation_bundle):
    # With the center losses zeroed, selection is expected to keep the
    # pooled model everywhere. At this scale the expectation does not
    # hold: the per-group heads alone recover the minority group's rule
    # from the shared representation (its class signal stays linearly
    # readable at any width we tested), so the centers-off variant still
    # beats the pooled baseline and selection stays non-trivial. The
    # assertion is kept as stated rather than weakened; see the test
    # output for the observed selections.
    trivial = 0
    observed = []
    for report in ablation_bundle["reports"]:
        choices = {
            strategy: tuple(section["decision"]["choices"])
            for strategy, section in report["selection"].items()
        }
        observed.append((report["seed"], choices))
        if all(c == (0,) * len(c) for c in choices.values()):
            trivial += 1
    report_criterion(
        9,
        trivial >= 2,
        f"trivial selection on {trivial}/3 seeds with center losses off; observed {observed!r}",
    )


def test_one_group_experts_with_every_lambda_zero_score_like_pooled():
    # Criterion 09's sanity check: with one group every row routes to one
    # head, and with every lambda at 0 only the classification loss moves
    # the backbone, so the experts model is the pooled architecture trained
    # on the same data. A val accuracy far from the pooled model's would
    # point at a routing defect, not at the representation losses.
    kv = {key: value for key, value in load_config(CONFIG_PATH).raw.items()
          if ".g1" not in key}
    kv["data.groups"] = "1"
    for name in ("lambda_disc", "lambda_virt", "lambda_div"):
        kv[f"hyper.{name}"] = "0"
    config = config_from_dict(kv)
    observed = []
    for seed in config.seeds:
        dataset = dataset_for_seed(config, seed)
        hp = replace(config.hyper, seed=seed)
        pooled = group_eval(train_erm(dataset, hp).predict_proba, dataset, "val", "accuracy")
        experts = group_eval(train_experts(dataset, hp).predict_proba, dataset, "val", "accuracy")
        observed.append((seed, float(pooled.values[0]), float(experts.values[0])))
    assert config.seeds == (11, 12, 13)
    assert all(abs(e - p) <= 0.02 for _, p, e in observed), observed


def test_criterion_10_reports_reproduce_byte_identically(reference_bundle, tmp_path):
    from dataclasses import replace
    from pathlib import Path

    # rerun seed 11 alone (provenance dict unchanged) and compare files
    config = replace(reference_bundle["config"], seeds=(11,))
    rerun_dir = tmp_path / "rerun"
    run_experiment(config, str(rerun_dir))
    reference_dir = Path(reference_bundle["out_dir"])
    mismatched = [
        name
        for name in ("report_11.json", "training_log_11.csv", "representations_11.csv")
        if (rerun_dir / name).read_bytes() != (reference_dir / name).read_bytes()
    ]
    report_criterion(
        10,
        not mismatched,
        "seed 11 rerun reproduces every per-seed file byte for byte"
        if not mismatched
        else f"files differ: {mismatched}",
    )
