import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fairexperts import losses, net, training
from fairexperts import rng as rngmod
from fairexperts.data import Dataset, SyntheticConfig, generate_synthetic
from fairexperts.losses import (
    CenterCosines,
    VirtualCenters,
    center_alignment_loss,
    discriminator_loss,
    diversity_loss,
    sample_pairs,
)
from fairexperts.metrics import group_eval
from fairexperts.net import (
    APPLY_BLOCK,
    Layer,
    Mlp,
    TrainingDivergence,
    check_index,
    init_mlp,
    log_softmax,
    row_blocks,
    sgd_step,
    softmax_cross_entropy,
)
from fairexperts.training import (
    HyperParams,
    Model,
    _batches,
    _routed_cross_entropy,
    representation_blocks,
    train_decoupled,
    train_erm,
    train_experts,
)

from helpers import (
    central_difference,
    max_relative_error,
    one_batch,
    predict_proba_oracle,
    split_tags,
    tiny_dataset,
    tiny_hp,
)


def drawn_erm_inits(dataset, hp):
    rng = rngmod.stream(hp.seed, rngmod.INIT)
    backbone = init_mlp([dataset.d, hp.hidden_dim, hp.repr_dim], ["relu", "identity"], rng)
    head = init_mlp([hp.repr_dim, dataset.classes], ["identity"], rng)
    return backbone, head


def drawn_experts_inits(dataset, hp):
    rng = rngmod.stream(hp.seed, rngmod.INIT)
    backbone = init_mlp([dataset.d, hp.hidden_dim, hp.repr_dim], ["relu", "identity"], rng)
    disc = init_mlp([hp.repr_dim, dataset.num_groups], ["identity"], rng)
    centers = VirtualCenters.init(dataset.num_groups, dataset.classes, hp.repr_dim, rng)
    heads = [
        init_mlp([hp.repr_dim, dataset.classes], ["identity"], rng)
        for _ in range(dataset.num_groups)
    ]
    return backbone, disc, centers, heads


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# --- hyperparameter validation ------------------------------------------------


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lambda_disc=-0.1)
    with pytest.raises(ValueError):
        HyperParams(batch_size=1)
    with pytest.raises(ValueError):
        HyperParams(epochs=0)
    HyperParams(lr0=0.0)  # zero learning rate is allowed: freezes training


@pytest.mark.parametrize(
    "field", ["lambda_disc", "lambda_virt", "lambda_div", "lr0", "momentum", "lr_decay"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_hyperparams_reject_non_finite_and_negative_values(field, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        HyperParams(**{field: value})


# --- pooled baseline ------------------------------------------------------------


def test_erm_zero_learning_rate_keeps_initialization():
    ds = tiny_dataset()
    hp = tiny_hp(lr0=0.0)
    model = train_erm(ds, hp)
    backbone0, head0 = drawn_erm_inits(ds, hp)
    assert params_equal(model.backbone.params(), backbone0.params())
    assert params_equal(model.heads[0].params(), head0.params())


def test_erm_single_full_batch_step_matches_finite_difference_gradient():
    cfg_ds = tiny_dataset()
    idx = np.flatnonzero(split_tags(cfg_ds) == "train")[:4]  # four points, one batch
    ds = Dataset(
        cfg_ds.features[idx],
        cfg_ds.labels[idx],
        cfg_ds.groups[idx],
        np.array(["train"] * 4),
        cfg_ds.classes,
        cfg_ds.num_groups,
    )
    hp = tiny_hp(epochs=1, batch_size=4, lr0=0.02)
    model = train_erm(ds, hp)
    backbone0, head0 = drawn_erm_inits(ds, hp)
    features, labels, _ = ds.split_arrays("train")

    def batch_loss():
        z, _ = backbone0.forward(features)
        logits, _ = head0.forward(z)
        return softmax_cross_entropy(logits, labels)[0]

    for trained, init in (
        (model.backbone.params(), backbone0.params()),
        (model.heads[0].params(), head0.params()),
    ):
        for p_new, p_init in zip(trained, init):
            grad = central_difference(batch_loss, p_init, step=1e-6)
            assert np.allclose(p_new, p_init - hp.lr0 * grad, atol=1e-8)


def test_erm_reference_run_learns(separable_ds, erm42):
    features, labels, _ = separable_ds.split_arrays("train")
    preds = erm42.predict_proba(features).argmax(axis=1)
    assert np.mean(preds == labels) > 0.9


def test_erm_rejects_empty_train_split():
    ds = tiny_dataset()
    empty = Dataset(
        ds.features[:0], ds.labels[:0], ds.groups[:0], ds.split[:0], ds.classes, ds.num_groups
    )
    with pytest.raises(ValueError, match="train split is empty"):
        train_erm(empty, tiny_hp())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow precedes the raise
def test_erm_training_diverges_with_absurd_learning_rate():
    with pytest.raises(TrainingDivergence, match="epoch"):
        train_erm(tiny_dataset(), tiny_hp(lr0=1e8, epochs=4))


def test_training_log_length_and_lr_schedule(monkeypatch):
    # (lr0, epochs): the default rate, one decay from 0.05, the closed
    # form after sixty decays, and a zero rate that stays zero; every
    # step of epoch k takes HyperParams.lr(k)
    rates = []

    def recorded(params, velocity, grad, lr, momentum):
        rates.append(lr)
        return sgd_step(params, velocity, grad, lr, momentum)

    monkeypatch.setattr(training, "sgd_step", recorded)
    ds = tiny_dataset()  # 80 train rows: two batches of 40 an epoch
    for lr0, epochs in ((0.01, 5), (0.05, 2), (0.01, 61), (0.0, 3)):
        hp = tiny_hp(lr0=lr0, epochs=epochs, batch_size=40)
        rates.clear()
        train_erm(ds, hp)
        assert [hp.lr(k) for k in range(epochs)] == [lr0 * 0.9**k for k in range(epochs)]
        assert rates == [hp.lr(k) for k in range(epochs) for _ in range(2)]


# --- expert training -------------------------------------------------------------


def test_experts_zero_learning_rate_keeps_initialization():
    ds = tiny_dataset()
    hp = tiny_hp(lr0=0.0, epochs=3)
    model = train_experts(ds, hp)
    backbone0, disc0, centers0, heads0 = drawn_experts_inits(ds, hp)
    assert params_equal(model.backbone.params(), backbone0.params())
    assert params_equal(model.discriminator.params(), disc0.params())
    assert np.array_equal(model.centers.vectors, centers0.vectors)
    for head, head0 in zip(model.heads, heads0):
        assert params_equal(head.params(), head0.params())
    # parameter-dependent losses are logged but constant across epochs
    # (up to batch-partition summation order); the diversity loss varies
    # because partners are redrawn every batch
    first = model.log[0]
    for entry in model.log[1:]:
        assert entry.loss_cls == pytest.approx(first.loss_cls, rel=1e-12)
        assert entry.loss_disc == pytest.approx(first.loss_disc, rel=1e-12)
        assert entry.loss_virt == pytest.approx(first.loss_virt, rel=1e-12)
        assert np.isfinite(entry.loss_div)


def test_experts_zero_coefficients_reduce_to_joint_cross_entropy():
    ds = tiny_dataset()
    hp = tiny_hp(lambda_disc=0.0, lambda_virt=0.0, lambda_div=0.0, epochs=3)
    model = train_experts(ds, hp)

    # independent reference: jointly train backbone + routed heads on
    # cross-entropy alone, using the same documented streams
    backbone, _, _, heads = drawn_experts_inits(ds, hp)
    shuffle_rng = rngmod.stream(hp.seed, rngmod.SHUFFLE)
    v_b = [np.zeros_like(p) for p in backbone.params()]
    v_h = [[np.zeros_like(p) for p in h.params()] for h in heads]
    features, labels, groups = ds.split_arrays("train")
    n = features.shape[0]
    for epoch in range(hp.epochs):
        lr = hp.lr0 * hp.lr_decay**epoch
        perm = shuffle_rng.permutation(n)
        for batch in _batches(n, hp.batch_size):
            picked = perm[batch]
            xb, yb, ab = features[picked], labels[picked], groups[picked]
            z, cache = backbone.forward(xb)
            dz = np.zeros_like(z)
            head_grads = []
            for g, head in enumerate(heads):
                rows = np.flatnonzero(ab == g)
                if rows.size == 0:
                    head_grads.append([np.zeros_like(p) for p in head.params()])
                    continue
                logits, hcache = head.forward(z[rows])
                _, dlogits = softmax_cross_entropy(logits, yb[rows])
                dlogits *= rows.size / len(picked)  # global batch averaging
                grads, dz_rows = head.backward(hcache, dlogits)
                head_grads.append(grads)
                dz[rows] = dz_rows
            grads_b, _ = backbone.backward(cache, dz)
            for p, v, grad in zip(backbone.params(), v_b, grads_b):
                sgd_step(p, v, grad, lr, hp.momentum)
            for g, head in enumerate(heads):
                for p, v, grad in zip(head.params(), v_h[g], head_grads[g]):
                    sgd_step(p, v, grad, lr, hp.momentum)

    assert params_equal(model.backbone.params(), backbone.params())
    for trained, reference in zip(model.heads, heads):
        assert params_equal(trained.params(), reference.params())


# no shrink phase: every example trains a model and takes a
# finite-difference pass, so shrinking a failure would take minutes
@settings(max_examples=12, deadline=None, derandomize=True, phases=[Phase.generate])
@given(
    seed=st.integers(0, 2**16),
    num_groups=st.integers(2, 3),
    extra=st.integers(0, 8),
    lambdas=st.tuples(*[st.floats(0.0, 2.0)] * 3),
)
def test_experts_full_batch_step_follows_total_loss_gradient(seed, num_groups, extra, lambdas):
    # one full-batch epoch from zero momentum moves every parameter by
    # -lr0 times the gradient of the lambda-weighted total loss
    rng = np.random.default_rng(seed)
    cells = [(a, y) for a in range(num_groups) for y in range(2)] * 2
    groups = np.array([a for a, _ in cells] + rng.integers(0, num_groups, extra).tolist())
    labels = np.array([y for _, y in cells] + rng.integers(0, 2, extra).tolist())
    n = len(labels)
    ds = Dataset(rng.standard_normal((n, 3)), labels, groups, np.array(["train"] * n), 2, num_groups)
    lambda_disc, lambda_virt, lambda_div = lambdas
    hp = HyperParams(
        seed=seed, epochs=1, batch_size=n, lr0=0.5, hidden_dim=16, repr_dim=4,
        lambda_disc=lambda_disc, lambda_virt=lambda_virt, lambda_div=lambda_div,
    )
    model = train_experts(ds, hp)

    backbone, disc, centers, heads = drawn_experts_inits(ds, hp)
    perm = rngmod.stream(hp.seed, rngmod.SHUFFLE).permutation(n)
    xb, yb, ab = ds.features[perm], ds.labels[perm], ds.groups[perm]
    pairs = sample_pairs(yb, ab, rngmod.stream(hp.seed, rngmod.PAIRS), batch_size=len(yb))
    batch = one_batch(yb, ab, (num_groups, 2), pairs)

    # each term is differenced on its own and weighted afterwards: differencing
    # the O(1) weighted sum loses the terms a tiny lambda scales to ~1e-6
    weights = np.array([1.0, lambda_disc, lambda_virt, lambda_div])

    def loss_terms():
        z, _ = backbone.forward(xb)
        loss_cls = -np.mean([
            log_softmax(heads[a].forward(z[i : i + 1])[0])[0, y]
            for i, (y, a) in enumerate(zip(yb, ab))
        ])
        return np.array([
            loss_cls,
            discriminator_loss(z, batch, disc)[0],
            center_alignment_loss(CenterCosines(z, centers), batch)[0],
            diversity_loss(CenterCosines(z, centers), batch)[0],
        ])

    parts = [
        (model.backbone.params(), backbone.params()),
        (model.discriminator.params(), disc.params()),
        (model.centers.params(), centers.params()),
    ] + [(trained.params(), init.params()) for trained, init in zip(model.heads, heads)]
    for trained, init in parts:
        for p_new, p_init in zip(trained, init):
            step_grad = (p_init - p_new) / hp.lr0
            numeric = central_difference(loss_terms, p_init, step=1e-6) @ weights
            assert max_relative_error(step_grad, numeric) < 1e-5


def test_update_routing_lambda_disc_only_touches_disc_and_backbone():
    ds = tiny_dataset()
    n_train = int((split_tags(ds) == "train").sum())
    runs = {}
    for lam in (0.05, 0.5):
        hp = HyperParams(seed=5, epochs=1, batch_size=n_train, hidden_dim=16,
                         repr_dim=4, lambda_disc=lam)
        runs[lam] = train_experts(ds, hp)
    a, b = runs[0.05], runs[0.5]
    assert np.array_equal(a.centers.vectors, b.centers.vectors)
    for ha, hb in zip(a.heads, b.heads):
        assert params_equal(ha.params(), hb.params())
    assert not params_equal(a.discriminator.params(), b.discriminator.params())
    assert not params_equal(a.backbone.params(), b.backbone.params())


def test_update_routing_center_coefficients_never_touch_discriminator():
    ds = tiny_dataset()
    n_train = int((split_tags(ds) == "train").sum())
    runs = {}
    for lam in (0.05, 0.5):
        hp = HyperParams(seed=5, epochs=1, batch_size=n_train, hidden_dim=16,
                         repr_dim=4, lambda_virt=lam, lambda_div=lam)
        runs[lam] = train_experts(ds, hp)
    a, b = runs[0.05], runs[0.5]
    assert params_equal(a.discriminator.params(), b.discriminator.params())
    assert not np.array_equal(a.centers.vectors, b.centers.vectors)
    assert not params_equal(a.backbone.params(), b.backbone.params())


def test_routed_cross_entropy_matches_per_group_oracle():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((12, 4))
    labels = rng.integers(0, 2, 12)
    groups = rng.integers(0, 3, 12)
    heads = [init_mlp([4, 2], ["identity"], rng) for _ in range(3)]
    loss, dz, head_grads = _routed_cross_entropy(heads, z, one_batch(labels, groups, (3, 2)))

    total = 0.0
    for g, head in enumerate(heads):
        rows = np.flatnonzero(groups == g)
        if rows.size == 0:
            assert all(np.all(x == 0) for x in head_grads[g])
            continue
        logits, _ = head.forward(z[rows])
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        total += -np.log(p[np.arange(rows.size), labels[rows]]).sum()
        dlogits = p.copy()
        dlogits[np.arange(rows.size), labels[rows]] -= 1.0
        dlogits /= 12
        assert np.allclose(head_grads[g][0], dlogits.T @ z[rows], atol=1e-12)
        assert np.allclose(head_grads[g][1], dlogits.sum(axis=0), atol=1e-12)
    assert loss == pytest.approx(total / 12, abs=1e-12)


def test_group_sample_contributes_zero_gradient_to_other_heads():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((8, 4))
    labels = rng.integers(0, 2, 8)
    groups = np.array([0] * 4 + [1] * 4)
    heads = [init_mlp([4, 2], ["identity"], rng) for _ in range(2)]
    batch = one_batch(labels, groups, (2, 2))
    _, _, grads_before = _routed_cross_entropy(heads, z, batch)
    # perturbing group-1 rows must leave head 0's gradient untouched
    z2 = z.copy()
    z2[4:] += 10.0
    _, _, grads_after = _routed_cross_entropy(heads, z2, batch)
    assert all(np.array_equal(a, b) for a, b in zip(grads_before[0], grads_after[0]))
    assert not all(np.array_equal(a, b) for a, b in zip(grads_before[1], grads_after[1]))


def test_experts_training_is_deterministic():
    ds = tiny_dataset()
    a = train_experts(ds, tiny_hp())
    b = train_experts(ds, tiny_hp())
    assert params_equal(a.backbone.params(), b.backbone.params())
    assert np.array_equal(a.centers.vectors, b.centers.vectors)
    assert a.log == b.log


def test_experts_rejects_missing_train_cell():
    ds = tiny_dataset()
    keep = ~((ds.groups == 1) & (ds.labels == 1))  # drop the cell everywhere
    pruned = Dataset(
        ds.features[keep], ds.labels[keep], ds.groups[keep], ds.split[keep],
        ds.classes, ds.num_groups,
    )
    with pytest.raises(ValueError, match=r"cells \[\(1, 1\)\] have no training samples"):
        train_experts(pruned, tiny_hp())


def test_missing_train_cells_lists_every_cell_in_group_class_order():
    # cells (0, 1), (1, 0) and (2, 1) hold no rows in any split
    labels = [0, 0, 1, 1, 0, 0]
    groups = [2, 0, 1, 1, 0, 2]
    split = ["train", "train", "train", "val", "test", "train"]
    ds = Dataset(np.zeros((6, 1)), labels, groups, split, classes=2, num_groups=3)
    with pytest.raises(ValueError, match=r"cells \[\(0, 1\), \(1, 0\), \(2, 1\)\] have no"):
        train_experts(ds, tiny_hp())


def test_experts_reference_run_links_groups_and_does_no_harm(
    separable_ds, erm42, experts42
):
    # the discriminator separates groups in representation space
    hits = [
        experts42.discriminator.forward(z, cache=False)[0].argmax(axis=1) == groups
        for z, _, groups in representation_blocks(experts42, separable_ds, "val")
    ]
    assert np.mean(np.concatenate(hits)) > 0.9
    gm_experts = group_eval(experts42.predict_proba, separable_ds, "val", "accuracy")
    gm_erm = group_eval(erm42.predict_proba, separable_ds, "val", "accuracy")
    assert gm_experts.values.min() >= gm_erm.values.min()


def test_experts_epoch_log_matches_schedule():
    hp = tiny_hp(epochs=4)
    model = train_experts(tiny_dataset(), hp)
    assert len(model.log) == 4
    for k, entry in enumerate(model.log):
        assert entry.lr == hp.lr0 * hp.lr_decay**k


def test_index_checks_scale_with_epochs_not_batches(monkeypatch):
    # a fit checks its labels, groups and partners once per epoch at most,
    # so 40 batches an epoch make as many checks as one batch
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return check_index(*args, **kwargs)

    for module in (net, losses, training):
        monkeypatch.setattr(module, "check_index", counted)
    ds = tiny_dataset()  # 80 train rows
    epochs = 3
    for train in (train_erm, train_experts):
        counts = []
        for batch_size in (2, 80):
            calls.clear()
            train(ds, tiny_hp(epochs=epochs, batch_size=batch_size))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4 * epochs, (train.__name__, counts)


def test_a_batch_size_past_the_train_rows_trains_as_one_whole_batch():
    # nothing in training is sized by batch_size, so 10**12 runs at once
    ds = tiny_dataset()
    n_train = int((split_tags(ds) == "train").sum())

    def arrays(model):
        parts = [model.backbone, *model.heads]
        if model.discriminator is not None:
            parts += [model.discriminator, model.centers]
        return [p for part in parts for p in part.params()]

    for train in (train_erm, train_experts):
        whole = train(ds, tiny_hp(batch_size=n_train))
        start = time.process_time()
        huge = train(ds, tiny_hp(batch_size=10**12))
        assert time.process_time() - start < 5.0
        assert [a.tobytes() for a in arrays(huge)] == [a.tobytes() for a in arrays(whole)]
        assert huge.log == whole.log


# --- decoupled baseline ------------------------------------------------------------


def single_group_dataset(seed=6):
    cfg = SyntheticConfig(
        d=3,
        classes=2,
        groups=1,
        means=np.array([[[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]]]),
        stds=np.full((1, 2), 1.0),
        counts={"train": (60,), "val": (30,), "test": (30,)},
        seed=seed,
    )
    return generate_synthetic(cfg)


def test_decoupled_holds_the_frozen_erm_backbone():
    ds = tiny_dataset()
    erm = train_erm(ds, tiny_hp())
    before = [p.tobytes() for part in (erm.backbone, erm.heads[0]) for p in part.params()]
    decoupled = train_decoupled(erm, ds, tiny_hp())
    assert decoupled.backbone is erm.backbone
    after = [p.tobytes() for part in (erm.backbone, erm.heads[0]) for p in part.params()]
    assert after == before


def test_decoupled_single_group_equals_pooled_head_retraining():
    ds = single_group_dataset()
    hp = tiny_hp(epochs=3)
    erm = train_erm(ds, hp)
    decoupled = train_decoupled(erm, ds, hp)

    # reference: retrain one pooled head over the frozen backbone with the
    # decoupled trainer's documented streams
    backbone = erm.backbone
    features, labels, _ = ds.split_arrays("train")
    z = backbone.forward(features)[0]
    head = init_mlp([hp.repr_dim, ds.classes], ["identity"], rngmod.stream(hp.seed, rngmod.INIT, 1))
    velocity = [np.zeros_like(p) for p in head.params()]
    shuffle_rng = rngmod.stream(hp.seed, rngmod.SHUFFLE, 1, 0)
    for epoch in range(hp.epochs):
        perm = shuffle_rng.permutation(len(labels))
        for batch in _batches(len(labels), hp.batch_size):
            rows = perm[batch]
            logits, cache = head.forward(z[rows])
            _, dlogits = softmax_cross_entropy(logits, labels[rows])
            grads, _ = head.backward(cache, dlogits)
            for p, v, grad in zip(head.params(), velocity, grads):
                sgd_step(p, v, grad, hp.lr0 * hp.lr_decay**epoch, hp.momentum)
    assert params_equal(decoupled.heads[0].params(), head.params())


def test_decoupled_zero_learning_rate_keeps_head_initialization():
    ds = tiny_dataset()
    hp = tiny_hp(lr0=0.0)
    erm = train_erm(ds, hp)
    decoupled = train_decoupled(erm, ds, hp)
    rng = rngmod.stream(hp.seed, rngmod.INIT, 1)
    for head in decoupled.heads:
        reference = init_mlp([hp.repr_dim, ds.classes], ["identity"], rng)
        assert params_equal(head.params(), reference.params())


def test_decoupled_group_matching_pooled_distribution_tracks_erm():
    # both groups share one distribution, so each head should score within
    # two points of the pooled model on its group
    means = np.zeros((2, 2, 3))
    means[:, 0, 0] = -2.0
    means[:, 1, 0] = 2.0
    cfg = SyntheticConfig(
        d=3,
        classes=2,
        groups=2,
        means=means,
        stds=np.full((2, 2), 1.0),
        counts={"train": (400, 400), "val": (300, 300), "test": (300, 300)},
        seed=17,
    )
    ds = generate_synthetic(cfg)
    hp = HyperParams(seed=17, epochs=15, hidden_dim=8, repr_dim=4)
    erm = train_erm(ds, hp)
    decoupled = train_decoupled(erm, ds, hp)
    gm_dec = group_eval(decoupled.predict_proba, ds, "val", "accuracy")
    gm_erm = group_eval(erm.predict_proba, ds, "val", "accuracy")
    assert np.abs(gm_dec.values - gm_erm.values).max() <= 0.02


def test_one_group_decoupled_model_still_routes_by_group():
    # one head, like ERM, but a group index past it is an error, not pooled
    ds = single_group_dataset()
    hp = tiny_hp(epochs=1)
    decoupled = train_decoupled(train_erm(ds, hp), ds, hp)
    assert len(decoupled.heads) == 1
    x = ds.features[:2]
    decoupled.predict_proba(x, np.array([0, 0]))
    with pytest.raises(ValueError, match="group index out of range"):
        decoupled.predict_proba(x, np.array([0, 1]))


def test_decoupled_rejects_group_without_training_samples():
    ds = tiny_dataset()
    keep = ~((split_tags(ds) == "train") & (ds.groups == 1))
    # removing group 1 from train leaves its val cells orphaned, so drop
    # those too
    keep &= ~((split_tags(ds) != "train") & (ds.groups == 1))
    pruned = Dataset(
        ds.features[keep], ds.labels[keep], ds.groups[keep], ds.split[keep],
        ds.classes, ds.num_groups,
    )
    hp = tiny_hp()
    erm = train_erm(pruned, hp)
    with pytest.raises(ValueError, match="group 1"):
        train_decoupled(erm, pruned, hp)


# --- representation extraction -------------------------------------------------------


def _split_representations(model, ds, split):
    """``representation_blocks`` of one split, concatenated."""
    reps, labels, groups = zip(*representation_blocks(model, ds, split))
    return np.concatenate(reps), np.concatenate(labels), np.concatenate(groups)


def test_representation_blocks_identity_backbone_returns_raw_features():
    ds = tiny_dataset()
    identity = Mlp([Layer(np.eye(ds.d), np.zeros(ds.d), "identity")])
    head = Mlp([Layer(np.zeros((2, ds.d)), np.zeros(2), "identity")])
    model = Model("erm", identity, [head])
    reps, labels, groups = _split_representations(model, ds, "val")
    features, want_labels, want_groups = ds.split_arrays("val")
    assert np.array_equal(reps, features)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(groups, want_groups)


def test_representation_blocks_are_deterministic(experts42, separable_ds):
    a, _, _ = _split_representations(experts42, separable_ds, "val")
    b, _, _ = _split_representations(experts42, separable_ds, "val")
    assert np.array_equal(a, b)


def test_representation_blocks_reject_empty_split():
    ds = tiny_dataset()
    keep = split_tags(ds) != "test"
    pruned = Dataset(
        ds.features[keep], ds.labels[keep], ds.groups[keep], ds.split[keep],
        ds.classes, ds.num_groups,
    )
    model = train_erm(pruned, tiny_hp())
    with pytest.raises(ValueError, match="empty"):
        representation_blocks(model, pruned, "test")


def test_trained_representations_cluster_by_cell(experts42, separable_ds):
    reps, labels, groups = _split_representations(experts42, separable_ds, "val")
    cells = sorted(set(zip(groups.tolist(), labels.tolist())))
    centroids = {
        cell: reps[(groups == cell[0]) & (labels == cell[1])].mean(axis=0)
        for cell in cells
    }
    scores = []
    for i in range(reps.shape[0]):
        own = centroids[(groups[i], labels[i])]
        a = np.linalg.norm(reps[i] - own)
        b = min(
            np.linalg.norm(reps[i] - centroids[c])
            for c in cells
            if c != (groups[i], labels[i])
        )
        scores.append((b - a) / max(a, b))
    assert np.mean(scores) > 0.0


def test_erm_training_is_deterministic():
    ds = tiny_dataset()
    a = train_erm(ds, tiny_hp())
    b = train_erm(ds, tiny_hp())
    assert params_equal(a.backbone.params(), b.backbone.params())
    assert params_equal(a.heads[0].params(), b.heads[0].params())


def _blocked_models(repr_dim=8, groups=4, seed=31):
    rng = np.random.default_rng(seed)
    backbone = init_mlp([10, 32, repr_dim], ["relu", "identity"], rng)
    heads = [init_mlp([repr_dim, 2], ["identity"], rng) for _ in range(groups)]
    return Model("erm", backbone, heads[:1]), Model("decoupled", backbone, heads)


def test_predict_proba_in_blocks_equals_one_pass_over_the_input():
    rng = np.random.default_rng(8)
    n = 3 * APPLY_BLOCK + 500  # four near-equal blocks
    block0, block1 = list(row_blocks(n, APPLY_BLOCK))[:2]
    x = rng.standard_normal((n, 10))
    # sorted: group 1's first row is the last row of block 0, group 3 has
    # a single row in the whole input, group 0 fills the rest
    sorted_groups = np.zeros(n, dtype=np.int64)
    sorted_groups[block0.stop - 1 : block0.stop + 700] = 1
    sorted_groups[block0.stop + 700 : n - 1] = 2
    sorted_groups[n - 1] = 3
    shuffled = rng.permutation(sorted_groups)
    # shuffled again, then group 2 keeps one row in block 1 and more elsewhere
    sparse = shuffled.copy()
    sparse[block1][sparse[block1] == 2] = 0
    sparse[block1.start + 5] = 2
    # 8 is the default width; a head product on 32 or 64 inputs rounds
    # unlike the same rows in a larger product when it has few rows
    for repr_dim in (8, 32, 64):
        erm, routed = _blocked_models(repr_dim)
        for groups in (sorted_groups, shuffled, sparse):
            assert np.bincount(groups, minlength=4)[3] == 1
            for model in (erm, routed):
                for rows in (slice(None), slice(0, 1), slice(0, 700), slice(block0.stop - 3, None)):
                    got = model.predict_proba(x[rows], groups[rows])
                    want = predict_proba_oracle(model, x[rows], groups[rows])
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the cases above hit a group's only row in a block, with more rows
    # of that group elsewhere
    assert np.count_nonzero(sparse[block1] == 2) == 1
    assert np.count_nonzero(sparse == 2) > 1


# At repr_dim 32 and 64, OpenBLAS's small-matrix kernel rounds some rows
# of a head product of at most 1,200 / (G x classes) rows by position
# (net.APPLY_BLOCK). The 300-row inputs at G 1 are such products
# and keep their bits in any order; 302 or 1,025 rows at G 1 do not.
@pytest.mark.parametrize("rows", [300, 1_500, 20_000])
@pytest.mark.parametrize("repr_dim", [8, 32, 64])
@pytest.mark.parametrize("groups", [1, 3, 16])
def test_predict_proba_rows_do_not_depend_on_row_order(rows, repr_dim, groups):
    erm, routed = _blocked_models(repr_dim, groups, seed=rows + repr_dim + groups)
    rng = np.random.default_rng(rows * groups + repr_dim)
    x = rng.standard_normal((rows, 10))
    row_groups = rng.integers(0, groups, rows, dtype=np.uint8)
    perm = rng.permutation(rows)
    for model in (erm, routed):
        want = model.predict_proba(x, row_groups)[perm]
        got = model.predict_proba(x[perm], row_groups[perm])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_predict_proba_bounds_memory_by_the_output():
    _, routed = _blocked_models(repr_dim=32, groups=3)
    rng = np.random.default_rng(9)
    rows = 120_000
    x = rng.standard_normal((rows, 10))
    groups = rng.integers(0, 3, rows)
    tracemalloc.start()
    try:
        out = routed.predict_proba(x, groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of at most APPLY_BLOCK rows: its hidden activations and
    # representations (two APPLY_BLOCK x 32 float arrays, 0.52 MB), every
    # head's logits and smaller temporaries, 0.67 MB in all here; the
    # bound, 1.05 MB, is that of four such arrays. A pass over the whole
    # input holds rows x 32 representations (31 MB)
    assert peak < out.nbytes + 4 * APPLY_BLOCK * 32 * 8
