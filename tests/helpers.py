"""Shared test utilities: independent oracles and small dataset builders."""

import numpy as np

from fairexperts import HyperParams, SyntheticConfig, generate_synthetic


def central_difference(fn, x, step=1e-5):
    """Finite-difference gradient of ``fn()`` w.r.t. array ``x``.

    ``fn`` returns a scalar or a vector; the result has shape
    ``x.shape + shape of fn()``. Mutates entries of ``x`` in place and
    restores them, so ``fn`` must read ``x`` by reference.
    """
    grad = np.zeros(x.shape + np.shape(fn()))
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = fn()
        x[idx] = orig - step
        lo = fn()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def pairwise_auc_oracle(scores, labels):
    """Quadratic pairwise win/tie count; the AUC ground truth."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0
    ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def enumerate_ip_oracle(expert, erm, proportions, lambda_sel):
    """Exhaustive scan of all selections; independent of the solver."""
    g = len(expert)
    best_key = None
    best = None
    for mask in range(2**g):
        v = [(mask >> i) & 1 for i in range(g)]
        if any(v[i] and expert[i] < erm[i] for i in range(g)):
            continue
        alpha = [v[i] * expert[i] + (1 - v[i]) * erm[i] for i in range(g)]
        delta = max(alpha) - min(alpha) if g > 1 else 0.0
        objective = delta - lambda_sel * sum(p * a for p, a in zip(proportions, alpha))
        key = (objective, sum(v), tuple(v))
        if best_key is None or key < best_key:
            best_key = key
            best = (tuple(v), objective, alpha, delta)
    return best


def sample_pairs_oracle(labels, groups, gen):
    """Per-sample loop over full-batch masks; the pair-sampling ground truth.

    For each sample in batch order, draws its positive (same class and
    group, not itself), then its negative (differs in both), with one
    scalar ``gen.integers`` call per partner that has a candidate.
    Returns (positive, negative), -1 where no partner is eligible.
    """
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    n = len(labels)
    positive = np.full(n, -1, dtype=np.int64)
    negative = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    for i in range(n):
        pos_mask = (labels == labels[i]) & (groups == groups[i])
        pos_mask[i] = False
        cand = idx[pos_mask]
        if cand.size:
            positive[i] = cand[gen.integers(cand.size)]
        cand = idx[(labels != labels[i]) & (groups != groups[i])]
        if cand.size:
            negative[i] = cand[gen.integers(cand.size)]
    return positive, negative


def separable_config(seed=42, d=4):
    """Small group-separable mixture: distinct class axes per group."""
    means = np.zeros((2, 2, d))
    means[0, 0, 0] = -2.0
    means[0, 1, 0] = 2.0
    means[1, 0, 1] = -2.0
    means[1, 1, 1] = 2.0
    means[1, :, 2] = 3.0
    return SyntheticConfig(
        d=d,
        classes=2,
        groups=2,
        means=means,
        stds=np.full((2, 2), 1.0),
        counts={"train": (640, 160), "val": (320, 80), "test": (320, 80)},
        seed=seed,
    )


def tiny_config(seed=5):
    """Fast dataset for mechanical training tests."""
    means = np.zeros((2, 2, 3))
    means[0, 0, 0] = -1.5
    means[0, 1, 0] = 1.5
    means[1, 0, 1] = -1.5
    means[1, 1, 1] = 1.5
    return SyntheticConfig(
        d=3,
        classes=2,
        groups=2,
        means=means,
        stds=np.full((2, 2), 1.0),
        counts={"train": (48, 32), "val": (24, 16), "test": (24, 16)},
        seed=seed,
    )


def tiny_dataset(seed=5):
    return generate_synthetic(tiny_config(seed))


def tiny_hp(**kwargs):
    # hidden width stays comfortably above the all-relu-dead regime, where
    # a sample's representation collapses to exactly zero at init
    defaults = dict(seed=5, epochs=2, batch_size=16, hidden_dim=16, repr_dim=4)
    defaults.update(kwargs)
    return HyperParams(**defaults)
