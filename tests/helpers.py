"""Shared test utilities: independent oracles and small dataset builders."""

import csv
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from fairexperts import HyperParams, SyntheticConfig, generate_synthetic
from fairexperts.data import (
    SPLITS,
    CsvSchema,
    DataError,
    Dataset,
    assign_splits,
    load_csv,
)
from fairexperts.losses import EXP_CLAMP, BatchPlan, PairAssignment, VirtualCenters
from fairexperts.metrics import _odds_score, auc
from fairexperts.net import TrainingDivergence, check_index, softmax


def one_batch(labels, groups, cells, pairs=None):
    """``labels`` and ``groups`` as the one ``Batch`` of a ``BatchPlan`` over
    (groups, classes) ``cells``, checked as training checks an epoch;
    partners are ``pairs``, or none."""
    n = np.size(labels)
    if pairs is None:
        pairs = PairAssignment(np.full(n, -1), np.full(n, -1))
    return BatchPlan(labels, groups, cells, max(n, 1), pairs)[:]


def group_batch(groups, num_groups):
    """``groups`` as the one checked ``Batch`` a discriminator of
    ``num_groups`` outputs reads; every label is 0 of one class."""
    return one_batch(np.zeros(np.size(groups), dtype=np.intp), groups, (num_groups, 1))


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


def equalized_odds_oracle(predictions, labels, groups):
    """Per-group masks and a Python loop over group pairs."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be binary 0/1")
    if not ((predictions == 0) | (predictions == 1)).all():
        raise ValueError("predictions must be binary 0/1")
    ids = np.unique(groups)
    rates = {}
    for g in ids:
        mask = groups == g
        pos = labels[mask] == 1
        neg = labels[mask] == 0
        if not pos.any() or not neg.any():
            raise ValueError(f"group {int(g)} is missing a label class")
        tpr = float(np.mean(predictions[mask][pos] == 1))
        fpr = float(np.mean(predictions[mask][neg] == 1))
        rates[int(g)] = (tpr, fpr)
    if len(ids) < 2:
        return 1.0
    score = 1.0
    for i, gi in enumerate(ids):
        for gj in ids[i + 1 :]:
            ti, fi = rates[int(gi)]
            tj, fj = rates[int(gj)]
            score = min(score, 1.0 - 0.5 * (abs(ti - tj) + abs(fi - fj)))
    return score


def predict_proba_oracle(model, features, groups=None):
    """``Model.predict_proba`` as one pass over the whole input: every
    row's representation, then one product of all heads' stacked weights
    over all of them, each row keeping its own group's logits (the
    pooled head's for erm)."""
    z = model.backbone.forward(features)[0]
    weight = np.concatenate([head.layers[0].weight for head in model.heads])
    bias = np.concatenate([head.layers[0].bias for head in model.heads])
    logits = (z @ weight.T + bias).reshape(z.shape[0], len(model.heads), -1)
    if model.kind == "erm":
        return softmax(logits[:, 0])
    groups = check_index("groups", groups, z.shape[0], len(model.heads))
    return softmax(logits[np.arange(z.shape[0]), groups])


def build_report_oracle(probs, dataset, split, kind):
    """``build_report`` of the predictor output ``probs`` as it was computed
    on whole-split arrays: one argmax of every row, an n-length hit mask
    per group and for the pooled accuracy, and the (group, label,
    prediction) table of binary tasks from one bincount of n codes."""
    _, labels, groups = dataset.split_arrays(split)
    sizes = np.bincount(groups, minlength=dataset.num_groups)
    predicted = probs.argmax(axis=1)
    if kind == "accuracy":
        values = np.bincount(groups[predicted == labels], minlength=dataset.num_groups)
        values = values / sizes
        overall = np.mean(predicted == labels)
    else:
        values = np.array([auc(probs[groups == g, 1], labels[groups == g])
                           for g in range(dataset.num_groups)])
        overall = auc(probs[:, 1], labels)
    eo = None
    if dataset.classes == 2 and dataset.cell_counts(split).all():
        codes = groups.astype(np.intp) * 4 + (labels == 1) * 2 + (predicted == 1)
        table = np.bincount(codes, minlength=4 * dataset.num_groups)
        eo = _odds_score(table.reshape(dataset.num_groups, 2, 2))
    return {
        "metric_kind": kind,
        "split": split,
        "overall": float(overall),
        "per_group": [float(v) for v in values],
        "proportions": [float(p) for p in sizes / sizes.sum()],
        "mf": float(values.min()),
        "gap": float(values.max() - values.min()) if dataset.num_groups >= 2 else 0.0,
        "eo": eo,
        "selection": None,
    }


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


def solve_windows_oracle(expert, erm, proportions, lambda_sel):
    """The window sweep as it stood before its loop was rid of numpy's
    Python-level helpers (np.unique, np.pad, ndarray.max), kept verbatim:
    the solver must return its choices and objective bit for bit."""
    optional = (expert > erm) & (lambda_sel * proportions > 0)
    best = (np.inf, 0, ())
    for lo in np.unique(np.concatenate([erm, expert])):
        forced = erm < lo
        if np.any(forced & (expert < lo)):
            break
        top = max(erm.max(), expert[forced].max(initial=-np.inf))
        free = optional & ~forced
        his = np.unique(np.append(expert[free & (expert > top)], top))
        # Repeat the last row up to a multiple of 4. OpenBLAS dgemv rounds a
        # leftover row differently from a row in a full 4-row block, and
        # each objective must equal bit for bit that of the same row in the
        # full (2^G, G) matrix of all choice vectors, whose blocks are full.
        his = np.pad(his, (0, -his.size % 4), mode="edge")
        bits = (forced | (free & (expert <= his[:, None]))).astype(np.int64)
        alpha = bits * expert + (1 - bits) * erm
        objective = alpha.max(axis=1) - alpha.min(axis=1) - lambda_sel * (alpha @ proportions)
        i = int(np.argmin(objective))
        # tie order: objective, then fewer experts, then smallest choices
        key = (float(objective[i]), int(bits[i].sum()), tuple(bits[i].tolist()))
        best = min(best, key)
    return np.array(best[2]), best[0]


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


def split_tags(dataset):
    """Each row's split tag, from the dataset's ``SPLITS`` codes."""
    return np.asarray(SPLITS)[dataset.split]


INTERLEAVED_TAGS = ["train", "val", "train", "test", "train", "val", "train", "test", "train"]


def load_interleaved_csv(tmp_path):
    """A 2-group, 2-class CSV whose split tags interleave row by row."""
    path = tmp_path / "interleaved.csv"
    rows = ["f0,f1,label,group,split"]
    rows += [
        f"{i}.5,{-i}.25,{i % 3 // 2},{i // 2 % 2},{tag}" for i, tag in enumerate(INTERLEAVED_TAGS)
    ]
    path.write_text("\n".join(rows) + "\n")
    return load_csv(str(path), CsvSchema(("f0", "f1"), classes=2, groups=2))


def load_csv_oracle(path, schema):
    """``load_csv`` as a per-row loop that converts and range-checks each
    cell on its own, the loader's former form."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"{path}: file does not exist") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

    col_index = {name: i for i, name in enumerate(header)}
    names = schema.feature_columns
    if isinstance(names, int):  # the count form: f0..f{d-1}
        names = tuple(f"f{i}" for i in range(names))
    required = [*names, schema.label_column, schema.group_column]
    missing = [name for name in required if name not in col_index]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    counts = Counter(header)
    repeated = [name for name in dict.fromkeys((*required, schema.split_column)) if counts[name] > 1]
    if repeated:
        raise DataError(f"{path}: repeated columns {repeated}")

    has_split = schema.split_column is not None and schema.split_column in col_index
    feat_idx = [col_index[name] for name in names]
    n = len(rows)
    features = np.empty((n, len(feat_idx)), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    groups = np.empty(n, dtype=np.int64)
    split = np.empty(n, dtype="U5")

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 1} has {len(row)} fields, expected {len(header)}")
        for j, ci in enumerate(feat_idx):
            try:
                features[r, j] = float(row[ci])
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 1}, column {names[j]!r}: "
                    f"non-numeric value {row[ci]!r}"
                ) from None
        try:
            labels[r] = int(row[col_index[schema.label_column]])
            groups[r] = int(row[col_index[schema.group_column]])
        except ValueError:
            raise DataError(f"{path}: row {r + 1}: non-integer label or group") from None
        if not 0 <= labels[r] < schema.classes:
            raise DataError(f"{path}: row {r + 1}: label {labels[r]} out of range")
        if not 0 <= groups[r] < schema.groups:
            raise DataError(f"{path}: row {r + 1}: group {groups[r]} out of range")
        if has_split:
            tag = row[col_index[schema.split_column]]
            if tag not in SPLITS:
                raise DataError(f"{path}: row {r + 1}: unknown split tag {tag!r}")
            split[r] = tag

    if not has_split:
        split = assign_splits(labels, groups, schema.split_seed)
    return Dataset(features, labels, groups, split, schema.classes, schema.groups)


def tiny_dataset(seed=5):
    return generate_synthetic(tiny_config(seed))


def tiny_hp(**kwargs):
    # hidden width stays comfortably above the all-relu-dead regime, where
    # a sample's representation collapses to exactly zero at init
    defaults = dict(seed=5, epochs=2, batch_size=16, hidden_dim=16, repr_dim=4)
    defaults.update(kwargs)
    return HyperParams(**defaults)


# --- loss oracles ------------------------------------------------------------
# The center losses and the cross-entropy helpers as they were before the
# cosine system was shared between the two center losses, copied with only
# their names changed. Tests require the package's losses to reproduce
# them bit for bit.


def check_cells_oracle(
    labels: np.ndarray, groups: np.ndarray, rows: int, centers: VirtualCenters | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate per-sample class and group indices; returns them as arrays.

    Both must be 1-D, hold nonnegative integers and have ``rows``
    entries; with ``centers``, they must also index its cells.
    """
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    for name, a in (("labels", labels), ("groups", groups)):
        if a.shape != (rows,):
            raise ValueError(
                f"{name} must be 1-D with one entry per row ({rows}), got shape {a.shape}"
            )
        if a.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
        if rows and a.min() < 0:
            raise ValueError(f"{name} must be nonnegative")
    if centers is not None and rows:
        g_total, c_total, _ = centers.shape
        if labels.max() >= c_total:
            raise ValueError("label index out of range for centers")
        if groups.max() >= g_total:
            raise ValueError("group index out of range for centers")
    return labels, groups


class CosineSystemOracle:
    """Shared plumbing for all-pairs cosine similarities and gradients."""

    def __init__(self, reps: np.ndarray, centers: VirtualCenters):
        self.z = np.atleast_2d(np.asarray(reps, dtype=np.float64))
        self.v = centers.vectors
        self.z_norm = np.linalg.norm(self.z, axis=1)  # (n,)
        self.v_norm = np.linalg.norm(self.v, axis=2)  # (G, C)
        if np.any(self.z_norm == 0.0):
            raise ValueError("cosine similarity undefined for zero-norm representation")
        if np.any(self.v_norm == 0.0):
            raise ValueError("cosine similarity undefined for zero-norm center")
        self.z_hat = self.z / self.z_norm[:, None]
        self.v_hat = self.v / self.v_norm[:, :, None]
        # cos[i, g, c] = cosine(V[g, c], z_i)
        self.cos = np.einsum("nm,gcm->ngc", self.z_hat, self.v_hat)

    def grads(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map dL/dcos weights (n, G, C) to (dL/dZ, dL/dV)."""
        wc = weights * self.cos
        dz = np.einsum("ngc,gcm->nm", weights, self.v_hat)
        dz -= wc.sum(axis=(1, 2))[:, None] * self.z_hat
        dz /= self.z_norm[:, None]
        dv = np.einsum("ngc,nm->gcm", weights, self.z_hat)
        dv -= wc.sum(axis=0)[:, :, None] * self.v_hat
        dv /= self.v_norm[:, :, None]
        return dz, dv


def center_alignment_oracle(
    reps: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    centers: VirtualCenters,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional sample/center alignment, batch-averaged.

    For each sample and every group's center row, the cross-entropy of
    the true class under a softmax over cosine similarities to that row's
    per-class centers, summed over the rows. Returns (loss, dZ, dV).
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    n = reps.shape[0]
    labels, groups = check_cells_oracle(np.atleast_1d(labels), np.atleast_1d(groups), n, centers)
    sys = CosineSystemOracle(reps, centers)
    logp = log_softmax_oracle(sys.cos)  # softmax over classes, per (sample, group)
    rows = np.arange(n)
    # weights[i, g, c] = d loss / d cos[i, g, c]
    weights = np.exp(logp)
    weights[rows, :, labels] -= 1.0
    per_group_ce = -logp[rows, :, labels]  # (n, G)
    loss = float(per_group_ce.sum() / n)
    weights /= n
    dz, dv = sys.grads(weights)
    return loss, dz, dv


def diversity_oracle(
    reps: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    pairs: PairAssignment,
    centers: VirtualCenters,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Contrastive pull/push over partners and centers, batch-averaged.

    Per sample: -log of (exp(z.z_pos) + exp(cos to own cell center)) over
    (exp(z.z_neg) + sum of exp(cos) to centers differing in both group
    and class). A missing partner drops its exponential; a sample whose
    denominator would be empty is skipped. Returns
    (loss, dZ, dV, skipped_count). The value may be negative.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    n = reps.shape[0]
    labels, groups = check_cells_oracle(np.atleast_1d(labels), np.atleast_1d(groups), n, centers)
    g_total, c_total, _ = centers.shape
    for name, partner in (("positive", pairs.positive), ("negative", pairs.negative)):
        partner = np.asarray(partner)
        if partner.shape != (n,):
            raise ValueError(f"{name} partner array must have one entry per sample")
        bad = (partner >= n) | (partner < -1) | ((partner >= 0) & (partner == np.arange(n)))
        if np.any(bad):
            raise ValueError(f"{name} partner index invalid at positions {np.flatnonzero(bad)}")

    sys = CosineSystemOracle(reps, centers)
    z = sys.z
    pos = pairs.positive
    neg = pairs.negative
    has_pos = pos >= 0
    has_neg = neg >= 0
    rows = np.arange(n)

    dot_pos = np.where(has_pos, np.einsum("nm,nm->n", z, z[pos]), 0.0)
    dot_neg = np.where(has_neg, np.einsum("nm,nm->n", z, z[neg]), 0.0)
    if not (np.all(np.isfinite(dot_pos)) and np.all(np.isfinite(dot_neg))):
        raise TrainingDivergence("non-finite representation dot products")

    def clamped_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        active = np.abs(x) < EXP_CLAMP
        return np.exp(np.clip(x, -EXP_CLAMP, EXP_CLAMP)), active

    exp_pos, act_pos = clamped_exp(dot_pos)
    exp_neg, act_neg = clamped_exp(dot_neg)
    exp_pos = exp_pos * has_pos
    exp_neg = exp_neg * has_neg

    own = sys.cos[rows, groups, labels]
    exp_own = np.exp(own)
    other = (np.arange(g_total)[:, None] != groups[:, None, None]) & (
        np.arange(c_total)[None, :] != labels[:, None, None]
    )  # (n, G, C)
    exp_other = np.exp(sys.cos) * other

    numer = exp_pos + exp_own  # own-center term keeps this nonempty
    has_denom = has_neg | other.any(axis=(1, 2))
    denom = exp_neg + exp_other.sum(axis=(1, 2))
    skipped = int((~has_denom).sum())

    contrib = np.where(has_denom, np.log(np.where(has_denom, denom, 1.0)) - np.log(numer), 0.0)
    loss = float(contrib.sum() / n)
    if not np.isfinite(loss):
        raise TrainingDivergence("diversity loss diverged despite exponent clamping")

    live = has_denom.astype(np.float64)
    coef_pos = -(exp_pos / numer) * act_pos * live / n
    coef_neg = (exp_neg / np.where(has_denom, denom, 1.0)) * act_neg * live / n
    coef_own = -(exp_own / numer) * live / n
    w_other = exp_other / np.where(has_denom, denom, 1.0)[:, None, None] * live[:, None, None] / n

    dz = np.zeros_like(z)
    dz += coef_pos[:, None] * np.where(has_pos[:, None], z[pos], 0.0)
    dz += coef_neg[:, None] * np.where(has_neg[:, None], z[neg], 0.0)
    np.add.at(dz, pos[has_pos], coef_pos[has_pos, None] * z[has_pos])
    np.add.at(dz, neg[has_neg], coef_neg[has_neg, None] * z[has_neg])

    weights = w_other.copy()
    weights[rows, groups, labels] += coef_own
    dz_cos, dv = sys.grads(weights)
    dz += dz_cos
    return loss, dz, dv, skipped


def log_softmax_oracle(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_cross_entropy_oracle(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch-averaged cross-entropy of integer ``labels`` under softmax.

    Returns (loss, gradient w.r.t. logits). The gradient carries the
    1/batch factor, matching this package's averaging convention.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per logits row")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label index out of range")
    ls = log_softmax_oracle(logits)
    rows = np.arange(n)
    loss = -ls[rows, labels].mean()
    dlogits = np.exp(ls)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


# bytes that are never UTF-8 where they land: a Latin-1 letter, an
# unused byte, a truncated sequence, an encoded surrogate
NOT_UTF8 = (b"\xe9", b"\xff", b"\xc3", b"\xed\xa0\x80")


@st.composite
def mutated_bytes(draw, valid: bytes, syntax: bytes) -> bytes:
    """``valid`` after 1 to 3 edits: a byte flipped (often to one of
    ``syntax``), bytes inserted, the tail cut, or non-UTF-8 bytes inserted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "insert", "truncate", "not_utf8")))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] = draw(st.one_of(st.sampled_from(syntax), st.integers(0, 255)))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "truncate":
            del data[at:]
        elif kind == "not_utf8":
            data[at:at] = draw(st.sampled_from(NOT_UTF8))
    return bytes(data)
