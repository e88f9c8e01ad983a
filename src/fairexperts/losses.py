"""Representation-shaping losses for demographic experts.

Three losses act on a batch of representations Z (one row per sample):

* discriminator linkage: negative log-likelihood of each sample's true
  group under a softmax group discriminator. Minimizing it pulls group
  identity into the representation (deliberately non-adversarial).
* center alignment: learnable per-(group, class) center vectors are tied
  to samples through a softmax over cosine similarities, taken against
  every group's center row for each sample; cross-entropy of the true
  class aligns centers and samples in both directions.
* diversity: a contrastive log-ratio that pulls a sample toward a
  same-(group, class) partner and its own cell center, and pushes it
  from a partner differing in both coordinates and from the centers of
  all cells differing in both coordinates.

Losses are averaged over the batch and return analytic gradients with
respect to the representations and to the centers or discriminator
parameters involved. The two center losses read the batch's cosines
from one ``CenterCosines``, which training builds once per batch.
Every loss reads a batch's labels, groups and partners from one
``Batch``, a slice of a ``BatchPlan``: the plan checks an epoch's index
arrays and derives their per-row facts once, where it is built, so no
loss checks them again.
Partner dot products are taken on unnormalized representations; every
exponent is clamped to [-EXP_CLAMP, EXP_CLAMP] before exponentiation (a
no-op for cosines, which live in [-1, 1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import (
    Mlp,
    TrainingDivergence,
    check_index,
    kaiming_uniform,
    log_softmax,
    softmax_cross_entropy,
)

EXP_CLAMP = 30.0
CENTER_NORM_FLOOR = 1e-8


@dataclass
class VirtualCenters:
    """Learnable center vectors, one per (group, class) cell."""

    vectors: np.ndarray  # (G, C, m)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 3:
            raise ValueError("centers must have shape (groups, classes, dim)")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("center entries must be finite")
        if np.any(np.linalg.norm(self.vectors, axis=-1) == 0.0):
            raise ValueError("center vectors must be nonzero")

    @classmethod
    def init(cls, groups: int, classes: int, dim: int, rng: np.random.Generator) -> "VirtualCenters":
        return cls(kaiming_uniform((groups, classes, dim), dim, rng))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.vectors.shape

    def params(self) -> list[np.ndarray]:
        return [self.vectors]

    def reinit_degenerate(self, rng: np.random.Generator) -> int:
        """Redraw any center whose norm fell below ``CENTER_NORM_FLOOR``.

        Keeps cosine similarity defined under aggressive updates. Returns
        the number of redrawn centers so callers can log the anomaly.
        """
        norms = np.sqrt(np.add.reduce(self.vectors * self.vectors, axis=-1))
        bad = norms < CENTER_NORM_FLOOR
        count = np.count_nonzero(bad)
        if count:
            dim = self.vectors.shape[-1]
            self.vectors[bad] = kaiming_uniform((count, dim), dim, rng)
        return count


@dataclass(frozen=True)
class PairAssignment:
    """Partner indices per batch position; -1 marks no eligible partner.

    A positive partner shares both class and group; a negative partner
    differs in both class and group.
    """

    positive: np.ndarray  # (n,) int64
    negative: np.ndarray  # (n,) int64


def sample_pairs(
    labels: np.ndarray,
    groups: np.ndarray,
    gen: np.random.Generator,
    batch_size: int,
) -> PairAssignment:
    """Draw positive/negative partners uniformly among eligible indices.

    The positive shares the sample's class and group; the negative differs
    in both class and group. Entries with no eligible partner get -1.

    The rows are consecutive batches of ``batch_size`` (the last may be
    shorter), partners come only from the sample's own batch, and each
    index is a position within that batch. The result equals one call
    per batch on the same ``gen``, in batch order; this is how training
    draws an epoch's partners at once. A ``batch_size`` of at least the
    row count makes the rows one batch.

    Draw order: for each sample in batch order, its positive, then its
    negative, skipping partners with no candidate; the k-th draw picks the
    k-th candidate in batch order. All draws come from one
    ``gen.integers(0, bounds)`` call, which yields the same values and
    leaves ``gen`` in the same state as one scalar call per draw.
    Memory is O(n * cells) for n samples over the (batch, group, class)
    cells present; nothing is n by n, and the group and class ids may
    be any nonnegative integers.
    """
    n = np.size(labels)
    labels = check_index("labels", labels, n)
    groups = check_index("groups", groups, n)
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    positive = np.full(n, -1, dtype=np.int64)
    negative = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return PairAssignment(positive, negative)
    size = min(batch_size, n)
    batch = np.arange(n) // size
    # cells are runs of equal (batch, group, class) in this stable order,
    # so each cell lists its members in batch order
    order = np.lexsort((labels, groups, batch))
    sorted_batch, sorted_groups, sorted_labels = batch[order], groups[order], labels[order]
    new_cell = np.empty(n, dtype=bool)
    new_cell[0] = True
    new_cell[1:] = (
        (sorted_batch[1:] != sorted_batch[:-1])
        | (sorted_groups[1:] != sorted_groups[:-1])
        | (sorted_labels[1:] != sorted_labels[:-1])
    )
    starts = np.flatnonzero(new_cell)
    sizes = np.diff(starts, append=n)
    sorted_cell = np.cumsum(new_cell) - 1
    cell = np.empty(n, dtype=np.int64)
    cell[order] = sorted_cell
    # each sample's rank within its cell
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - starts[sorted_cell]
    # each cell's negatives, listed in batch order, among its own batch's
    # rows: a (cells, size) block; slots past n pad a short last batch
    rows = np.arange(n + -n % size).reshape(-1, size)[sorted_batch[starts]]
    real = rows < n
    rows[~real] = 0
    neg_cell, neg_index = np.nonzero(
        real
        & (groups[rows] != sorted_groups[starts, None])
        & (labels[rows] != sorted_labels[starts, None])
    )
    neg_sizes = np.bincount(neg_cell, minlength=len(starts))
    neg_starts = np.cumsum(neg_sizes) - neg_sizes

    bounds = np.empty(2 * n, dtype=np.int64)  # positive0, negative0, positive1, ...
    bounds[0::2] = sizes[cell] - 1
    bounds[1::2] = neg_sizes[cell]
    live = bounds > 0
    draws = np.zeros(2 * n, dtype=np.int64)
    if live.any():
        draws[live] = gen.integers(0, bounds[live])
    k_pos, k_neg = draws[0::2], draws[1::2]
    has_pos, has_neg = live[0::2], live[1::2]

    # the k-th positive candidate skips the sample itself; a row's place
    # in its batch is its index modulo size
    positive[has_pos] = order[(starts[cell] + k_pos + (k_pos >= rank))[has_pos]] % size
    negative[has_neg] = neg_index[(neg_starts[cell] + k_neg)[has_neg]]
    return PairAssignment(positive, negative)


class BatchPlan:
    """One epoch's checked labels, groups and partners, cut into batches.

    The rows are consecutive batches of ``batch_size`` (the last may be
    shorter), as ``sample_pairs`` draws them, and ``cells`` is (groups,
    classes). Building the plan runs every input check of the losses
    once: labels below ``classes`` and groups below the group count
    (``check_index``), and each partner array of integers, one per row,
    each -1 or the position of another row of the same batch. It then
    derives each row's facts once: labels and groups as ``intp``, its
    position in its batch, whether it has each partner and a diversity
    denominator, and each batch's rows in group order from one stable
    sort. It holds 1-D arrays of one entry per row, plus the group ids.

    ``plan[rows]``, for ``rows`` the slice of one of its batches, is that
    batch's ``Batch``: contiguous slices of these arrays.
    """

    def __init__(
        self,
        labels: np.ndarray,
        groups: np.ndarray,
        cells: tuple[int, int],
        batch_size: int,
        pairs: PairAssignment,
    ):
        num_groups, classes = cells
        n = np.size(labels)
        labels = check_index("labels", labels, n, classes).astype(np.intp)
        groups = check_index("groups", groups, n, num_groups).astype(np.intp)
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        size = max(min(batch_size, n), 1)  # no rows make one empty batch
        index = np.arange(n)
        position = index % size
        batch_rows = np.minimum(n - (index - position), size)
        partners = []
        for name, partner in (("positive", pairs.positive), ("negative", pairs.negative)):
            partner = np.asarray(partner)
            if partner.shape != (n,):
                raise ValueError(f"{name} partner array must have one entry per sample")
            if partner.dtype.kind not in "iu":
                raise ValueError(f"{name} partner array must hold integers, got dtype {partner.dtype}")
            bad = (partner >= batch_rows) | (partner < -1) | (partner == position)
            if bad.any():
                raise ValueError(f"{name} partner index invalid at positions {np.flatnonzero(bad)}")
            partners.append(partner.astype(np.intp))
        self.cells = (num_groups, classes)
        self.labels, self.groups, self.position = labels, groups, position
        self.positive, self.negative = partners
        self.has_pos = self.positive >= 0
        self.has_neg = self.negative >= 0
        # once the cells are in range, every sample has a cell differing in
        # both coordinates exactly when there are two groups and two classes
        self.has_denom = self.has_neg | (num_groups > 1 and classes > 1)
        # each batch's rows by group, in batch order within a group
        order = np.argsort(index // size * num_groups + groups, kind="stable")
        self.group_rows = position[order]
        self.group_labels = labels[order]
        self.sorted_groups = groups[order]
        self.group_ids = np.arange(num_groups + 1)

    def __getitem__(self, rows: slice) -> "Batch":
        return Batch(self, rows)


class Batch:
    """One batch of a ``BatchPlan``: its rows' checked facts.

    Each per-row array of the plan (``labels``, ``groups``, ``position``,
    ``positive``, ``negative``, ``has_pos``, ``has_neg``, ``has_denom``,
    ``group_rows``, ``group_labels``) sliced to the batch's
    rows, so ``position`` is ``arange`` of the row count and partners are
    positions in the batch. Group g's rows are
    ``group_rows[bounds[g]:bounds[g + 1]]``, in batch order, with labels
    ``group_labels`` over the same range.
    """

    def __init__(self, plan: BatchPlan, rows: slice):
        self.cells = plan.cells
        self.labels, self.groups = plan.labels[rows], plan.groups[rows]
        self.position = plan.position[rows]
        self.positive, self.negative = plan.positive[rows], plan.negative[rows]
        self.has_pos, self.has_neg = plan.has_pos[rows], plan.has_neg[rows]
        self.has_denom = plan.has_denom[rows]
        self.group_rows, self.group_labels = plan.group_rows[rows], plan.group_labels[rows]
        # where each group's run starts in the batch's group order
        self.bounds = plan.sorted_groups[rows].searchsorted(plan.group_ids).tolist()

    def __len__(self) -> int:
        return self.labels.shape[0]

    def check(self, rows: int, cells: tuple[int, int]) -> None:
        """Raise ``ValueError`` unless the batch has ``rows`` rows over ``cells``."""
        if self.labels.shape[0] != rows or self.cells != cells:
            raise ValueError(
                f"batch of {self.labels.shape[0]} rows over (groups, classes) {self.cells} "
                f"does not match {rows} representations over {cells}"
            )


def discriminator_loss(
    reps: np.ndarray, batch: Batch, disc: Mlp
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Group NLL under the discriminator, batch-averaged.

    The targets are ``batch.groups``. Returns (loss, gradient w.r.t.
    representations, gradients w.r.t. discriminator parameters in
    ``params()`` order).
    """
    # one output per group; the class count plays no part
    batch.check(reps.shape[0], (disc.out_dim, batch.cells[1]))
    logits, cache = disc.forward(reps)
    loss, dlogits = softmax_cross_entropy(logits, batch.groups)
    dparams, dreps = disc.backward(cache, dlogits)
    return loss, dreps, dparams


class CenterCosines:
    """Cosines between a batch's representations and every center.

    ``cos[i, g, c]`` is the cosine of sample i's representation and
    center (g, c); ``grads`` maps a loss's dL/dcos weights to its
    gradients w.r.t. the representations and the centers. Training
    builds one per batch and hands it to both center losses.

    A zero-norm representation or center leaves the cosines undefined.
    Building still succeeds, so a batch built after the cosines reports
    its index errors first; reading ``cos`` or calling ``grads`` then
    raises ``ValueError``.
    """

    def __init__(self, reps: np.ndarray, centers: VirtualCenters):
        self.z = reps
        self.v = centers.vectors
        # np.linalg.norm's arithmetic, without its Python dispatch
        self.z_norm = np.sqrt(np.add.reduce(self.z * self.z, axis=1))  # (n,)
        self.v_norm = np.sqrt(np.add.reduce(self.v * self.v, axis=2))  # (G, C)
        self.cells = self.v.shape[:2]  # (groups, classes) of the centers
        self.undefined = None
        if not self.z_norm.all():
            self.undefined = "cosine similarity undefined for zero-norm representation"
        elif not self.v_norm.all():
            self.undefined = "cosine similarity undefined for zero-norm center"
        else:
            self.z_hat = self.z / self.z_norm[:, None]
            self.v_hat = self.v / self.v_norm[:, :, None]
            self._cos = np.einsum("nm,gcm->ngc", self.z_hat, self.v_hat)

    @property
    def cos(self) -> np.ndarray:
        """(n, G, C) cosines; raises ``ValueError`` if undefined."""
        if self.undefined:
            raise ValueError(self.undefined)
        return self._cos

    def grads(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map dL/dcos weights (n, G, C) to (dL/dZ, dL/dV)."""
        wc = weights * self.cos  # raises if the cosines are undefined
        dz = np.einsum("ngc,gcm->nm", weights, self.v_hat)
        dz -= np.add.reduce(wc, axis=(1, 2))[:, None] * self.z_hat
        dz /= self.z_norm[:, None]
        dv = np.einsum("ngc,nm->gcm", weights, self.z_hat)
        dv -= np.add.reduce(wc, axis=0)[:, :, None] * self.v_hat
        dv /= self.v_norm[:, :, None]
        return dz, dv


def center_alignment_loss(
    cosines: CenterCosines, batch: Batch
) -> tuple[float, np.ndarray, np.ndarray]:
    """Bidirectional sample/center alignment, batch-averaged.

    For each sample and every group's center row, the cross-entropy of
    the true class under a softmax over cosine similarities to that row's
    per-class centers, summed over the rows. Returns (loss, dZ, dV).
    """
    n = cosines.z.shape[0]
    batch.check(n, cosines.cells)  # the loss covers every group's row
    labels, rows = batch.labels, batch.position
    logp = log_softmax(cosines.cos)  # softmax over classes, per (sample, group)
    # weights[i, g, c] = d loss / d cos[i, g, c]
    weights = np.exp(logp)
    weights[rows, :, labels] -= 1.0
    per_group_ce = -logp[rows, :, labels]  # (n, G)
    loss = float(np.add.reduce(per_group_ce, axis=None) / n)
    weights /= n
    dz, dv = cosines.grads(weights)
    return loss, dz, dv


def diversity_loss(
    cosines: CenterCosines, batch: Batch
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Contrastive pull/push over partners and centers, batch-averaged.

    Per sample: -log of (exp(z.z_pos) + exp(cos to own cell center)) over
    (exp(z.z_neg) + sum of exp(cos) to centers differing in both group
    and class). A missing partner drops its exponential; a sample whose
    denominator would be empty is skipped. Returns
    (loss, dZ, dV, skipped_count). The value may be negative.
    """
    z = cosines.z
    n = z.shape[0]
    g_total, c_total = cosines.cells
    batch.check(n, cosines.cells)
    labels, groups, rows = batch.labels, batch.groups, batch.position
    cos = cosines.cos  # raises here if a representation or center has zero norm

    pos, neg = batch.positive, batch.negative
    has_pos, has_neg = batch.has_pos, batch.has_neg
    z_pos = z[pos]
    z_neg = z[neg]

    dot_pos = np.where(has_pos, np.einsum("nm,nm->n", z, z_pos), 0.0)
    dot_neg = np.where(has_neg, np.einsum("nm,nm->n", z, z_neg), 0.0)
    if not (np.isfinite(dot_pos).all() and np.isfinite(dot_neg).all()):
        raise TrainingDivergence("non-finite representation dot products")

    def clamped_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x is finite here, so the min/max pair clamps exactly as np.clip does
        active = np.abs(x) < EXP_CLAMP
        return np.exp(np.minimum(np.maximum(x, -EXP_CLAMP), EXP_CLAMP)), active

    exp_pos, act_pos = clamped_exp(dot_pos)
    exp_neg, act_neg = clamped_exp(dot_neg)
    exp_pos = exp_pos * has_pos
    exp_neg = exp_neg * has_neg

    exp_own = np.exp(cos[rows, groups, labels])
    other = (np.arange(g_total)[:, None] != groups[:, None, None]) & (
        np.arange(c_total)[None, :] != labels[:, None, None]
    )  # (n, G, C)
    exp_other = np.exp(cos) * other

    numer = exp_pos + exp_own  # own-center term keeps this nonempty
    has_denom = batch.has_denom
    denom = exp_neg + np.add.reduce(exp_other, axis=(1, 2))
    skipped = n - np.count_nonzero(has_denom)
    safe_denom = np.where(has_denom, denom, 1.0)

    contrib = np.where(has_denom, np.log(safe_denom) - np.log(numer), 0.0)
    loss = float(np.add.reduce(contrib) / n)
    if not math.isfinite(loss):
        raise TrainingDivergence("diversity loss diverged despite exponent clamping")

    coef_pos = -(exp_pos / numer) * act_pos * has_denom / n
    coef_neg = (exp_neg / safe_denom) * act_neg * has_denom / n
    coef_own = -(exp_own / numer) * has_denom / n
    weights = exp_other / safe_denom[:, None, None] * has_denom[:, None, None] / n

    dz = np.zeros(z.shape)
    dz += coef_pos[:, None] * np.where(has_pos[:, None], z_pos, 0.0)
    dz += coef_neg[:, None] * np.where(has_neg[:, None], z_neg, 0.0)
    # partner scatters as 1-D index and value arrays on the flat buffer,
    # entry (p, j) at p * m + j: the same additions in the same order as a
    # scatter of rows, on numpy's fast 1-D ``add.at`` path
    m = z.shape[1]
    flat, columns = dz.reshape(-1), np.arange(m)
    for partner, has, coef in ((pos, has_pos, coef_pos), (neg, has_neg, coef_neg)):
        cells = (partner[has, None] * m + columns).reshape(-1)
        np.add.at(flat, cells, (coef[has, None] * z[has]).reshape(-1))

    weights[rows, groups, labels] += coef_own
    dz_cos, dv = cosines.grads(weights)
    dz += dz_cos
    return loss, dz, dv, skipped
