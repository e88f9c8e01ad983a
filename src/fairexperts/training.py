"""Training pipelines.

Every trained predictor is one ``Model``: a backbone plus linear heads.
``kind`` says how the heads are routed: ``erm`` has one pooled head and
ignores groups; ``decoupled`` and ``experts`` send each sample to its
group's head. Only experts carry a discriminator and virtual centers.
Inference over a split (``Model.predict_proba``, the group probe's val
scores, ``representation_blocks``) runs ``net.row_blocks`` of at most
``APPLY_BLOCK`` rows and holds its output plus one block, with the bits
of one pass over the whole split. ``predict_proba`` runs one
network, the backbone plus every head stacked as one layer, and keeps
each row's own group's logits.

* ``train_erm``: backbone and pooled head, plain cross-entropy.
* ``train_decoupled``: per-group heads over the frozen ERM backbone.
* ``train_group_probe``: a linear group classifier on fixed
  representations.
* ``train_experts``: the full procedure. Each batch computes the routed
  per-group cross-entropy, the discriminator linkage loss, the center
  alignment loss, and the diversity loss (the last two share one
  sample/center cosine system, built once per batch), then takes one
  simultaneous momentum step: the discriminator moves along its own
  loss scaled by lambda_disc, the centers along the alignment and
  diversity terms, the backbone along the weighted sum of all four, and
  each head along the classification loss restricted to its group.

All four run through ``_fit``, the one training loop: seeded mini-batch
momentum SGD over one flat parameter buffer and one flat velocity buffer
per trained model, with the rate lr0 * lr_decay**epoch. The model's
arrays become views of that buffer, so one element-wise step per batch
moves them all. Each epoch gathers the features in shuffled order once
and builds one checked plan of the epoch's per-row facts, and each batch
gets contiguous slices of both. For the cross-entropy fits the plan is
the targets, checked once per fit and gathered as ``intp``; the expert
trainer draws the whole epoch's partners in one ``sample_pairs`` call
and builds a ``losses.BatchPlan``, which checks labels, groups and
partners once and derives what every batch's losses read (partner
masks, each group's rows), so no loss checks or derives them per
batch. Each trainer hands ``_fit`` a batch function that returns the
batch losses and every gradient at the pre-step parameters:
``_fit_cross_entropy`` for the first three, the expert step for the
last. Determinism: given the same dataset and hyperparameters, training
is bit-identical. Named random streams (init, shuffle, pairs) derive
from the seed, so the ERM and expert runs of one seed start from the
same backbone draw.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .data import Dataset
from .losses import (
    Batch,
    BatchPlan,
    CenterCosines,
    VirtualCenters,
    center_alignment_loss,
    discriminator_loss,
    diversity_loss,
    sample_pairs,
)
from .net import (
    APPLY_BLOCK,
    Layer,
    Mlp,
    TrainingDivergence,
    check_index,
    init_mlp,
    row_blocks,
    sgd_step,
    softmax,
    softmax_cross_entropy,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HyperParams:
    """Loss coefficients, optimizer schedule, and architecture sizes.

    The expert objective itself has one form (see ``losses``); only the
    weights of its terms are settable.
    """

    lambda_disc: float = 0.05
    lambda_virt: float = 0.05
    lambda_div: float = 0.05
    lr0: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.9
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0
    hidden_dim: int = 32
    repr_dim: int = 8

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison and is rejected too
        if not all(0 <= v < math.inf for v in (self.lambda_disc, self.lambda_virt, self.lambda_div)):
            raise ValueError("loss coefficients must be finite and nonnegative")
        if not 0 <= self.lr0 < math.inf:
            raise ValueError("learning rate must be finite and nonnegative")
        if not (0 <= self.momentum < math.inf and 0 <= self.lr_decay < math.inf):
            raise ValueError("momentum and lr_decay must be finite and nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.hidden_dim < 1 or self.repr_dim < 1:
            raise ValueError("hidden_dim and repr_dim must be at least 1")

    def lr(self, epoch: int) -> float:
        """Learning rate of epoch ``epoch`` (0-based): lr0 * lr_decay**epoch."""
        return self.lr0 * self.lr_decay**epoch


@dataclass(frozen=True)
class ExpertsEpoch:
    epoch: int
    loss_cls: float
    loss_disc: float
    loss_virt: float
    loss_div: float
    lr: float


MODEL_KINDS = ("erm", "decoupled", "experts")


@dataclass
class Model:
    """Backbone plus linear heads, routed as ``kind`` says.

    ``erm`` uses ``heads[0]`` for every sample and ignores groups; the
    other kinds send each sample to its group's head. Experts also carry
    the discriminator and the virtual centers they were trained with, and
    ``log``, one ``ExpertsEpoch`` per epoch; the other kinds keep no log.
    """

    kind: str
    backbone: Mlp
    heads: list[Mlp]
    discriminator: Mlp | None = None
    centers: VirtualCenters | None = None
    log: list = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.heads or (self.kind == "erm" and len(self.heads) != 1):
            raise ValueError(f"wrong head count {len(self.heads)} for a {self.kind} model")
        if (self.kind == "experts") != (self.discriminator is not None and self.centers is not None):
            raise ValueError("exactly the experts model has a discriminator and centers")
        width, classes, count = self.backbone.out_dim, self.heads[0].out_dim, len(self.heads)
        # a head is one linear layer, so predict_proba can stack them all
        fits = [
            fit
            for g, h in enumerate(self.heads)
            for fit in (
                (f"head {g} has layer activations", tuple(l.activation for l in h.layers),
                 ("identity",)),
                (f"head {g} has (inputs, outputs)", (h.in_dim, h.out_dim), (width, classes)),
            )
        ]
        if self.kind == "experts":
            disc = self.discriminator
            fits += [
                ("discriminator has (inputs, outputs)", (disc.in_dim, disc.out_dim), (width, count)),
                ("centers have shape", self.centers.shape, (count, classes, width)),
            ]
        for name, got, want in fits:
            if got != want:
                raise ValueError(f"{name} {got}, expected {want}")

    def representations(self, features: np.ndarray) -> np.ndarray:
        return self.backbone.forward(features, cache=False)[0]

    def predict_proba(self, features: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities per row, in blocks of at most ``APPLY_BLOCK`` rows.

        One network runs the backbone and then every group's head as one
        layer (their weights stacked), so each block gives every head's
        logits in one cache-free pass; a routed kind keeps each row's own
        group's logits, and one softmax follows. Memory holds the output
        plus one block; a block of logits is G times the size of its
        probabilities. A row's bits equal one pass over the whole input,
        whatever the other rows, but for the short inputs of a wide
        representation that ``net.APPLY_BLOCK`` names.
        """
        n, classes = features.shape[0], self.heads[0].out_dim
        if self.kind != "erm":
            groups = check_index("groups", groups, n, len(self.heads))
        heads = [head.layers[0] for head in self.heads]
        weights = np.concatenate([h.weight for h in heads])
        net = Mlp(self.backbone.layers + [Layer(weights, np.concatenate([h.bias for h in heads]))])
        probs = np.empty((n, classes))
        for rows in row_blocks(n, APPLY_BLOCK):
            logits = net.forward(features[rows], cache=False)[0]
            if self.kind != "erm":
                # row r's group g holds flat row r * G + g of (m * G, classes)
                m = logits.shape[0]
                own = np.arange(m) * len(heads) + groups[rows]
                logits = np.take(logits.reshape(-1, classes), own, axis=0)
            probs[rows] = softmax(logits)
        return probs


def _batches(n: int, batch_size: int):
    """Slices of ``n`` rows into consecutive batches; the last may be short."""
    for start in range(0, n, batch_size):
        yield slice(start, start + batch_size)


def _flatten(parts: list[Mlp | VirtualCenters]) -> np.ndarray:
    """Move the parameter arrays of ``parts`` into one float64 buffer.

    Each ``Layer.weight``, ``Layer.bias`` and ``VirtualCenters.vectors``
    is rebound to its view of the buffer, laid out in ``params()`` order,
    so updating the buffer in place moves the parts.
    """
    slots = []
    for part in parts:
        if isinstance(part, VirtualCenters):
            slots.append((part, "vectors"))
        else:
            slots += [(layer, attr) for layer in part.layers for attr in ("weight", "bias")]
    flat = np.concatenate([getattr(owner, attr).ravel() for owner, attr in slots])
    start = 0
    for owner, attr in slots:
        shape = getattr(owner, attr).shape
        stop = start + math.prod(shape)
        setattr(owner, attr, flat[start:stop].reshape(shape))
        start = stop
    return flat


# a diverging step overflows before its loss is checked; the check, not a
# numpy warning, reports it
@np.errstate(over="ignore", invalid="ignore")
def _fit(
    parts: list[Mlp | VirtualCenters],
    features: np.ndarray,
    shuffle_rng,
    hp: HyperParams,
    name: str,
    batch_grads,
    epoch_plan,
):
    """The one training loop: seeded mini-batch momentum SGD, in place.

    The arrays of ``parts`` become views of one flat parameter buffer,
    with one flat velocity buffer beside it. Each epoch draws one
    permutation of the training rows, gathers ``features`` in that
    order once, and ``epoch_plan(perm)`` returns the epoch's checked
    per-row facts in that order: the targets of a cross-entropy fit, or
    the experts' ``BatchPlan``. Each batch gets a contiguous slice of
    both: ``batch_grads(features, facts, epoch)`` returns its losses and
    the gradients of the parts' ``params()`` at the pre-step values, in
    order, and one momentum step moves the whole buffer. Returns each
    epoch's mean losses. Overflow and invalid values raise no numpy
    warning here: a non-finite loss or gradient raises
    ``TrainingDivergence``.
    """
    flat = _flatten(parts)
    velocity = np.zeros_like(flat)
    flat_grad = np.empty_like(flat)
    n = features.shape[0]
    means = []
    for epoch in range(hp.epochs):
        perm = shuffle_rng.permutation(n)
        gathered = features[perm]
        plan = epoch_plan(perm)
        lr = hp.lr(epoch)
        sums = 0.0
        for rows in _batches(n, hp.batch_size):
            xb = gathered[rows]
            losses, grads = batch_grads(xb, plan[rows], epoch)
            if not all(map(math.isfinite, losses)):
                raise TrainingDivergence(f"{name} diverged at epoch {epoch}")
            np.concatenate(grads, axis=None, out=flat_grad)
            sgd_step(flat, velocity, flat_grad, lr, hp.momentum)
            sums = sums + np.asarray(losses) * xb.shape[0]
        means.append(sums / n)
    return means


def _fit_cross_entropy(
    net: Mlp, x: np.ndarray, y: np.ndarray, shuffle_rng, hp: HyperParams, name: str
) -> list[np.ndarray]:
    """Minimize cross-entropy of ``net`` on (x, y) through ``_fit``.

    The targets are checked once, as ``intp``; each epoch's plan is
    their gather in the epoch's order.
    """
    targets = check_index("labels", y, x.shape[0], net.out_dim).astype(np.intp)

    def batch_grads(xb, yb, epoch):
        logits, cache = net.forward(xb)
        loss, dlogits = softmax_cross_entropy(logits, yb)
        return (loss,), net.backward(cache, dlogits, input_grad=False)[0]

    return _fit([net], x, shuffle_rng, hp, name, batch_grads, lambda perm: targets[perm])


def _init_backbone(d: int, hp: HyperParams, init_rng: np.random.Generator) -> Mlp:
    """The d -> hidden_dim -> repr_dim backbone; a width that numpy or the
    host cannot allocate raises ``ValueError`` naming both widths."""
    try:
        return init_mlp([d, hp.hidden_dim, hp.repr_dim], ["relu", "identity"], init_rng)
    except (ValueError, MemoryError) as exc:
        raise ValueError(
            f"hyper.hidden_dim = {hp.hidden_dim}, hyper.repr_dim = {hp.repr_dim}: "
            f"cannot allocate the backbone: {exc}"
        ) from None


def train_erm(dataset: Dataset, hp: HyperParams) -> Model:
    """Minimize pooled cross-entropy with seeded mini-batch SGD."""
    features, labels, _ = dataset.split_arrays("train")
    if features.shape[0] == 0:
        raise ValueError("train split is empty")
    init_rng = rngmod.stream(hp.seed, rngmod.INIT)
    backbone = _init_backbone(dataset.d, hp, init_rng)
    head = init_mlp([hp.repr_dim, dataset.classes], ["identity"], init_rng)
    # one network over the same Layer objects, so training moves their arrays
    shuffle_rng = rngmod.stream(hp.seed, rngmod.SHUFFLE)
    _fit_cross_entropy(
        Mlp(backbone.layers + head.layers), features, labels, shuffle_rng, hp, "pooled loss"
    )
    return Model("erm", backbone, [head], seed=hp.seed)


def _routed_cross_entropy(
    heads: list[Mlp], z: np.ndarray, batch: Batch
) -> tuple[float, np.ndarray, list[list[np.ndarray]]]:
    """Cross-entropy with each sample routed to its group's head.

    Averaged over the whole batch, so a head's gradient is the batch
    gradient restricted to its group's rows (the batch's group row
    lists); heads of absent groups get exact zeros. Returns (loss, dZ,
    per-head parameter gradients).
    """
    n = z.shape[0]
    batch.check(n, (len(heads), heads[0].out_dim))
    dz = np.zeros(z.shape)
    total = 0.0
    head_grads: list[list[np.ndarray]] = []
    bounds = batch.bounds
    for g, head in enumerate(heads):
        lo, hi = bounds[g], bounds[g + 1]
        if lo == hi:
            head_grads.append([np.zeros_like(p) for p in head.params()])
            continue
        idx = batch.group_rows[lo:hi]
        logits, cache = head.forward(z[idx])
        # per-sample terms carry the global 1/n, not 1/len(idx)
        loss_mean, dlogits = softmax_cross_entropy(logits, batch.group_labels[lo:hi])
        total += loss_mean * (hi - lo)
        dlogits *= (hi - lo) / n
        grads, dz_rows = head.backward(cache, dlogits)
        head_grads.append(grads)
        dz[idx] = dz_rows
    return total / n, dz, head_grads


def train_experts(dataset: Dataset, hp: HyperParams) -> Model:
    """Run the full decoupled-representation training procedure."""
    missing = list(map(tuple, np.argwhere(dataset.cell_counts("train") == 0).tolist()))
    if missing:
        raise ValueError(f"(group, class) cells {missing} have no training samples")
    features, labels, groups = dataset.split_arrays("train")
    init_rng = rngmod.stream(hp.seed, rngmod.INIT)
    pairs_rng = rngmod.stream(hp.seed, rngmod.PAIRS)

    # draw order matters for reproducibility: backbone, discriminator,
    # centers, then heads by group
    backbone = _init_backbone(dataset.d, hp, init_rng)
    disc = init_mlp([hp.repr_dim, dataset.num_groups], ["identity"], init_rng)
    centers = VirtualCenters.init(dataset.num_groups, dataset.classes, hp.repr_dim, init_rng)
    heads = [
        init_mlp([hp.repr_dim, dataset.classes], ["identity"], init_rng)
        for _ in range(dataset.num_groups)
    ]

    def redraw_degenerate_centers(epoch: int) -> None:
        redrawn = centers.reinit_degenerate(init_rng)
        if redrawn:
            logger.warning("epoch %d: redrew %d degenerate centers", epoch, redrawn)

    cells = (dataset.num_groups, dataset.classes)

    def epoch_plan(perm):
        # every batch's partners in one draw, the same as one draw per batch
        yb, ab = labels[perm], groups[perm]
        pairs = sample_pairs(yb, ab, pairs_rng, hp.batch_size)
        return BatchPlan(yb, ab, cells, hp.batch_size, pairs)

    def batch_grads(xb, batch, epoch):
        # the previous step may have collapsed a center; redraw it before
        # any loss reads it
        redraw_degenerate_centers(epoch)
        z, cache_b = backbone.forward(xb)
        # one cosine system per batch, shared by both center losses; with
        # every center redrawn above the norm floor, only a zero
        # representation leaves it undefined
        cosines = CenterCosines(z, centers)
        if cosines.undefined:
            raise TrainingDivergence(
                f"epoch {epoch}: a sample's representation is exactly zero "
                "(all hidden units inactive); widen hidden_dim or rescale "
                "the features"
            )

        loss_cls, dz_cls, head_grads = _routed_cross_entropy(heads, z, batch)
        loss_disc, dz_disc, disc_grads = discriminator_loss(z, batch, disc)
        loss_virt, dz_virt, dv_virt = center_alignment_loss(cosines, batch)
        loss_div, dz_div, dv_div, skipped = diversity_loss(cosines, batch)
        if skipped:
            logger.debug("epoch %d: %d samples skipped in diversity loss", epoch, skipped)

        dz_total = (
            dz_cls + hp.lambda_disc * dz_disc + hp.lambda_virt * dz_virt + hp.lambda_div * dz_div
        )
        grads_b, _ = backbone.backward(cache_b, dz_total, input_grad=False)
        grads = [
            *grads_b,
            *[hp.lambda_disc * g for g in disc_grads],
            hp.lambda_virt * dv_virt + hp.lambda_div * dv_div,
        ]
        for g in head_grads:
            grads += g
        return (loss_cls, loss_disc, loss_virt, loss_div), grads

    parts = [backbone, disc, centers, *heads]
    shuffle_rng = rngmod.stream(hp.seed, rngmod.SHUFFLE)
    means = _fit(parts, features, shuffle_rng, hp, "expert loss", batch_grads, epoch_plan)
    redraw_degenerate_centers(hp.epochs - 1)
    log = [ExpertsEpoch(k, *map(float, mean), hp.lr(k)) for k, mean in enumerate(means)]
    return Model("experts", backbone, heads, disc, centers, log=log, seed=hp.seed)


def train_decoupled(erm: Model, dataset: Dataset, hp: HyperParams) -> Model:
    """Train per-group heads over the frozen ERM backbone, which the
    returned model holds itself: nothing trains it afterwards."""
    backbone = erm.backbone
    features, labels, groups = dataset.split_arrays("train")
    z_all = backbone.forward(features, cache=False)[0]
    heads: list[Mlp] = []
    init_rng = rngmod.stream(hp.seed, rngmod.INIT, 1)
    for g in range(dataset.num_groups):
        idx = np.flatnonzero(groups == g)
        if idx.size == 0:
            raise ValueError(f"group {g} has no training samples")
        head = init_mlp([backbone.out_dim, dataset.classes], ["identity"], init_rng)
        shuffle_rng = rngmod.stream(hp.seed, rngmod.SHUFFLE, 1, g)
        _fit_cross_entropy(head, z_all[idx], labels[idx], shuffle_rng, hp, f"decoupled head {g}")
        heads.append(head)
    return Model("decoupled", backbone, heads, seed=hp.seed)


def representation_blocks(model, dataset: Dataset, split: str):
    """Backbone outputs of one split, in blocks of at most ``APPLY_BLOCK`` rows.

    Returns an iterator of (representations, labels, groups) blocks in
    row order, with the same bits as one pass over the whole split; an
    empty split raises here, before any block is computed.
    """
    features, labels, groups = dataset.split_arrays(split)
    if features.shape[0] == 0:
        raise ValueError(f"split {split!r} is empty")
    return (
        (model.representations(features[rows]), labels[rows], groups[rows])
        for rows in row_blocks(features.shape[0], APPLY_BLOCK)
    )


# the probe's fixed optimizer schedule, independent of the models' one
_PROBE_HP = HyperParams(lr0=0.1, momentum=0.9, lr_decay=0.9, batch_size=64, epochs=25)


def train_group_probe(reps: np.ndarray, groups: np.ndarray, num_groups: int, seed: int) -> Mlp:
    """Fit a fresh linear group classifier on fixed representations."""
    probe = init_mlp([reps.shape[1], num_groups], ["identity"], rngmod.stream(seed, rngmod.PROBE))
    _fit_cross_entropy(probe, reps, groups, rngmod.stream(seed, rngmod.PROBE, 1), _PROBE_HP, "probe")
    return probe


def probe_group_accuracy(model, dataset: Dataset, seed: int) -> float:
    """Accuracy of a freshly trained group probe on a model's representations.

    The probe is fit on the train split's representations and scored on
    the val split, whose hits are counted block by block. Measures how
    separable the groups are in the learned space.
    """
    # an empty train split leaves val empty too (Dataset), so this check
    # also runs before the fit
    val_blocks = representation_blocks(model, dataset, "val")
    features, _, groups = dataset.split_arrays("train")
    probe = train_group_probe(model.representations(features), groups, dataset.num_groups, seed)
    hits = rows = 0
    for z, _, val_groups in val_blocks:
        hits += np.count_nonzero(probe.forward(z, cache=False)[0].argmax(axis=1) == val_groups)
        rows += val_groups.size
    return hits / rows
