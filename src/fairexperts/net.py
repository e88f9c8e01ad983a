"""Dense feedforward networks with explicit forward/backward passes.

All parameters are float64 numpy arrays. ``Mlp.forward`` accepts a batch
matrix, one row per sample; a single sample is a one-row matrix. One
in-place routine does its arithmetic. A cached pass runs all rows as one
block and keeps each layer's (input, output); inference calls pass
``cache=False``, which keeps no cache and runs the rows into one output
array in ``row_blocks`` of at most ``APPLY_BLOCK`` rows, at least half
of that unless a block is the whole input, so memory grows with the
output, not with rows times hidden width, and each product stays small
enough for OpenBLAS to run it on the calling thread.
``Mlp.backward`` consumes the gradient of a scalar loss with respect to
the output and returns per-layer parameter gradients plus the gradient
with respect to the input, which a caller that discards it can skip.
Gradients are summed over batch rows, so a loss gradient that already
carries a 1/batch factor yields batch-averaged parameter gradients; the
loss helpers in this package follow that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity")

# cache entry per layer: (layer input, layer output)
Cache = list[tuple[np.ndarray, np.ndarray]]

# Most rows per block of every streamed pass: a cache-free forward
# pass, and through it prediction, probe scoring and the exported
# representations, the report counts, ``Dataset``'s cell counts and each
# CSV block. ``row_blocks`` cuts a pass into ceil(rows / APPLY_BLOCK)
# near-equal blocks, so a block has at most APPLY_BLOCK rows and, unless
# it is the whole input, at least half of that.
#
# Bits: with numpy 2.4 and OpenBLAS 0.3.31, a product of the default
# backbone's second layer, (rows x 32) @ (32 x 8), rounds differently on
# 1-128 rows from the same rows inside a larger product (4 of 4 draws at
# each size), while 256-30,000 rows match it. A single row differs for
# every layer, because numpy sends it to gemv instead of gemm. So no
# block is shorter than 256 rows, unless the whole input is, and a pass
# in blocks gives the bits of one pass over the whole input.
#
# One exception: OpenBLAS 0.3.31 sends a product of 32 or more inputs
# whose rows times outputs is at most 1,200 to a small-matrix kernel,
# which rounds some rows by their position. At repr_dim >= 32 that takes
# a prediction head product of at most 1,200 / (G x classes) rows: an
# input that short is one product, equal to one pass but not to the same
# rows in another order, and an input of 1,025 to 1,200 rows through a
# head layer of two outputs (erm or one group, two classes) runs two
# such products, which differ from one pass. Past 2,048 rows every
# block has at least 683 rows.
#
# Threads: OpenBLAS runs a product this small on the calling thread, so
# its worker thread does no work and never spin-waits after a product
# while Python scores or formats the block. Measured with
# tools/blas_threads.py (2 vCPU, OpenBLAS 0.3.31, median of 3 runs): 2 M
# rows through (rows x 10) @ (10 x 32), then (rows x 32) @ (32 x 8), in
# blocks of
#
#   rows per block   worker-thread ticks (1/100 s)   wall
#   8,192             9                              0.094 s
#   2,048             9                              0.101 s
#   2,047            14                              0.152 s
#   1,800            14                              0.152 s
#   1,536             0                              0.135 s
#   1,024             0                              0.139 s
#     512             0                              0.143 s
#
# Back to back, the products alone finish sooner on two threads; in a
# pass the worker's spinning cost more than that. The first product goes
# to the worker from about 1,700 rows on, which no block reaches.
#
# On another BLAS build only the CPU saving may not hold: the memory
# bound holds on any build, and test_net's block tests check the bit rule
# on the build at hand.
APPLY_BLOCK = 1024


def row_blocks(rows: int, size: int):
    """Consecutive slices that cover ``rows`` rows in near-equal blocks.

    There are ``ceil(rows / size)`` blocks whose lengths differ by at
    most one, so none has more than ``size`` rows, and every block but a
    lone one has at least ``size / 2``. No rows give one empty block, so
    a pass over them still checks its input.
    """
    count = max(-(-rows // size), 1)
    for k in range(count):
        yield slice(rows * k // count, rows * (k + 1) // count)


class TrainingDivergence(RuntimeError):
    """A loss or gradient stopped being finite."""


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2:
            raise ValueError("layer weight must be a 2-d matrix")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError("bias length must match weight rows")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class Mlp:
    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order: W0, b0, W1, b1, ..."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def forward(self, x: np.ndarray, cache: bool = True) -> tuple[np.ndarray, Cache | None]:
        """Evaluate the network on the rows of matrix ``x``; returns (output,
        cache for backward). An input of any other ndim raises ``ValueError``.

        With ``cache=False`` the output is the same, bit for bit, and the
        cache is None; rows are evaluated in ``row_blocks`` of at most
        ``APPLY_BLOCK`` rows.
        """
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"input must be a 2-d matrix, got ndim {a.ndim}")
        if a.shape[1] != self.in_dim:
            raise ValueError(
                f"input has dimension {a.shape[1]}, network expects {self.in_dim}"
            )
        out = np.empty((a.shape[0], self.out_dim))
        saved: Cache | None = [] if cache else None
        for rows in [slice(None)] if cache else row_blocks(a.shape[0], APPLY_BLOCK):
            self._forward_block(a[rows], out[rows], saved)
        return out, saved

    def _forward_block(self, a: np.ndarray, out: np.ndarray, saved: Cache | None) -> None:
        """``forward``'s arithmetic on rows ``a``, in place, ending in ``out``."""
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            z = np.matmul(a, layer.weight.T, out=out if idx == last else None)
            z += layer.bias
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            if saved is not None:
                saved.append((a, z))
            a = z

    def backward(
        self, cache: Cache, dout: np.ndarray, input_grad: bool = True
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Backpropagate ``dout``, the float64 gradient w.r.t. the output,
        of the cached output's shape (else ``ValueError``).

        Returns (parameter gradients in ``params()`` order, gradient
        w.r.t. the network input). With ``input_grad=False`` the input
        gradient is not computed and is returned as None; the parameter
        gradients are the same. Pure function of its arguments.
        """
        if len(cache) != len(self.layers):
            raise ValueError("cache does not match network depth")
        shape = cache[-1][1].shape
        if dout.shape != shape:
            raise ValueError(f"output gradient has shape {dout.shape}, the output has {shape}")
        d = dout
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.layers))
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            # after ReLU, output > 0 exactly where the pre-activation was
            a_in, a_out = cache[idx]
            dz = d * (a_out > 0.0) if layer.activation == "relu" else d
            grads[2 * idx] = dz.T @ a_in
            grads[2 * idx + 1] = np.add.reduce(dz, axis=0)
            d = dz @ layer.weight if idx or input_grad else None
        return grads, d


def kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-style uniform init, U(-sqrt(6/fan_in), sqrt(6/fan_in))."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_mlp(dims: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    """Build an Mlp with Kaiming-uniform weights and zero biases.

    ``dims`` lists layer sizes input-first; ``activations`` has one tag
    per layer (``len(dims) - 1`` entries).
    """
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        weight = kaiming_uniform((fan_out, fan_in), fan_in, rng)
        layers.append(Layer(weight, np.zeros(fan_out), act))
    return Mlp(layers)


def check_index(name: str, values: np.ndarray, rows: int, bound: int | None = None) -> np.ndarray:
    """Validate one per-sample index array, such as labels or groups.

    It must be 1-D with ``rows`` entries of nonnegative integers, below
    ``bound`` if given; returns it as an array, or raises ``ValueError``
    (for ``name`` "labels", a value past the bound: "label index out of range").
    """
    values = np.asarray(values)
    if values.shape != (rows,):
        raise ValueError(
            f"{name} must be 1-D with one entry per row ({rows}), got shape {values.shape}"
        )
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    if rows and np.minimum.reduce(values) < 0:
        raise ValueError(f"{name} must be nonnegative")
    if rows and bound is not None and np.maximum.reduce(values) >= bound:
        raise ValueError(f"{name[:-1]} index out of range: must be below {bound}")
    return values


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction for stability.

    The row maximum folds the class columns one ``np.maximum`` at a
    time, much faster than a reduce over a short last axis. A maximum is
    exact, so the output has the reduce's bits; the two may pick
    different zeros of a +0/-0 tie, which moves no output bit, and only
    a NaN's sign may differ.
    """
    top = logits[..., 0].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c], out=top)
    z = logits - top[..., None]
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch-averaged cross-entropy of ``labels`` under softmax.

    ``labels`` holds one class index per row, already checked: by
    ``check_index`` against the class count, as training checks its
    targets once per fit, or by a ``losses.BatchPlan``.
    Returns (loss, gradient w.r.t. logits). The gradient carries the
    1/batch factor, matching this package's averaging convention.
    """
    n = logits.shape[0]
    if n == 0:
        raise ValueError("cross-entropy needs at least one row")
    ls = log_softmax(logits)
    rows = np.arange(n)
    # the arithmetic of ndarray.mean: one sum, then one true divide
    loss = -(np.add.reduce(ls[rows, labels]) / n)
    dlogits = np.exp(ls)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return float(loss), dlogits


def sgd_step(
    param: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float
) -> None:
    """Classical momentum update of one parameter array, in place.

    velocity <- momentum * velocity + grad; param <- param - lr * velocity.
    Training keeps every parameter in one flat buffer, so one call moves
    them all.
    """
    if param.shape != grad.shape:
        raise ValueError("gradient shape does not match parameter")
    if not np.isfinite(grad).all():
        raise TrainingDivergence("non-finite gradient entries")
    velocity *= momentum
    velocity += grad
    param -= lr * velocity
