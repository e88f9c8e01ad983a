"""Golden checkpoint bytes for each model kind.

The models are built from hand-written parameters that are exact binary
fractions, so neither the files nor the comparisons depend on BLAS. A
change that alters ``save_checkpoint`` output, or what ``load_checkpoint``
returns for a version-1 file, fails here.
"""

from pathlib import Path

import numpy as np
import pytest

from fairexperts.checkpoint import load_checkpoint, save_checkpoint
from fairexperts.losses import VirtualCenters
from fairexperts.net import Layer, Mlp
from fairexperts.training import Model

GOLDEN = Path(__file__).parent / "golden"
KINDS = ("erm", "decoupled", "experts")


def grid(shape, start):
    """Consecutive multiples of 1/8 from ``start / 8``, exact in float64."""
    return (np.arange(np.prod(shape), dtype=np.float64) + start).reshape(shape) / 8


def linear(out_dim, in_dim, start):
    return Mlp([Layer(grid((out_dim, in_dim), start), grid((out_dim,), -start), "identity")])


def golden_model(kind):
    # d = 2 features, 3 hidden units, 2-d representations, 2 classes, 2 groups
    backbone = Mlp(
        [
            Layer(grid((3, 2), -3), grid((3,), 1), "relu"),
            Layer(grid((2, 3), -2), grid((2,), -1), "identity"),
        ]
    )
    heads = [linear(2, 2, 5), linear(2, 2, -7)]
    if kind == "erm":
        return Model("erm", backbone, heads[:1], seed=7)
    if kind == "decoupled":
        return Model("decoupled", backbone, heads, seed=8)
    return Model(
        "experts", backbone, heads, linear(2, 2, 11), VirtualCenters(grid((2, 2, 2), 1)), seed=9
    )


def parameter_arrays(model):
    parts = [model.backbone, *model.heads]
    if model.discriminator is not None:
        parts.append(model.discriminator)
    arrays = [p for part in parts for p in part.params()]
    if model.centers is not None:
        arrays.append(model.centers.vectors)
    return arrays


@pytest.mark.parametrize("kind", KINDS)
def test_save_checkpoint_reproduces_golden_bytes(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    save_checkpoint(golden_model(kind), str(path))
    assert path.read_bytes() == (GOLDEN / f"checkpoint_{kind}.json").read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_load_checkpoint_returns_golden_parameters_exactly(kind):
    loaded = load_checkpoint(str(GOLDEN / f"checkpoint_{kind}.json"))
    want = golden_model(kind)
    assert loaded.kind == kind
    assert loaded.seed == want.seed
    got, expected = parameter_arrays(loaded), parameter_arrays(want)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == np.float64
        assert a.shape == b.shape
        assert np.array_equal(a, b)
