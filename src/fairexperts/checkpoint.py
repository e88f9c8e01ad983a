"""Versioned JSON checkpoints for trained models.

The container stores layer shapes, float64 parameters (shortest
round-trip decimal encoding, so save/load is bit-exact), the model kind,
and the seed the model was trained from. The kind fixes the other keys:
``head`` for erm; ``heads`` for decoupled and experts; ``discriminator``
and ``centers`` for experts only. Training logs are exported
separately as CSV and are not part of the checkpoint.
"""

from __future__ import annotations

from .data import DataError, read_json_object, write_json
from .losses import VirtualCenters
from .net import Layer, Mlp
from .training import MODEL_KINDS, Model

FORMAT_VERSION = 1


def mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "layers": [
            {
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in mlp.layers
        ]
    }


def mlp_from_dict(payload: dict) -> Mlp:
    return Mlp(
        [
            Layer(entry["weight"], entry["bias"], entry["activation"])
            for entry in payload["layers"]
        ]
    )


def save_checkpoint(model: Model, path: str) -> None:
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "seed_lineage": {"seed": model.seed, "generator": "PCG64"},
        "kind": model.kind,
        "backbone": mlp_to_dict(model.backbone),
    }
    heads = [mlp_to_dict(h) for h in model.heads]
    if model.kind == "erm":
        payload["head"] = heads[0]
    else:
        payload["heads"] = heads
    if model.kind == "experts":
        payload["discriminator"] = mlp_to_dict(model.discriminator)
        payload["centers"] = model.centers.vectors.tolist()
    write_json(payload, path)


def load_checkpoint(path: str) -> Model:
    payload = read_json_object(path, "checkpoint")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint {path!r} has unsupported format version {version!r}")
    kind = payload.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError(f"checkpoint {path!r} has unknown kind {kind!r}")
    experts = kind == "experts"
    try:
        heads = [payload["head"]] if kind == "erm" else payload["heads"]
        return Model(
            kind,
            mlp_from_dict(payload["backbone"]),
            [mlp_from_dict(h) for h in heads],
            mlp_from_dict(payload["discriminator"]) if experts else None,
            VirtualCenters(payload["centers"]) if experts else None,
            seed=payload.get("seed_lineage", {}).get("seed"),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path!r} is malformed: {exc}") from None
