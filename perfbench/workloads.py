"""Benchmark inputs, generated from the workload seed.

The program under test sees only the files written here: a config for
``fairexperts run`` (``reference``, ``heldout_heavy``) or a JSON list of
selection instances (``selection_sweep``). The same seed always writes
the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = ROOT / "configs" / "group_shift.cfg"

WORKLOADS = ("reference", "heldout_heavy", "selection_sweep")
# The reference config's own data seed: with it, ``reference`` runs the
# checked-in config byte for byte.
DEFAULT_SEED = 20240501

# Instances per group count G. G <= 20 is solved by enumeration, whose
# cost depends on G alone; G > 20 by branch-and-bound, whose cost is
# heavy-tailed across instances (a G = 28 instance can take seconds). One
# instance per branch-and-bound size keeps the sweep's total steady from
# seed to seed, and the sweep stops at 28 to keep each run bounded.
SWEEP_INSTANCES = {2: 30, 4: 30, 8: 30, 12: 30, 16: 30, 20: 30, 21: 1, 24: 1, 28: 1}
SWEEP_GROUPS = tuple(SWEEP_INSTANCES)
SWEEP_LAMBDA = 0.1

HELDOUT_GROUPS = 6
HELDOUT_TRAIN_PER_GROUP = 400
HELDOUT_EVAL_PER_GROUP = 20000
HELDOUT_EPOCHS = 5


def override_config(text: str, overrides: dict[str, str]) -> str:
    """Replace the values of existing ``key = value`` lines."""
    lines = text.splitlines(keepends=True)
    missing = set(overrides)
    for i, line in enumerate(lines):
        key, sep, _ = line.partition("=")
        key = key.strip()
        if sep and not line.lstrip().startswith("#") and key in overrides:
            lines[i] = f"{key} = {overrides[key]}\n"
            missing.discard(key)
    if missing:
        raise ValueError(f"config has no keys {sorted(missing)}")
    return "".join(lines)


def reference_config(seed: int, tiny: bool = False) -> str:
    """The checked-in reference config with its data seed set to ``seed``."""
    overrides = {"data.seed": str(seed)}
    if tiny:
        counts = {"train": (60, 30), "val": (30, 15), "test": (30, 15)}
        for split, per_group in counts.items():
            for g, n in enumerate(per_group):
                overrides[f"data.count.{split}.g{g}"] = str(n)
        overrides["hyper.epochs"] = "1"
    return override_config(REFERENCE_CONFIG.read_text(encoding="utf-8"), overrides)


def heldout_config(seed: int, tiny: bool = False) -> str:
    """Small training set, large validation and test splits, one run seed."""
    rng = np.random.default_rng(seed)
    groups, classes, d = HELDOUT_GROUPS, 2, 10
    train, held, epochs = HELDOUT_TRAIN_PER_GROUP, HELDOUT_EVAL_PER_GROUP, HELDOUT_EPOCHS
    if tiny:
        train, held, epochs = 40, 100, 1
    lines = [
        "version = 1",
        f"seeds = {int(rng.integers(1, 1000))}",
        "metric = accuracy",
        "strategies = greedy, ip",
        f"lambda_sel = {SWEEP_LAMBDA}",
        "data.kind = synthetic",
        f"data.seed = {seed}",
        f"data.d = {d}",
        f"data.classes = {classes}",
        f"data.groups = {groups}",
    ]
    for g in range(groups):
        for c in range(classes):
            mean = np.round(rng.normal(0.0, 1.5, d), 3)
            lines.append(f"data.mean.g{g}.c{c} = " + ", ".join(repr(float(m)) for m in mean))
            lines.append(f"data.std.g{g}.c{c} = {float(np.round(rng.uniform(0.6, 1.6), 3))!r}")
    for g in range(groups):
        lines.append(f"data.count.train.g{g} = {train}")
        lines.append(f"data.count.val.g{g} = {held}")
        lines.append(f"data.count.test.g{g} = {held}")
    lines.append(f"hyper.epochs = {epochs}")
    return "\n".join(lines) + "\n"


def selection_instance(rng: np.random.Generator, groups: int) -> dict:
    """Validation metrics of a pooled and an expert model for ``groups`` groups.

    Group sizes follow a Dirichlet draw and every value is a count over
    the group's size, so equal values occur as they do on real splits.
    """
    counts = 5 + rng.multinomial(400 * groups, rng.dirichlet(np.ones(groups)))
    erm_hits = rng.binomial(counts, rng.uniform(0.55, 0.95, groups))
    shift = np.rint(rng.normal(0.01, 0.05, groups) * counts).astype(np.int64)
    expert_hits = np.clip(erm_hits + shift, 0, counts)
    return {
        "proportions": (counts / counts.sum()).tolist(),
        "erm": (erm_hits / counts).tolist(),
        "expert": (expert_hits / counts).tolist(),
    }


def selection_instances(seed: int, tiny: bool = False) -> list[dict]:
    rng = np.random.default_rng(seed)
    sizes = {2: 2, 4: 2, 8: 2, 21: 2} if tiny else SWEEP_INSTANCES
    return [selection_instance(rng, g) for g, count in sizes.items() for _ in range(count)]


def write_inputs(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> Path:
    """Write the workload's input file into ``work_dir`` and return its path."""
    if workload == "reference":
        path, text = work_dir / "reference.cfg", reference_config(seed, tiny)
    elif workload == "heldout_heavy":
        path, text = work_dir / "heldout_heavy.cfg", heldout_config(seed, tiny)
    elif workload == "selection_sweep":
        payload = {"lambda_sel": SWEEP_LAMBDA, "instances": selection_instances(seed, tiny)}
        path, text = work_dir / "selection_sweep.json", json.dumps(payload) + "\n"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path.write_text(text, encoding="utf-8")
    return path
