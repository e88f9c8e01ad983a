"""Python-level calls per expert and per pooled training batch, counted by cProfile.

    python3 tools/call_count.py configs/group_shift.cfg

Builds the dataset of CONFIG's first seed, trains the experts model and
then the pooled (``train_erm``) model on it, each under its own
``cProfile``, and prints one line per model: the profiler's total call
count (every Python function and builtin call, the primitive and the
recursive ones) over the number of batches, epochs x ceil(train rows /
batch size). The count sums the profiler's raw entries, one per code
object: ``pstats`` keys them by file, line and name, so it would keep
one count of all the ``__init__`` methods that ``dataclasses``
generates (all "<string>", line 2). Building the dataset is not
profiled. A count has no timing noise: two
runs of one tree print the same number, so it shows a change in the
per-batch work exactly where a time would be lost in the host's spread.
It imports ``fairexperts`` from ``PYTHONPATH`` if that has it, else from
this checkout's ``src``, so ``PYTHONPATH=OTHER/src`` counts another
tree. Standard library plus the package.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config file")
    args = parser.parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which wins
    from fairexperts.config import load_config
    from fairexperts.experiment import dataset_for_seed
    from fairexperts.training import train_erm, train_experts

    config = load_config(args.config)
    seed = config.seeds[0]
    dataset = dataset_for_seed(config, seed)
    hp = replace(config.hyper, seed=seed)
    rows = dataset.split_arrays("train")[0].shape[0]
    batches = hp.epochs * -(-rows // hp.batch_size)
    for train, kind in ((train_experts, "expert"), (train_erm, "pooled")):
        profile = cProfile.Profile()
        profile.runcall(train, dataset, hp)
        calls = sum(entry.callcount for entry in profile.getstats())
        print(
            f"seed {seed}: {calls} calls over {batches} batches "
            f"({hp.epochs} epochs of {rows} train rows in batches of {hp.batch_size}): "
            f"{calls / batches:.1f} calls per {kind} batch"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
