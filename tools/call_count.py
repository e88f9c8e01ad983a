"""Python-level calls per expert training batch, counted by cProfile.

    python3 tools/call_count.py configs/group_shift.cfg

Builds the dataset of CONFIG's first seed, trains the experts model on
it under ``cProfile``, and prints the profiler's total call count (every
Python function and builtin call, the primitive and the recursive ones)
over the number of batches, epochs x ceil(train rows / batch size).
Building the dataset is not profiled. A count has no timing noise: two
runs of one tree print the same number, so it shows a change in the
per-batch work exactly where a time would be lost in the host's spread.
It imports ``fairexperts`` from ``PYTHONPATH`` if that has it, else from
this checkout's ``src``, so ``PYTHONPATH=OTHER/src`` counts another
tree. Standard library plus the package.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
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
    from fairexperts.training import train_experts

    config = load_config(args.config)
    seed = config.seeds[0]
    dataset = dataset_for_seed(config, seed)
    hp = replace(config.hyper, seed=seed)
    rows = dataset.split_arrays("train")[0].shape[0]
    batches = hp.epochs * -(-rows // hp.batch_size)
    profile = cProfile.Profile()
    profile.runcall(train_experts, dataset, hp)
    calls = pstats.Stats(profile).total_calls
    print(
        f"seed {seed}: {calls} calls over {batches} batches "
        f"({hp.epochs} epochs of {rows} train rows in batches of {hp.batch_size}): "
        f"{calls / batches:.1f} calls per expert batch"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
