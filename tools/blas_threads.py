"""Does OpenBLAS run the default network's block products on the calling thread?

    python3 tools/blas_threads.py
    python3 tools/blas_threads.py --run configs/group_shift.cfg

Without ``--run``, for each block size it pushes ``ROWS`` rows through
every inference product of the default network, one block at a time:
the two backbone products, (rows x 10) @ (10 x 32) and (rows x 32) @
(32 x 8), then the head layer that ``Model.predict_proba`` stacks from
every group's head, (rows x 8) @ (8 x 12) at ``heldout_heavy``'s 6
groups and 2 classes. It prints the CPU ticks that the process's other
threads (OpenBLAS's workers) used meanwhile, read from
``/proc/self/task/*/stat``, and the wall time. Zero worker ticks
means every product ran on the calling thread, so no worker spin-waits
after it. ``net.APPLY_BLOCK`` was chosen from this table; re-run it
after a numpy or OpenBLAS upgrade. The same constant also sizes the
blocks of ``Dataset``'s cell counts, of the report counts and of every
CSV file, so a change to it moves those passes' memory too. The sizes 1,536 to 2,047 bracket
the point (about 1,700 rows with OpenBLAS 0.3.31) from which the first
product goes to a worker.

``--run CONFIG`` runs ``experiment.run_experiment`` on CONFIG in this
process, into a temporary directory, and prints per pipeline stage (each
``experiment._stage`` block, summed over seeds) the ticks of the worker
threads and of the calling thread, plus the ticks before the run
(imports, and a pause of ``SETTLE_S`` that lets the worker's start-up
spin end), those of writing the output files (each seed's report JSON,
training log and representations CSV, whose blocks are computed as they
are written, and the aggregate JSON: the calls in ``WRITERS``) and those
outside all of these. Two more columns show which stage sets the peak
memory: the process's peak RSS so far (``ru_maxrss``) and its current
RSS (``/proc/self/statm``), each the largest read at the end of the
stage, or of a write, over the seeds. It
imports ``fairexperts`` from ``PYTHONPATH`` if that has it, else from
this checkout's ``src``, so ``PYTHONPATH=OTHER/src`` measures another
tree. Linux only (it reads ``/proc/self``); standard library plus
numpy.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROWS = 2_000_000
BLOCK_SIZES = (8192, 2048, 2047, 1800, 1536, 1024, 512)
# (in, out) of the default backbone, then of the stacked heads of 6 groups
# and 2 classes
LAYERS = ((10, 32), (32, 8), (8, 12))
SETTLE_S = 1.0
# the output writers that experiment.run_experiment calls, timed as one row
WRITERS = ("write_json", "write_training_log", "write_representations_csv")


def thread_ticks() -> tuple[int, int]:
    """utime + stime, in clock ticks, of (the calling thread, every other thread)."""
    me = threading.get_native_id()
    own = others = 0
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except FileNotFoundError:  # the thread exited
            continue
        # fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line
        fields = stat[stat.rindex(")") + 2 :].split()
        ticks = int(fields[11]) + int(fields[12])
        if int(tid) == me:
            own += ticks
        else:
            others += ticks
    return own, others


def rss_mb() -> np.ndarray:
    """(peak RSS so far, current RSS) of this process, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident = int(fh.read().split()[1])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return np.array([peak_kib / 1024, resident * os.sysconf("SC_PAGE_SIZE") / 2**20])


def run(size: int, weights: list[np.ndarray], rng: np.random.Generator) -> tuple[int, float]:
    """Worker ticks and wall seconds for ``ROWS`` rows in blocks of ``size``."""
    x = rng.standard_normal((size, LAYERS[0][0]))
    outs = [np.empty((size, w.shape[0])) for w in weights]

    def block() -> None:
        a = x
        for w, out in zip(weights, outs):
            a = np.matmul(a, w.T, out=out)

    block()  # let OpenBLAS start its threads before the clock does
    # a worker that an earlier, larger product woke spin-waits for a while
    # after it; let it go back to sleep, or its spin counts against this size
    time.sleep(SETTLE_S)
    ticks, start = thread_ticks()[1], time.perf_counter()
    for _ in range(ROWS // size):
        block()
    return thread_ticks()[1] - ticks, time.perf_counter() - start


def run_stages(config_path: str) -> None:
    """Print worker and calling-thread ticks and RSS per stage, and of the
    output writing, of one experiment run."""
    if str(ROOT / "src") not in sys.path:
        sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which wins
    import fairexperts
    from fairexperts import experiment
    from fairexperts.config import load_config

    config = load_config(config_path)
    ticks: dict[str, np.ndarray] = {}  # row name: (calling, workers), over seeds
    rss: dict[str, np.ndarray] = {}  # row name: (peak, current) at its end, over seeds

    @contextmanager
    def measured(name: str):
        before = np.array(thread_ticks())
        try:
            yield
        finally:
            ticks[name] = ticks.get(name, 0) + np.array(thread_ticks()) - before
            rss[name] = np.maximum(rss.get(name, 0), rss_mb())

    stage = experiment._stage  # run_seed looks the names up at each call

    @contextmanager
    def counted(name: str, seed: int):
        with measured(name), stage(name, seed):
            yield

    def writing(write):
        def measured_write(*args, **kwargs):
            with measured("write outputs"):
                return write(*args, **kwargs)
        return measured_write

    originals = {name: getattr(experiment, name) for name in ("_stage", *WRITERS)}
    patches = {"_stage": counted, **{name: writing(originals[name]) for name in WRITERS}}
    # the worker spin-waits for a while after numpy starts it; let that
    # end before the run, or it counts against the first stages
    time.sleep(SETTLE_S)
    start, start_rss = np.array(thread_ticks()), rss_mb()
    for name, patch in patches.items():
        setattr(experiment, name, patch)
    try:
        with tempfile.TemporaryDirectory(prefix="blas_threads_") as out:
            experiment.run_experiment(config, out)
    finally:
        for name, original in originals.items():
            setattr(experiment, name, original)
    total, end_rss = np.array(thread_ticks()) - start, rss_mb()
    table = {"(before the run)": start, **ticks,
             "(other)": total - sum(ticks.values()), "run total": total}
    rss.update({"(before the run)": start_rss, "run total": end_rss})
    print(f"fairexperts from {Path(fairexperts.__file__).parent}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, {os.sysconf('SC_CLK_TCK')} ticks/s, {config_path}")
    print(f"{'stage':<16} | worker-thread ticks | calling-thread ticks | peak RSS MiB | RSS MiB")
    for name, (calling, workers) in table.items():
        peak, current = (f"{v:.2f}" for v in rss[name]) if name in rss else ("-", "-")
        print(f"{name:<16} | {workers:>19} | {calling:>20} | {peak:>12} | {current:>7}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", metavar="CONFIG",
                        help="tick the threads per stage of one experiment run on CONFIG")
    args = parser.parse_args(argv)
    if args.run:
        run_stages(args.run)
        return
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((out, inp)) for inp, out in LAYERS]
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"{len(os.listdir('/proc/self/task')) - 1} other threads, "
          f"{os.sysconf('SC_CLK_TCK')} ticks/s, {ROWS:,} rows")
    print("rows per block | worker-thread ticks | wall")
    for size in BLOCK_SIZES:
        ticks, wall = run(size, weights, rng)
        print(f"{size:>14,} | {ticks:>19} | {wall:.3f} s")


if __name__ == "__main__":
    main()
