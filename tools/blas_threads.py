"""Does OpenBLAS run the default network's block products on the calling thread?

    python3 tools/blas_threads.py

For each block size it pushes ``ROWS`` rows through the default
network's two backbone products, (rows x 10) @ (10 x 32) and then
(rows x 32) @ (32 x 8), one block at a time, and prints the CPU ticks
that the process's other threads (OpenBLAS's workers) used meanwhile,
read from ``/proc/self/task/*/stat``, and the wall time. Zero worker
ticks means every product ran on the calling thread, so no worker
spin-waits after it. ``net.APPLY_BLOCK`` was chosen from this table;
re-run it after a numpy or OpenBLAS upgrade. Linux only; standard library
plus numpy.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

ROWS = 2_000_000
BLOCK_SIZES = (8192, 2048, 1024, 512)
LAYERS = ((10, 32), (32, 8))  # (in, out) of the default backbone
SETTLE_S = 1.0


def worker_ticks() -> int:
    """utime + stime, in clock ticks, of every thread but the calling one."""
    me = threading.get_native_id()
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except FileNotFoundError:  # the thread exited
            continue
        # fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line
        fields = stat[stat.rindex(")") + 2 :].split()
        total += int(fields[11]) + int(fields[12])
    return total


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
    ticks, start = worker_ticks(), time.perf_counter()
    for _ in range(ROWS // size):
        block()
    return worker_ticks() - ticks, time.perf_counter() - start


def main() -> None:
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
