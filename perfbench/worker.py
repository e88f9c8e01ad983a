"""One repetition of a workload, in a process of its own.

Usage (``run.py`` starts it; the result is a JSON file)::

    python3 perfbench/worker.py --workload reference --input cfg \\
        --out-dir DIR --result result.json --spawned-at T [--trace] [--setup-only]

Set-up (interpreter start, ``import fairexperts``, loading the config or
the selection instances) is timed from ``--spawned-at``, a
``time.monotonic`` reading taken by the parent just before it started
this process. The measured phase drives the program through its public
entry points: ``fairexperts.cli.main(["run", ...])`` or
``fairexperts.selection.select_ip`` / ``select_greedy``. CPU time and
peak RSS cover this process and every child process it has waited for,
so work the program moves into a process pool stays counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its waited-for children.

    The kernel keeps one peak for all children, their largest; children
    that ran at the same time are undercounted, and pages a forked child
    shares with this process count twice.
    """
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0  # KiB on Linux


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


def file_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        sha = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        digests[name] = sha.hexdigest()
    return digests


class ExperimentRun:
    """``fairexperts run`` on a config file (reference, heldout_heavy).

    One op per run seed: its report, training log and representations.
    ``aggregate.json`` summarizes every seed, so it belongs to each op.
    """

    def __init__(self, input_path: str):
        from fairexperts import cli, config

        self.cli = cli
        self.input_path = input_path
        self.files = {
            f"seed{seed}": [
                f"report_{seed}.json",
                f"training_log_{seed}.csv",
                f"representations_{seed}.csv",
                "aggregate.json",
            ]
            for seed in config.load_config(input_path).seeds
        }

    def op_names(self) -> list[str]:
        return list(self.files)

    def measure(self, out_dir: str) -> dict:
        cpu, start = _cpu_s(), time.monotonic()
        code = self.cli.main(["run", "--config", self.input_path, "--out-dir", out_dir])
        wall, cpu = time.monotonic() - start, _cpu_s() - cpu
        rss = _peak_rss_mb()
        if code != 0:
            raise RuntimeError(f"fairexperts run exited with code {code}")
        digests = file_digests(out_dir)
        output_bytes = sum(os.path.getsize(os.path.join(out_dir, n)) for n in digests)
        shutil.rmtree(out_dir)
        expected = {name for names in self.files.values() for name in names}
        unexpected = sorted(set(digests) - expected)
        op_errors = {}
        for op, names in self.files.items():
            problems = [f"missing output {n}" for n in names if n not in digests]
            problems += [f"unexpected output {n}" for n in unexpected]
            if problems:
                op_errors[op] = problems
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "digests": digests,
            "ops": self.files,
            "op_errors": op_errors,
            "output_bytes": output_bytes,
        }


class SelectionSweep:
    """``select_ip`` and ``select_greedy`` on every generated instance."""

    def __init__(self, input_path: str):
        from fairexperts import selection
        from fairexperts.metrics import GroupMetrics

        self.selection = selection
        with open(input_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        self.lambda_sel = payload["lambda_sel"]
        self.instances = payload["instances"]
        self.pairs = [
            (
                GroupMetrics("accuracy", inst["expert"], inst["proportions"], "val"),
                GroupMetrics("accuracy", inst["erm"], inst["proportions"], "val"),
            )
            for inst in self.instances
        ]

    def op_names(self) -> list[str]:
        return [
            f"g{len(inst['erm'])}/{i}/{kind}"
            for i, inst in enumerate(self.instances)
            for kind in ("ip", "greedy")
        ]

    def peak_mb(self) -> dict[str, float]:
        """tracemalloc peak of ``select_ip`` on the first instance of each G."""
        peaks = {}
        for expert, erm in self.pairs:
            key = f"selection.select_ip_peak_mb.g{expert.num_groups}"
            if key in peaks:
                continue
            tracemalloc.start()
            try:
                self.selection.select_ip(expert, erm, self.lambda_sel)
                peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks

    def measure(self, out_dir: str) -> dict:
        selection, lam = self.selection, self.lambda_sel
        decisions = []
        cpu, start = _cpu_s(), time.monotonic()
        for expert, erm in self.pairs:
            decisions.append(
                (selection.select_ip(expert, erm, lam), selection.select_greedy(expert, erm))
            )
        wall, cpu = time.monotonic() - start, _cpu_s() - cpu
        rss = _peak_rss_mb()

        import oracle

        digests, op_errors = {}, {}
        names = iter(self.op_names())
        for inst, (ip, greedy) in zip(self.instances, decisions):
            for kind, decision in (("ip", ip), ("greedy", greedy)):
                op = next(names)
                payload = decision.to_dict()
                digests[op] = hashlib.sha256(
                    json.dumps(payload, sort_keys=True).encode()
                ).hexdigest()
                if kind == "ip":
                    problems = oracle.check_ip(inst, payload, lam)
                else:
                    problems = oracle.check_greedy(inst, payload)
                if problems:
                    op_errors[op] = problems
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "digests": digests,
            "ops": {op: [op] for op in digests},
            "op_errors": op_errors,
            "output_bytes": 0,
        }


def load_workload(workload: str, input_path: str):
    if workload == "selection_sweep":
        return SelectionSweep(input_path)
    return ExperimentRun(input_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    before_import = time.monotonic()
    import fairexperts.cli  # noqa: F401

    imported = time.monotonic()
    workload = load_workload(args.workload, args.input)
    loaded = time.monotonic()
    result = {
        "setup_s": loaded - args.spawned_at,
        "setup.import_s": imported - before_import,
        "setup.config_load_s": loaded - imported,
    }
    if args.setup_only:
        result["environment"] = environment()
        result["ops"] = workload.op_names()
    else:
        layers = {}
        tracer = None
        if args.trace:
            import tracing

            if isinstance(workload, SelectionSweep):
                layers.update(workload.peak_mb())
            tracer = tracing.Tracer()
            tracer.install()
        result.update(workload.measure(args.out_dir))
        if tracer is not None:
            tracer.uninstall()
            result["untraced"] = tracer.untraced(args.workload)
            layers.update(tracer.layer_metrics())
            layers["experiment.output_bytes"] = result["output_bytes"]
            if args.spans:
                tracer.write_spans(args.spans)
        result["layers"] = layers
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
