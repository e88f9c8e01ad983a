"""The repository's benchmark.

    python3 perfbench/run.py --workload reference --seed 20240501 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each was chosen):
``reference``, ``heldout_heavy``, ``selection_sweep``, or ``all``.

Every repetition runs in a fresh process (``worker.py``), so its peak RSS
is its own. Untraced runs (``--trace 0``) report the end-to-end metrics;
traced runs (``--trace 1``) alternate untraced and traced repetitions and
report the per-layer metrics plus the tracing overhead; a traced run
fails if a traced layer is not found or records nothing. Set-up figures
are medians over the warm-up and every repetition. Every
repetition's outputs are checked: byte identity against the recorded
digests (default seed) or the run's first repetition (any seed), and
every selection decision against independent oracles. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "losses.sample_pairs.self_s": "s",
    "losses.sample_pairs.calls": "count",
    "losses.diversity.self_s": "s",
    "losses.center_alignment.self_s": "s",
    "losses.discriminator.self_s": "s",
    "losses.diversity.skipped_ratio": "ratio",
    "net.forward.self_s": "s",
    "net.forward.calls": "count",
    "net.forward.rows_per_call": "rows",
    "net.backward.self_s": "s",
    "net.sgd_step.self_s": "s",
    "net.sgd_step.calls": "count",
    "training.train_experts.self_s": "s",
    "training.train_erm.self_s": "s",
    "training.train_decoupled.self_s": "s",
    "training.probe.self_s": "s",
    "training.steps": "count",
    "data.generate.self_s": "s",
    "data.rows": "rows",
    "metrics.build_report.self_s": "s",
    "metrics.group_eval.self_s": "s",
    "metrics.predict.calls": "count",
    "metrics.predict.rows": "rows",
    "experiment.write_representations.self_s": "s",
    "experiment.write_reports.self_s": "s",
    "experiment.output_bytes": "bytes",
    **{f"selection.select_ip_ms.g{g}": "ms" for g in workloads.SWEEP_GROUPS},
    **{f"selection.select_ip_peak_mb.g{g}": "MB" for g in workloads.SWEEP_GROUPS},
    "selection.select_greedy_ms": "ms",
    "setup.import_s": "s",
    "setup.config_load_s": "s",
    "trace_overhead": "ratio",
}

MIN_REPETITIONS = 3  # per untraced run
MIN_TRACED_RUN_REPETITIONS = 4  # two untraced, two traced
TIME_LIMIT_S = 170.0  # one workload's whole run, set-up included


class BenchmarkError(Exception):
    pass


def spawn(workload: str, input_path: Path, work: Path, tag: str, timeout: float, *,
          trace: bool = False, setup_only: bool = False) -> dict | None:
    """Run one worker process to completion; None if it failed."""
    result = work / f"{tag}.result.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--input", str(input_path),
           "--out-dir", str(work / tag), "--result", str(result)]
    if trace:
        cmd += ["--trace", "--spans", str(work / "spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{workload}/{tag}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}/{tag}: exit {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def count_failed(rep: dict | None, ops: list[str], reference: dict[str, str]) -> int:
    """Ops of one repetition that failed, crashed, or changed any output byte."""
    if rep is None:
        return len(ops)
    failed = 0
    for op in ops:
        names = rep["ops"].get(op)
        bad = names is None or bool(rep["op_errors"].get(op))
        bad = bad or any(rep["digests"].get(n) != reference.get(n) for n in names or ())
        failed += bad
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 expected_digests: dict | None = None, tiny: bool = False,
                 work_root: Path = WORK) -> dict:
    """Measure one workload; returns metrics, op counts and the first outputs' digests.

    ``tiny`` shrinks the inputs for tests; ``work_root`` holds inputs,
    worker results and the last traced repetition's spans.
    """
    began = time.monotonic()
    deadline = began + TIME_LIMIT_S
    work = work_root / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_path = workloads.write_inputs(workload, seed, work, tiny)

    def left() -> float:
        return deadline - time.monotonic()

    warmup = spawn(workload, input_path, work, "warmup", left(), setup_only=True)
    if warmup is None:
        raise BenchmarkError(f"{workload}: set-up failed")
    ops = warmup["ops"]

    reps: list[tuple[bool, dict | None]] = []
    start, longest = time.monotonic(), 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append((traced, spawn(workload, input_path, work, f"rep{len(reps)}", left(),
                                   trace=traced)))
        longest = max(longest, time.monotonic() - t0)
        enough = len(reps) >= (MIN_TRACED_RUN_REPETITIONS if trace else MIN_REPETITIONS)
        if (enough and time.monotonic() - start >= seconds) or left() < longest:
            break

    done = [(traced, rep) for traced, rep in reps if rep is not None]
    if not done:
        raise BenchmarkError(f"{workload}: every repetition failed")
    reference = expected_digests if expected_digests is not None else done[0][1]["digests"]
    attempted = len(ops) * len(reps)
    failed = sum(count_failed(rep, ops, reference) for _, rep in reps)

    plain = [rep for traced, rep in done if not traced]
    workers = [warmup] + [rep for _, rep in done]
    if trace:
        traced_reps = [rep for traced, rep in done if traced]
        if not plain or not traced_reps:
            raise BenchmarkError(f"{workload}: no traced or no untraced repetition completed")
        untraced = sorted({name for rep in traced_reps for name in rep["untraced"]})
        if untraced:
            raise BenchmarkError(f"{workload}: traced layers missing: {', '.join(untraced)}")
        layers = {
            name: statistics.median(rep["layers"].get(name, 0.0) for rep in traced_reps)
            for name in PER_LAYER
        }
        for name in ("setup.import_s", "setup.config_load_s"):
            layers[name] = statistics.median(r[name] for r in workers)
        layers["trace_overhead"] = statistics.median(r["wall_s"] for r in traced_reps) / (
            statistics.median(r["wall_s"] for r in plain)
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {name: statistics.median(r[name] for r in plain) for name in END_TO_END
                  if name != "setup_s"}
        values["setup_s"] = statistics.median(r["setup_s"] for r in workers)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "repetitions": len(reps),
        "traced": sum(traced for traced, _ in reps),
        "elapsed_s": time.monotonic() - began,
        "environment": warmup["environment"],
        "digests": done[0][1]["digests"],
    }


def print_summary(workload: str, seed: int, result: dict) -> None:
    env = result["environment"]
    threads = ", ".join(f"{k}={v}" for k, v in env["thread_variables"].items()) or "none set"
    print(f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"thread variables: {threads}, nproc {env['nproc']}, workload seed {seed}")
    print(f"{workload}: {result['repetitions']} repetitions ({result['traced']} traced) "
          f"in {result['elapsed_s']:.1f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'ops':44s} {result['attempted']}")
    print(f"  {'ops_failed':44s} {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="also write the results as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairexperts" / "__init__.py").is_file():
        print(f"error: no fairexperts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            expected = recorded.get(name) if args.seed == workloads.DEFAULT_SEED else None
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         expected_digests=expected)
            print_summary(name, args.seed, results[name])
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        payload = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "workloads": {k: {key: v[key] for key in ("metrics", "attempted", "failed",
                                                             "repetitions", "environment")}
                                 for k, v in results.items()}}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    prefix = len(results) > 1
    metrics = {(f"{w}.{m}" if prefix else m): v
               for w, r in results.items() for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
