"""Alternated benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload reference --pairs 10 --out BENCH.json
    python3 tools/bench_pairs.py --parent HEAD --workload reference --seed 7 --pairs 3 --out SEED7.json

The parent commit's files are extracted with ``git archive`` into a
temporary directory (removed on exit, also after an error or Ctrl-C).
Each pair runs

    python3 perfbench/run.py --workload W [--seed N] --trace 0 --out FILE

once in the parent tree and once in the working tree, at the run length
that ``perfbench/run.py`` sets by default. ``--seed N`` goes to every
run on both sides; without it each run uses perfbench's default seed.
The output JSON records the seed the runs reported. The parent runs
first in odd pairs (1, 3, ...) and second in even ones. The output JSON
holds every pair's end-to-end metrics and, per workload and metric,
each side's q1/median/q3, the change/parent median ratio, how many
pairs the change was lower and higher in, and the verdict that
``summarize`` computes with the metric's direction and bound from
``BENCHMARK.json``:

* ``gain_rule_met``: the change is better in at least 9 of 10 pairs
  (a tie counts for neither side), its median is better than the
  parent's by more than the parent's interquartile range, and no larger
  share of its ops failed than of the parent's (each side's failed and
  attempted totals over the pairs are under the workload's ``ops``);
* ``within_bound``: the change's median is worse than the parent's by
  at most the bound (a fraction of the parent's median);
* ``unresolved``: the parent's IQR/median exceeds the bound and not
  every change run is better than every parent run, so the runs spread
  too widely to tell.

``--traced-pair`` then runs
three alternated ``--trace 1`` pairs (change first in odd pairs) and
stores every full result plus each side's per-metric medians, so that
host drift within one pair does not read as a layer change. They run
after the untraced pairs, once the host has settled: run first, they
caught it still speeding up, and unchanged layers read faster on
whichever side ran later.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_PAIRS = 3


def end_to_end_metrics() -> list[dict]:
    """``BENCHMARK.json``'s end-to-end metrics: name, unit, better, bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"]


def extract_commit(commit: str, dest: Path) -> str:
    """Write the files of ``commit`` under ``dest``; returns the full hash."""
    full = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest.parent / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", full], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return full


def run_bench(tree: Path, workload: str, seed: int | None, trace: int, out: Path) -> dict:
    seed_flag = [] if seed is None else ["--seed", str(seed)]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, *seed_flag,
           "--trace", str(trace), "--out", str(out)]
    print(f"[{tree}] {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def pair_values(result: dict, names: list[str]) -> dict:
    """One run's end-to-end metrics, ops and failed ops, per workload."""
    out = {}
    for workload, res in result["workloads"].items():
        row = {name: res["metrics"][name]["value"] for name in names}
        row["ops"] = res["attempted"]
        row["ops_failed"] = res["failed"]
        out[workload] = row
    return out


def metric_medians(results: list[dict]) -> dict:
    """Per workload and metric, the median value over ``results``."""
    return {
        workload: {
            name: statistics.median(r["workloads"][workload]["metrics"][name]["value"]
                                    for r in results)
            for name in res["metrics"]
        }
        for workload, res in results[0]["workloads"].items()
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' quartiles, pair counts and the
    verdict, for ``metrics`` given as in ``BENCHMARK.json``'s end_to_end."""
    summary = {}
    for workload in pairs[0]["parent"]:
        ops = {
            side: {"failed": sum(p[side][workload]["ops_failed"] for p in pairs),
                   "attempted": sum(p[side][workload]["ops"] for p in pairs)}
            for side in ("parent", "change")
        }
        # a larger share of failed ops than at the parent voids any gain
        more_failed = (ops["change"]["failed"] * ops["parent"]["attempted"]
                       > ops["parent"]["failed"] * ops["change"]["attempted"])
        rows: dict = {"ops": ops}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            parent = [p["parent"][workload][name] for p in pairs]
            change = [p["change"][workload][name] for p in pairs]
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            # sign * (parent - change) > 0 where the change is better
            sign = 1 if metric["better"] == "lower" else -1
            better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            separated = all(sign * (p - c) > 0 for p in parent for c in change)
            rows[name] = {
                "parent_q1_median_q3": [round(p1, 4), round(pm, 4), round(p3, 4)],
                "change_q1_median_q3": [round(c1, 4), round(cm, 4), round(c3, 4)],
                "change_over_parent_median": round(cm / pm, 4),
                "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
                "pairs_change_higher": sum(c > p for p, c in zip(parent, change)),
                "gain_rule_met": (not more_failed and 10 * better >= 9 * len(pairs)
                                  and sign * (pm - cm) > p3 - p1),
                "within_bound": sign * (pm - cm) >= -bound * pm,
                "unresolved": (p3 - p1) / pm > bound and not separated,
            }
        summary[workload] = rows
    return summary


def host() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(), "os": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree against")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed for every run (default: perfbench's default seed)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pair", action="store_true",
                        help=f"then run {TRACED_PAIRS} alternated --trace 1 pairs, change first")
    parser.add_argument("--out", required=True, help="JSON file to write")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    names = [m["name"] for m in metrics]

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        commit = extract_commit(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        payload: dict = {
            "host": host(),
            "parent_commit": commit,
            "command": " ".join(["python3", "tools/bench_pairs.py", *argv]),
        }

        pairs = []
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                result = run_bench(trees[side], args.workload, args.seed, 0,
                                   tmp / f"pair{k}_{side}.json")
                if result["seed"] != payload.setdefault("seed", result["seed"]):
                    raise RuntimeError("the two trees ran different default seeds; pass --seed")
                pair[side] = pair_values(result, names)
                payload.setdefault("environment", next(iter(result["workloads"].values()))["environment"])
            pairs.append(pair)
            print(f"pair {k}: {json.dumps({s: pair[s] for s in ('parent', 'change')})}",
                  file=sys.stderr, flush=True)

        payload["untraced_pairs"] = {
            # the run length each run reported, which is perfbench's default
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed {payload['seed']} --seconds {result['seconds']:g} "
                       "--trace 0 --out FILE",
            "note": f"{args.pairs} pairs, parent first in odd pairs; each value is the "
                    "run's median over its repetitions",
            "summary": summarize(pairs, metrics),
            "pairs": pairs,
        }

        if args.traced_pair:
            runs: dict = {"parent": [], "change": []}
            for k in range(1, TRACED_PAIRS + 1):
                for side in ("change", "parent") if k % 2 else ("parent", "change"):
                    runs[side].append(run_bench(trees[side], args.workload, args.seed, 1,
                                                tmp / f"traced{k}_{side}.json"))
            payload["traced_pairs"] = {
                "note": f"{TRACED_PAIRS} pairs after the untraced ones, change first in odd "
                        "pairs; each median is per metric over that side's runs",
                "medians": {side: metric_medians(results) for side, results in runs.items()},
                "runs": runs,
            }

        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
