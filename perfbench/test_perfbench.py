"""Tests of the benchmark itself: tiny runs of each workload, and the
checks that must turn a wrong output into a failed op."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_of_each_workload(workload, tmp_path):
    result = run.run_workload(workload, 3, 0, True, tiny=True, work_root=tmp_path)
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["traced"] >= 2 and result["repetitions"] > result["traced"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace_overhead"]["value"] > 0
    assert (tmp_path / workload / "spans.jsonl").stat().st_size > 0


def test_untraced_run_reports_end_to_end_metrics_and_fails_a_corrupted_digest(tmp_path):
    first = run.run_workload("reference", 3, 0, False, tiny=True, work_root=tmp_path)
    assert first["failed"] == 0
    assert first["attempted"] == 3 * first["repetitions"]  # one op per run seed
    assert set(first["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in first["metrics"].values())

    expected = dict(first["digests"], **{"representations_12.csv": "0" * 64})
    again = run.run_workload("reference", 3, 0, False, tiny=True, work_root=tmp_path,
                             expected_digests=expected)
    assert again["failed"] == again["repetitions"]


def test_wrong_selection_fails_its_op(tmp_path, monkeypatch):
    from fairexperts import selection

    path = workloads.write_inputs("selection_sweep", 3, tmp_path, tiny=True)
    sweep = worker.SelectionSweep(str(path))
    solve = selection.select_ip

    def flipped(expert, erm, lambda_sel):
        decision = solve(expert, erm, lambda_sel)
        return replace(decision, choices=(1 - decision.choices[0],) + decision.choices[1:])

    monkeypatch.setattr(selection, "select_ip", flipped)
    rep = sweep.measure(str(tmp_path / "out"))
    ip_ops = [op for op in sweep.op_names() if op.endswith("/ip")]
    assert sorted(rep["op_errors"]) == sorted(ip_ops)
    assert run.count_failed(rep, sweep.op_names(), rep["digests"]) == len(ip_ops)


def test_tracer_names_missing_targets_and_layers_that_recorded_nothing(monkeypatch):
    from fairexperts import selection
    from fairexperts.metrics import GroupMetrics

    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("x", "fairexperts.selection", "no_such_solver"),))
    inst = workloads.selection_instance(np.random.default_rng(1), 4)
    expert, erm = (GroupMetrics("accuracy", inst[k], inst["proportions"], "val")
                   for k in ("expert", "erm"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        selection.select_ip(expert, erm, 0.1)
    finally:
        tracer.uninstall()
    assert tracer.untraced("selection_sweep") == [
        "fairexperts.selection.no_such_solver (not found)",
        "selection.select_greedy (nothing recorded)",
    ]


def test_oracles_agree_and_break_ties_toward_fewer_experts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        inst = workloads.selection_instance(rng, int(rng.integers(2, 11)))
        args = (inst["expert"], inst["erm"], inst["proportions"], 0.1)
        assert oracle.window_optimum(*args) == oracle.brute_force(*args)
    tie = {"expert": [0.7, 0.8], "erm": [0.7, 0.8], "proportions": [0.5, 0.5]}
    assert oracle.brute_force(tie["expert"], tie["erm"], tie["proportions"], 0.1)[0] == (0, 0)


def test_without_the_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
