import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fairexperts.checkpoint import load_checkpoint, save_checkpoint
from fairexperts.cli import build_parser, main
from fairexperts.metrics import GroupMetrics
from fairexperts.selection import select_ip
from fairexperts.training import train_erm

from helpers import mutated_bytes, tiny_dataset, tiny_hp

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "group_shift.cfg"

CONFIG = """
version = 1
seeds = 5
metric = accuracy
strategies = greedy, ip
lambda_sel = 0.1

data.kind = synthetic
data.seed = 99
data.d = 3
data.classes = 2
data.groups = 2
data.mean.g0.c0 = -2, 0, 0
data.mean.g0.c1 = 2, 0, 0
data.mean.g1.c0 = 0, -2, 1.5
data.mean.g1.c1 = 0, 2, 1.5
data.count.train.g0 = 120
data.count.train.g1 = 60
data.count.val.g0 = 60
data.count.val.g1 = 30
data.count.test.g0 = 60
data.count.test.g1 = 30

hyper.epochs = 3
hyper.batch_size = 32
hyper.hidden_dim = 16
hyper.repr_dim = 4
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture()
def forbid_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("fairexperts.experiment.train_erm", no_training)


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["run", "--config", "x", "--frobnicate"]) == 1


def test_missing_config_is_data_error(capsys):
    assert main(["run", "--config", "/nope.cfg", "--out-dir", "/tmp/x"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_on_a_csv_label_outside_int64_is_data_error(tmp_path, config_path, capsys):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(
        "f0,f1,f2,label,group,split\n"
        "0.5,1.5,2.5,0,0,train\n"
        "0.5,1.5,2.5,99999999999999999999,1,train\n"
    )
    argv = ["run", "--config", config_path, "--data-csv", str(csv_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "row 2, column 'label': non-int64 value '99999999999999999999'" in err
    assert "Traceback" not in err


def test_run_on_a_csv_field_over_the_csv_module_limit_is_data_error(tmp_path, config_path, capsys):
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("f0,f1,f2,label,group,split\n" + "1" * 200_000 + ",1.5,2.5,0,0,train\n")
    argv = ["run", "--config", config_path, "--data-csv", str(csv_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{csv_path}: line 2: field larger than field limit (131072)" in err
    assert "Traceback" not in err


def test_run_on_a_csv_that_is_not_utf8_is_data_error(tmp_path, config_path, capsys):
    csv_path = tmp_path / "latin.csv"
    csv_path.write_bytes(b"f0,f1,f2,label,group,split\n1.5,2.5,3.5,0,0,train\n1,2,3,1,1,caf\xe9\n")
    argv = ["run", "--config", config_path, "--data-csv", str(csv_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{csv_path}: line 3: not UTF-8 text (invalid continuation byte)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "roles, column",
    [
        ("data.features = f0, label", "label"),
        ("data.features = f0, f0", "f0"),
        ("data.features = f0, f1\ndata.group_column = label", "label"),
    ],
    ids=["label-as-feature", "feature-twice", "label-as-group"],
)
def test_run_rejects_a_column_given_two_roles(tmp_path, capsys, forbid_training, roles, column):
    rng = np.random.default_rng(8)
    rows = [f"{a:.3f},{b:.3f},{k % 2},{k // 100}" for k, (a, b) in enumerate(rng.normal(size=(200, 2)))]
    (tmp_path / "data.csv").write_text("f0,f1,label,group\n" + "\n".join(rows) + "\n")
    path = tmp_path / "exp.cfg"
    path.write_text(
        "version = 1\nseeds = 5\ndata.kind = csv\n"
        f"data.path = {tmp_path / 'data.csv'}\ndata.classes = 2\ndata.groups = 2\n{roles}\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    assert f"columns [{column!r}] are given more than one role" in capsys.readouterr().err
    assert not out.exists()  # refused while the config loaded


def test_run_on_a_config_that_is_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(CONFIG.replace("seeds = 5", "# caf\xe9\nseeds = 5").encode("latin-1"))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config file {str(path)!r}: line 3: not UTF-8 text (invalid continuation byte)" in err
    assert "Traceback" not in err


def test_run_on_a_count_numpy_cannot_size_is_data_error(tmp_path, config_path, capsys):
    huge = Path(config_path).read_text().replace(
        "data.count.train.g1 = 60", "data.count.train.g1 = 99999999999999999999"
    )
    Path(config_path).write_text(huge)
    assert main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "data.count: cannot allocate" in capsys.readouterr().err


def test_run_on_a_width_the_host_cannot_allocate_is_data_error(tmp_path, config_path):
    wide = Path(config_path).read_text().replace("hyper.hidden_dim = 16", "hyper.hidden_dim = 100000000000")
    Path(config_path).write_text(wide)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the 2 GiB address-space limit holds in the child only, so the
    # 1.46 TiB backbone fails there as on a host without that memory
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from fairexperts.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    cmd = [sys.executable, "-c", code, "run", "--config", config_path, "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "hyper.hidden_dim = 100000000000, hyper.repr_dim = 4: cannot allocate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_that_runs_out_of_memory_past_the_backbone_is_data_error(
    tmp_path, config_path, monkeypatch, capsys
):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 732. MiB for an array with shape (32, 3000000)")

    monkeypatch.setattr("fairexperts.experiment.train_decoupled", out_of_memory)
    assert main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: [stage=train-decoupled seed=5] Unable to allocate 732. MiB" in capsys.readouterr().err


def test_run_that_numpy_cannot_allocate_for_names_the_stage_and_seed(
    tmp_path, config_path, monkeypatch, capsys
):
    def out_of_memory(*args, **kwargs):
        # 32 PiB: numpy fails at once and touches no memory
        return np.empty((2**40, 2**12))

    monkeypatch.setattr("fairexperts.experiment.train_experts", out_of_memory)
    assert main(["run", "--config", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: [stage=train-experts seed=5] Unable to allocate 32.0 PiB" in err


def test_run_without_out_dir_is_usage_error(config_path):
    assert main(["run", "--config", config_path]) == 1


def test_divergence_exit_code(tmp_path, config_path):
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(CONFIG + "\nhyper.lr0 = 100000000.0\n")
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(diverging), "--out-dir", str(tmp_path / "out")])
    assert code == 3


@pytest.mark.parametrize("command", ["train", "run"])
def test_divergence_names_its_stage_and_seed_without_numpy_warnings(tmp_path, capsys, command):
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(CONFIG + "\nhyper.lr0 = 1000000.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(diverging), "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err == "training diverged: [stage=train-erm seed=5] pooled loss diverged at epoch 0\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ("hyper.epochs = 3", "hyper.epochs = 3\nhyper.lambda_disc = nan"),
        ("lambda_sel = 0.1", "lambda_sel = -1"),
    ],
)
def test_run_rejects_bad_coefficients_before_training(tmp_path, forbid_training, capsys, old, new):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace(old, new))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


EMPTY_LAYER = "hidden_dim and repr_dim must be at least 1"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("hyper.hidden_dim = 16", "hyper.hidden_dim = 0", EMPTY_LAYER),
        ("hyper.repr_dim = 4", "hyper.repr_dim = 0", EMPTY_LAYER),
        ("seeds = 5", "seeds = -1", "seeds must be nonnegative"),
    ],
    ids=["hidden_dim_zero", "repr_dim_zero", "seeds_negative"],
)
def test_run_rejects_empty_layers_and_negative_seeds_before_any_stage(
    tmp_path, forbid_training, capsys, old, new, message
):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace(old, new))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "stage=" not in err
    assert not (tmp_path / "out").exists()


def test_evaluate_missing_checkpoint_is_data_error(config_path, capsys):
    assert (
        main(["evaluate", "--checkpoint", "/no/such.json", "--config", config_path]) == 2
    )
    assert "does not exist" in capsys.readouterr().err


# an erm checkpoint for CONFIG's 3 features and 2 classes, except that
# its seed lineage is a list
LINEAGE_LIST = {
    "format_version": 1,
    "kind": "erm",
    "seed_lineage": [5],
    "backbone": {"layers": [{"weight": [[1.0, 0.0, 0.0]], "bias": [0.0], "activation": "identity"}]},
    "head": {"layers": [{"weight": [[1.0], [-1.0]], "bias": [0.0, 0.0], "activation": "identity"}]},
}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("select", []),
        ("select", {"values": {"a": 1}, "proportions": [1]}),
        ("evaluate", "x"),
        ("evaluate", LINEAGE_LIST),
    ],
    ids=["metrics_list", "metrics_values_object", "checkpoint_string", "checkpoint_lineage_list"],
)
def test_json_that_is_not_an_object_is_data_error(tmp_path, config_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "select":
        argv = ["select", "--strategy", "ip", "--expert", str(path), "--erm", str(path)]
    else:
        argv = ["evaluate", "--checkpoint", str(path), "--config", config_path]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_json_that_is_not_utf8_is_data_error(tmp_path, config_path, capsys, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{\n  "values": [0.5],\n  "note": "caf\xe9"\n}\n')
    if command == "select":
        argv = ["select", "--strategy", "ip", "--expert", str(path), "--erm", str(path)]
    else:
        argv = ["evaluate", "--checkpoint", str(path), "--config", config_path]
    assert main(argv) == 2
    assert f"{str(path)!r}: line 3: not UTF-8 text (invalid continuation byte)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["select", "evaluate"])
@pytest.mark.parametrize("deep", [False, True], ids=["int_too_large_for_a_float", "nested_too_deeply"])
def test_json_that_numpy_or_json_cannot_read_is_data_error(tmp_path, config_path, capsys, command, deep):
    path = tmp_path / "input.json"
    big = "1" + "0" * 400  # an integer beyond float64's range
    if deep:
        text = "[" * 100_000 + "]" * 100_000
    elif command == "select":
        text = json.dumps({"values": [0.5], "proportions": [1]}).replace("0.5", big)
    else:
        erm = dict(LINEAGE_LIST, seed_lineage={"seed": 5, "generator": "PCG64"})
        text = json.dumps(erm).replace("-1.0", big)
    path.write_text(text)
    if command == "select":
        argv = ["select", "--strategy", "ip", "--expert", str(path), "--erm", str(path)]
    else:
        argv = ["evaluate", "--checkpoint", str(path), "--config", config_path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert ("too deeply" if deep else "int too large to convert to float") in err


@pytest.mark.parametrize("columns", [1, 3])
def test_evaluate_rejects_a_checkpoint_with_the_wrong_class_count(tmp_path, config_path, capsys, columns):
    # an erm checkpoint for CONFIG's 3 features whose head has ``columns``
    # outputs where the config has 2 classes
    payload = dict(
        LINEAGE_LIST,
        seed_lineage={"seed": 5, "generator": "PCG64"},
        head={"layers": [{"weight": [[1.0]] * columns, "bias": [0.0] * columns, "activation": "identity"}]},
    )
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(payload))
    assert main(["evaluate", "--checkpoint", str(path), "--config", config_path]) == 2
    assert f"predictor returned shape (90, {columns}), expected (90, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "export-repr"])
def test_checkpoint_whose_input_width_is_not_data_d_is_data_error(tmp_path, config_path, capsys, command):
    # the golden experts checkpoint takes 2 input features; CONFIG sets data.d = 3
    checkpoint = str(GOLDEN / "checkpoint_experts.json")
    argv = [command, "--checkpoint", checkpoint, "--config", config_path]
    if command == "export-repr":
        argv += ["--out", str(tmp_path / "reps.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint!r} takes 2 input features, but data.d is 3" in err


def test_run_writes_bundle(tmp_path, config_path):
    out_dir = tmp_path / "bundle"
    assert main(["run", "--config", config_path, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report_5.json").exists()
    assert (out_dir / "aggregate.json").exists()


def test_train_then_evaluate_round_trip(tmp_path, config_path, capsys):
    out_dir = tmp_path / "models"
    assert main(["train", "--config", config_path, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "erm_eval.json"
    assert (
        main(
            [
                "evaluate",
                "--checkpoint", str(out_dir / "erm_5.json"),
                "--config", config_path,
                "--split", "val",
                "--out", str(report_path),
            ]
        )
        == 0
    )
    payload = json.loads(report_path.read_text())
    assert payload["metric_kind"] == "accuracy"
    assert len(payload["per_group"]) == 2


def test_gen_data_then_train_matches_in_process_pipeline(tmp_path, config_path):
    csv_path = tmp_path / "data.csv"
    assert main(["gen-data", "--config", config_path, "--out", str(csv_path)]) == 0

    synthetic_dir = tmp_path / "from_synthetic"
    csv_dir = tmp_path / "from_csv"
    assert main(["train", "--config", config_path, "--out-dir", str(synthetic_dir)]) == 0
    assert (
        main(
            [
                "train",
                "--config", config_path,
                "--data-csv", str(csv_path),
                "--out-dir", str(csv_dir),
            ]
        )
        == 0
    )
    for name in ("erm_5.json", "decoupled_5.json", "experts_5.json"):
        assert (synthetic_dir / name).read_bytes() == (csv_dir / name).read_bytes()


def test_gen_data_on_the_reference_config_matches_its_pinned_sha256(tmp_path):
    # 8,000 rows of seed 11, written in eight row blocks; a byte change in
    # data generation or the CSV writer fails here
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(REFERENCE_CONFIG), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2d0fa75c984db280684aeb4189cd49de4a1ffc1036eadc2fafa1dd029bd860e4"


def test_each_subcommand_takes_its_own_options():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    got = {
        name: {
            action.option_strings[0]: (action.required, action.default)
            for action in sub._actions if action.dest != "help"
        }
        for name, sub in subcommands.items()
    }
    config, seed, data_csv = (True, None), (False, None), (False, None)
    out = (True, None)
    assert got == {
        "gen-data": {"--config": config, "--seed": seed, "--out": out},
        "train": {"--config": config, "--seed": seed, "--data-csv": data_csv, "--out-dir": out},
        "evaluate": {
            "--checkpoint": (True, None), "--config": config, "--seed": seed,
            "--data-csv": data_csv, "--split": (False, "val"), "--metric": (False, None),
            "--out": (False, None),
        },
        "select": {
            "--strategy": (True, None), "--lambda": (False, 0.1), "--expert": (True, None),
            "--erm": (True, None), "--out": (False, None),
        },
        "export-repr": {
            "--checkpoint": (True, None), "--config": config, "--seed": seed,
            "--data-csv": data_csv, "--split": (False, "test"), "--out": out,
        },
        "run": {"--config": config, "--data-csv": data_csv, "--out-dir": (False, None)},
    }


def test_select_wrapper_matches_in_process_call(tmp_path, capsys):
    expert = {"metric_kind": "accuracy", "split": "val", "values": [0.85, 0.80],
              "proportions": [0.5, 0.5]}
    erm = {**expert, "values": [0.80, 0.80]}
    expert_path = tmp_path / "expert.json"
    erm_path = tmp_path / "erm.json"
    expert_path.write_text(json.dumps(expert))
    erm_path.write_text(json.dumps(erm))
    out_path = tmp_path / "decision.json"
    code = main(
        [
            "select",
            "--strategy", "ip",
            "--lambda", "0.1",
            "--expert", str(expert_path),
            "--erm", str(erm_path),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    expected = select_ip(GroupMetrics.from_dict(expert), GroupMetrics.from_dict(erm), 0.1)
    assert payload == expected.to_dict()


def test_select_accepts_metrics_report_payloads(tmp_path):
    report = {
        "metric_kind": "accuracy",
        "split": "val",
        "per_group": [0.9, 0.8],
        "proportions": [0.5, 0.5],
    }
    erm = dict(report, per_group=[0.85, 0.82])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(erm))
    assert main(["select", "--strategy", "greedy", "--expert", str(a), "--erm", str(b)]) == 0


METRICS_REPORT = {
    "metric_kind": "accuracy",
    "split": "val",
    "per_group": [0.9, 0.8],
    "proportions": [0.5, 0.5],
}


@pytest.mark.parametrize("strategy", ["greedy", "ip"])
def test_select_rejects_metrics_from_different_splits(tmp_path, capsys, strategy):
    expert, erm = tmp_path / "expert.json", tmp_path / "erm.json"
    expert.write_text(json.dumps(METRICS_REPORT))
    erm.write_text(json.dumps(dict(METRICS_REPORT, split="test", per_group=[0.85, 0.82])))
    argv = ["select", "--strategy", strategy, "--expert", str(expert), "--erm", str(erm)]
    assert main(argv) == 2
    assert "expert metrics are from split val, pooled from test" in capsys.readouterr().err


def test_select_rejects_expert_and_pooled_proportions_that_differ(tmp_path, capsys):
    expert, erm = tmp_path / "expert.json", tmp_path / "erm.json"
    expert.write_text(json.dumps(dict(METRICS_REPORT, proportions=[0.9, 0.1])))
    erm.write_text(json.dumps(dict(METRICS_REPORT, per_group=[0.85, 0.82], proportions=[0.1, 0.9])))
    argv = ["select", "--strategy", "ip", "--expert", str(expert), "--erm", str(erm)]
    assert main(argv) == 2
    assert "expert proportions [0.9 0.1] differ from pooled [0.1 0.9]" in capsys.readouterr().err


def test_select_rejects_a_split_outside_splits(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(dict(METRICS_REPORT, split=7)))
    assert main(["select", "--strategy", "ip", "--expert", str(path), "--erm", str(path)]) == 2
    assert f"metrics file {str(path)!r} is malformed: unknown split 7" in capsys.readouterr().err


def test_select_rejects_nan_metric_values(tmp_path, capsys):
    # json reads the bare token NaN as a float
    expert = tmp_path / "expert.json"
    erm = tmp_path / "erm.json"
    expert.write_text('{"values": [0.9, NaN], "proportions": [0.5, 0.5]}')
    erm.write_text('{"values": [0.8, 0.8], "proportions": [0.5, 0.5]}')
    code = main(["select", "--strategy", "ip", "--expert", str(expert), "--erm", str(erm)])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_select_ip_on_1200_groups(tmp_path):
    rng = np.random.default_rng(29)
    g = 1200
    p = rng.dirichlet(np.ones(g))
    erm_values = rng.uniform(0.5, 0.9, g)
    expert_values = np.clip(erm_values + rng.normal(0.01, 0.05, g), 0, 1)
    paths = []
    for name, values in (("expert", expert_values), ("erm", erm_values)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"metric_kind": "accuracy", "split": "val",
                                    "values": values.tolist(), "proportions": p.tolist()}))
        paths.append(str(path))
    out = tmp_path / "decision.json"
    argv = ["select", "--strategy", "ip", "--expert", paths[0], "--erm", paths[1], "--out", str(out)]
    assert main(argv) == 0
    assert len(json.loads(out.read_text())["choices"]) == g


def test_export_repr_writes_csv(tmp_path, config_path):
    out_dir = tmp_path / "models"
    main(["train", "--config", config_path, "--out-dir", str(out_dir)])
    reps_path = tmp_path / "reps.csv"
    code = main(
        [
            "export-repr",
            "--checkpoint", str(out_dir / "experts_5.json"),
            "--config", config_path,
            "--split", "val",
            "--out", str(reps_path),
        ]
    )
    assert code == 0
    lines = reps_path.read_text().splitlines()
    assert lines[0] == "z0,z1,z2,z3,label,group"
    assert len(lines) == 1 + 90


def test_checkpoint_round_trip_preserves_parameters(tmp_path):
    ds = tiny_dataset()
    model = train_erm(ds, tiny_hp())
    path = str(tmp_path / "erm.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(model.backbone.params(), loaded.backbone.params()):
        assert np.array_equal(a, b)
    assert loaded.seed == model.seed
    x = ds.features[:5]
    assert np.array_equal(model.predict_proba(x), loaded.predict_proba(x))


def test_run_uses_config_output_dir(tmp_path):
    out_dir = tmp_path / "configured"
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG + f"\noutput_dir = {out_dir}\n")
    assert main(["run", "--config", str(path)]) == 0
    assert (out_dir / "report_5.json").exists()


def test_run_output_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.replace("hyper.epochs = 3", "hyper.epochs = 2"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    one_thread = dict(base, OPENBLAS_NUM_THREADS="1")
    default = {k: v for k, v in base.items() if k != "OPENBLAS_NUM_THREADS"}
    outputs = []
    for name, env in (("one", one_thread), ("default", default)):
        out = tmp_path / name
        code = "import sys; from fairexperts.cli import main; sys.exit(main(sys.argv[1:]))"
        cmd = [sys.executable, "-c", code, "run", "--config", str(path), "--out-dir", str(out)]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert outputs[0] and outputs[0] == outputs[1]


METRICS_JSON = json.dumps(
    {"metric_kind": "accuracy", "split": "val", "values": [0.85, 0.8, 0.6],
     "proportions": [0.5, 0.3, 0.2]}
).encode()


@settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.generate])
@given(
    expert=mutated_bytes(METRICS_JSON, b'{}[]",:.-e019 '),
    erm=mutated_bytes(METRICS_JSON, b'{}[]",:.-e019 '),
    strategy=st.sampled_from(("greedy", "ip")),
)
def test_select_on_mutated_metrics_files_exits_0_or_2(tmp_path_factory, expert, erm, strategy):
    base = tmp_path_factory.getbasetemp()
    (base / "expert.json").write_bytes(expert)
    (base / "erm.json").write_bytes(erm)
    argv = ["select", "--strategy", strategy, "--expert", str(base / "expert.json"),
            "--erm", str(base / "erm.json"), "--out", str(base / "decision.json")]
    assert main(argv) in (0, 2)
