import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from fairexperts import config as config_module
from fairexperts.config import (
    ConfigError,
    CsvSource,
    ExperimentConfig,
    config_from_dict,
    load_config,
    parse_kv_text,
)
from fairexperts.data import DataError, SyntheticConfig

from helpers import mutated_bytes

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = ROOT / "configs" / "group_shift.cfg"

MINIMAL = """
version = 1
seeds = 11, 12
metric = accuracy
strategies = greedy, ip
lambda_sel = 0.1

data.kind = synthetic
data.seed = 7
data.d = 2
data.classes = 2
data.groups = 2
data.mean.g0.c0 = -1, 0
data.mean.g0.c1 = 1, 0
data.mean.g1.c0 = -1, 2
data.mean.g1.c1 = 1, 2
data.std.g0.c0 = 0.5
data.std.g0.c1 = 0.5
data.std.g1.c0 = 0.5
data.std.g1.c1 = 0.5
data.count.train.g0 = 20
data.count.train.g1 = 20
data.count.val.g0 = 10
data.count.val.g1 = 10
data.count.test.g0 = 10
data.count.test.g1 = 10

hyper.epochs = 2
hyper.batch_size = 8
"""

CSV_SOURCE = """
version = 1
seeds = 3
data.kind = csv
data.path = somewhere.csv
data.d = 4
data.classes = 2
data.groups = 3
data.split_column = none
data.split_seed = 9
"""

CSV_FEATURES = """
version = 1
seeds = 3
data.kind = csv
data.path = somewhere.csv
data.classes = 2
data.groups = 2
data.features = age, income, height
data.label_column = target
data.group_column = cohort
"""


def test_parse_kv_text_basics():
    kv = parse_kv_text("# comment\na = 1\n\nb.c = x, y\n")
    assert kv == {"a": "1", "b.c": "x, y"}


def test_parse_kv_text_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_kv_text("just some text\n")


def test_minimal_synthetic_config_parses():
    config = config_from_dict(parse_kv_text(MINIMAL))
    assert config.seeds == (11, 12)
    assert config.metric == "accuracy"
    assert config.strategies == ("greedy", "ip")
    assert isinstance(config.data, SyntheticConfig)
    assert config.data.means.shape == (2, 2, 2)
    assert config.hyper.epochs == 2
    assert config.hyper.lambda_disc == 0.05  # default preserved
    assert config.raw["data.seed"] == "7"


def unknown_keys(keys, kind="synthetic", groups=2, classes=2) -> str:
    """The error a config with unread ``keys`` raises, escaped for ``match``."""
    return re.escape(
        f"unknown config keys for data.kind = {kind}, data.groups = {groups} "
        f"and data.classes = {classes}: {list(keys)}"
    )


def test_config_rejects_unknown_keys():
    # the last two were options of the expert objective, which has one form now
    for line in (
        "hyper.turbo = 9",
        "hyper.negative_rule = different_both",
        "hyper.alignment_mode = all_groups",
    ):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=unknown_keys([key])):
            config_from_dict(parse_kv_text(MINIMAL + f"\n{line}\n"))


def readme_config_keys() -> list[str]:
    """Keys in the README's configuration table; ``a.b/c`` means a.b and a.c."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format")[1].split("\n## ")[0]
    keys = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
            head, _, tail = span.rpartition(".")
            keys += [f"{head}.{name}".lstrip(".") for name in tail.split("/")]
    return keys


def keys_read(kv, monkeypatch) -> set[str]:
    """Every key that parsing ``kv`` looks up, present in it or not."""
    recorders = []

    class Recorder(config_module._Reads):
        def __init__(self, kv):
            super().__init__(kv)
            recorders.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(config_module, "_Reads", Recorder)
        config_from_dict(kv)
    return recorders[0].read


def test_readme_config_table_lists_exactly_the_accepted_keys(monkeypatch):
    # the parse accepts the keys it looks up, set or not; one config of each
    # kind, with 2 groups and 2 classes, and no data.features, so that the
    # CSV parse looks up data.d as well
    synthetic = parse_kv_text(MINIMAL)
    csv = {key: synthetic[key] for key in ("version", "seeds", "data.d", "data.classes", "data.groups")}
    csv.update({"data.kind": "csv", "data.path": "x.csv"})
    read = keys_read(synthetic, monkeypatch) | keys_read(csv, monkeypatch)
    documented = {
        key.replace("<A>", str(g)).replace("<Y>", str(c)).replace("<split>", split)
        for key in readme_config_keys()
        for g in range(2)
        for c in range(2)
        for split in ("train", "val", "test")
    }
    assert documented == read


def test_config_rejects_cell_keys_outside_the_declared_groups_and_classes():
    kv = parse_kv_text(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    assert (kv["data.groups"], kv["data.classes"]) == ("2", "2")
    config_from_dict(kv)
    extra = {"data.mean.g2.c0": "0, 0", "data.count.train.g5": "10", "data.std.g0.c7": "1"}
    with pytest.raises(ConfigError, match=unknown_keys(extra)):
        config_from_dict({**kv, **extra})
    for key, value in extra.items():
        with pytest.raises(ConfigError, match=unknown_keys([key])):
            config_from_dict({**kv, key: value})


def test_synthetic_config_rejects_csv_keys():
    for line in ("data.path = x.csv", "data.split_seed = 3", "data.label_column = y"):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=unknown_keys([key])):
            config_from_dict(parse_kv_text(MINIMAL + f"\n{line}\n"))


def test_csv_config_rejects_synthetic_keys():
    kv = parse_kv_text(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    kv.update({"data.kind": "csv", "data.path": "x.csv"})
    synthetic = [key for key in kv if key.startswith(("data.seed", "data.mean.", "data.std.", "data.count."))]
    assert len(synthetic) == 1 + 4 + 4 + 6
    with pytest.raises(ConfigError, match=unknown_keys(synthetic, kind="csv")):
        config_from_dict(kv)
    # data.d, data.classes and data.groups serve both kinds
    config = config_from_dict({key: value for key, value in kv.items() if key not in synthetic})
    assert config.data.schema.feature_columns == 10  # f0..f9, named against the file's header


def test_checked_in_and_benchmark_configs_have_no_unread_key():
    # a benchmark config with an unread key would fail every benchmark run
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "configs").iterdir())]
    for tiny in (False, True):
        texts.append(workloads.reference_config(workloads.DEFAULT_SEED, tiny))
        texts.append(workloads.heldout_config(workloads.DEFAULT_SEED, tiny))
    for text in texts:
        config_from_dict(parse_kv_text(text))


def test_csv_config_rejects_data_d_beside_data_features():
    # the feature list fixes the width, so data.d would go unread
    text = CSV_FEATURES + "data.d = 3\n"
    with pytest.raises(ConfigError, match=unknown_keys(["data.d"], kind="csv")):
        config_from_dict(parse_kv_text(text))


def test_unknown_keys_are_reported_after_value_errors():
    text = MINIMAL.replace("metric = accuracy", "metric = f1") + "hyper.turbo = 9\n"
    with pytest.raises(ConfigError, match="^metric must be accuracy or auc, got 'f1'$"):
        config_from_dict(parse_kv_text(text))


@pytest.mark.parametrize(
    "key, value, message",
    [
        # sizes that numpy could not allocate: the cell keys run out first
        ("data.groups", "100000000000", "missing required key 'data.mean.g2.c0'"),
        ("data.d", "100000000000", "data.mean.g0.c0: expected 100000000000 values, got 10"),
        ("data.d", "-1", "data.d must be at least 1, got -1"),
        ("data.groups", "-1", "data.groups must be at least 1, got -1"),
        ("data.classes", "0", "data.classes must be at least 1, got 0"),
        ("data.seed", "-1", "data.seed must be at least 0, got -1"),
    ],
)
def test_config_names_the_key_of_a_size_or_seed_out_of_range(key, value, message):
    kv = parse_kv_text(REFERENCE_CONFIG.read_text(encoding="utf-8"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict({**kv, key: value})


@pytest.mark.parametrize("key", ["data.d", "data.split_seed"])
def test_csv_config_names_the_key_of_a_width_or_seed_out_of_range(key):
    text = CSV_SOURCE.replace(f"{key} = ", f"{key} = -")
    low = 1 if key == "data.d" else 0
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be at least {low}, got -"):
        config_from_dict(parse_kv_text(text))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("data.std.g1.c0", "nan", "group 1, class 0: standard deviation must be finite and positive, got nan"),
        ("data.std.g0.c1", "inf", "group 0, class 1: standard deviation must be finite and positive, got inf"),
        ("data.mean.g1.c1", "1, nan", "group 1, class 1: mean must be finite, got [1.0, nan]"),
        ("data.mean.g0.c0", "-inf, 0", "group 0, class 0: mean must be finite, got [-inf, 0.0]"),
    ],
)
def test_config_rejects_non_finite_means_and_stds(key, value, message):
    kv = parse_kv_text(MINIMAL)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        config_from_dict({**kv, key: value})


@pytest.mark.parametrize("key", ["seeds", "data.mean.g1.c0"])
def test_a_missing_list_key_is_named_as_missing(key):
    kv = parse_kv_text(MINIMAL)
    del kv[key]
    with pytest.raises(ConfigError, match=f"^missing required key '{re.escape(key)}'$"):
        config_from_dict(kv)


def test_config_rejects_bad_version():
    text = MINIMAL.replace("version = 1", "version = 2")
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(parse_kv_text(text))


def test_config_requires_mean_vector_length():
    text = MINIMAL.replace("data.mean.g0.c0 = -1, 0", "data.mean.g0.c0 = -1")
    with pytest.raises(ConfigError, match="expected 2 values"):
        config_from_dict(parse_kv_text(text))


def test_config_rejects_unknown_metric_and_strategy():
    with pytest.raises(ConfigError, match="metric"):
        config_from_dict(parse_kv_text(MINIMAL.replace("metric = accuracy", "metric = f1")))
    with pytest.raises(ConfigError, match="strategy"):
        config_from_dict(
            parse_kv_text(MINIMAL.replace("strategies = greedy, ip", "strategies = random"))
        )


def test_config_rejects_invalid_hyperparameters():
    cases = [
        ("hyper.epochs = 2", "hyper.epochs = 2\nhyper.lr0 = -1", "hyper"),
        ("hyper.epochs = 2", "hyper.epochs = 2\nhyper.hidden_dim = 0", "hidden_dim"),
        ("hyper.epochs = 2", "hyper.epochs = 2\nhyper.repr_dim = 0", "repr_dim"),
        ("hyper.epochs = 2", "hyper.epochs = 2\nhyper.hidden_dim = -3", "hidden_dim"),
        ("seeds = 11, 12", "seeds = 11, -1", "seeds must be nonnegative"),
        ("seeds = 11, 12", "seeds = 11, 11, 12", "seeds must be distinct, got 11, 11, 12"),
    ]
    for old, new, match in cases:
        with pytest.raises(ConfigError, match=match):
            config_from_dict(parse_kv_text(MINIMAL.replace(old, new)))


def test_config_rejects_repeated_strategies():
    text = MINIMAL.replace("strategies = greedy, ip", "strategies = greedy, greedy")
    assert text != MINIMAL
    with pytest.raises(ConfigError, match="strategies must be distinct, got greedy, greedy"):
        config_from_dict(parse_kv_text(text))


def test_bad_hyperparameter_named_does_not_depend_on_hash_seed():
    # three unparsable hyperparameters; the first in HyperParams' field
    # order is reported, whatever order a set of names would iterate in
    text = MINIMAL + "hyper.lr_decay = y\nhyper.batch_size = x\nhyper.epochs = z\n"
    text = text.replace("hyper.epochs = 2\nhyper.batch_size = 8\n", "")
    script = (
        "import sys\n"
        "from fairexperts.config import ConfigError, config_from_dict, parse_kv_text\n"
        "try:\n"
        "    config_from_dict(parse_kv_text(sys.stdin.read()))\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], input=text, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "hyper.lr_decay: expected a number, got 'y'\n"


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_config_rejects_invalid_lambda_sel(value):
    text = MINIMAL.replace("lambda_sel = 0.1", f"lambda_sel = {value}")
    with pytest.raises(ConfigError, match="lambda_sel"):
        config_from_dict(parse_kv_text(text))


@pytest.mark.parametrize("line", ["hyper.lambda_disc = nan", "hyper.lr0 = inf"])
def test_config_rejects_non_finite_hyperparameters(line):
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        config_from_dict(parse_kv_text(MINIMAL + f"\n{line}\n"))


def test_csv_source_config():
    config = config_from_dict(parse_kv_text(CSV_SOURCE))
    assert isinstance(config.data, CsvSource)
    assert config.data.schema.feature_columns == 4  # f0..f3, named against the file's header
    assert config.data.schema.split_column is None
    assert config.data.schema.split_seed == 9
    assert config.strategies == ("greedy", "ip")
    assert config.lambda_sel == 0.1


def test_csv_source_keeps_data_d_as_a_count():
    # a d far beyond any header costs nothing until the header is read
    text = CSV_SOURCE.replace("data.d = 4", "data.d = 1000000")
    tracemalloc.start()
    try:
        config = config_from_dict(parse_kv_text(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert config.data.schema.feature_columns == 1000000
    assert peak < 1 << 20


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("/nonexistent/config.cfg")


def test_repo_reference_config_parses():
    config = load_config("configs/group_shift.cfg")
    assert config.seeds == (11, 12, 13)
    assert isinstance(config.data, SyntheticConfig)
    assert config.data.counts["train"] == (3200, 800)
    assert np.all(config.data.stds > 0)
    assert config.hyper.epochs == 30


def test_csv_source_with_custom_feature_list():
    config = config_from_dict(parse_kv_text(CSV_FEATURES))
    assert config.data.schema.feature_columns == ("age", "income", "height")
    assert config.data.schema.label_column == "target"
    assert config.data.schema.group_column == "cohort"


@settings(max_examples=100, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=mutated_bytes(REFERENCE_CONFIG.read_bytes(), b"=#,.-\n e019"))
def test_load_config_on_mutated_bytes_loads_or_raises_data_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.cfg"
    path.write_bytes(data)
    try:
        config = load_config(str(path))
    except DataError:
        pass
    else:
        assert isinstance(config, ExperimentConfig)
