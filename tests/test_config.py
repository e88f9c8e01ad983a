import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairexperts.config import (
    _DATA_KEYS,
    _DATA_PATTERNS,
    _HYPER_FIELDS,
    _TOP_KEYS,
    ConfigError,
    CsvSource,
    _known_key,
    config_from_dict,
    load_config,
    parse_kv_text,
)
from fairexperts.data import SyntheticConfig

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


def test_config_rejects_unknown_keys():
    # the last two were options of the expert objective, which has one form now
    for line in (
        "hyper.turbo = 9",
        "hyper.negative_rule = different_both",
        "hyper.alignment_mode = all_groups",
    ):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown config keys: .*{re.escape(key)}"):
            config_from_dict(parse_kv_text(MINIMAL + f"\n{line}\n"))


def readme_config_keys() -> list[str]:
    """Keys in the README's configuration table; ``a.b/c`` means a.b and a.c."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format")[1].split("\n## ")[0]
    keys = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
            head, _, tail = span.rpartition(".")
            keys += [f"{head}.{name}".lstrip(".") for name in tail.split("/")]
    return keys


def test_readme_config_table_lists_exactly_the_accepted_keys():
    documented = readme_config_keys()
    exact = {key for key in documented if "<" not in key}
    assert exact == _TOP_KEYS | _DATA_KEYS | {f"hyper.{name}" for name in _HYPER_FIELDS}
    instances = [
        key.replace("<A>", "1").replace("<Y>", "0").replace("<split>", split)
        for key in documented
        if "<" in key
        for split in ("train", "val", "test")
    ]
    assert all(_known_key(key) for key in [*exact, *instances])
    covered = {p.pattern for p in _DATA_PATTERNS for key in instances if p.match(key)}
    assert covered == {p.pattern for p in _DATA_PATTERNS}


def test_config_rejects_cell_keys_outside_the_declared_groups_and_classes():
    reference = (Path(__file__).resolve().parents[1] / "configs" / "group_shift.cfg").read_text(
        encoding="utf-8"
    )
    kv = parse_kv_text(reference)
    assert (kv["data.groups"], kv["data.classes"]) == ("2", "2")
    config_from_dict(kv)
    extra = {"data.mean.g2.c0": "0, 0", "data.count.train.g5": "10", "data.std.g0.c7": "1"}
    with pytest.raises(
        ConfigError,
        match=re.escape(f"config keys outside 2 groups and 2 classes: {list(extra)}"),
    ):
        config_from_dict({**kv, **extra})
    for key, value in extra.items():
        with pytest.raises(ConfigError, match=re.escape(f"classes: ['{key}']")):
            config_from_dict({**kv, key: value})


def test_synthetic_config_rejects_csv_keys():
    for line in ("data.path = x.csv", "data.split_seed = 3", "data.label_column = y"):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"data.kind = synthetic does not read keys: ['{key}']")):
            config_from_dict(parse_kv_text(MINIMAL + f"\n{line}\n"))


def test_csv_config_rejects_synthetic_keys():
    reference = (Path(__file__).resolve().parents[1] / "configs" / "group_shift.cfg").read_text(
        encoding="utf-8"
    )
    kv = parse_kv_text(reference)
    kv.update({"data.kind": "csv", "data.path": "x.csv"})
    synthetic = [key for key in kv if key.startswith(("data.seed", "data.mean.", "data.std.", "data.count."))]
    assert len(synthetic) == 1 + 4 + 4 + 6
    with pytest.raises(ConfigError, match=re.escape(f"data.kind = csv does not read keys: {synthetic}")):
        config_from_dict(kv)
    # data.d, data.classes and data.groups serve both kinds
    config = config_from_dict({key: value for key, value in kv.items() if key not in synthetic})
    assert config.data.schema.feature_columns == tuple(f"f{i}" for i in range(10))


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
    text = """
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
    config = config_from_dict(parse_kv_text(text))
    assert isinstance(config.data, CsvSource)
    assert config.data.schema.feature_columns == ("f0", "f1", "f2", "f3")
    assert config.data.schema.split_column is None
    assert config.data.schema.split_seed == 9
    assert config.strategies == ("greedy", "ip")
    assert config.lambda_sel == 0.1


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
    text = """
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
    config = config_from_dict(parse_kv_text(text))
    assert config.data.schema.feature_columns == ("age", "income", "height")
    assert config.data.schema.label_column == "target"
    assert config.data.schema.group_column == "cohort"
