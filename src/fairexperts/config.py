"""Experiment configuration: a flat, versioned key-value text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Lists are comma separated. The full key reference lives in the README.
The parse is the vocabulary: ``config_from_dict`` records every key it
looks up, and a key of the config that it never looked up (a misspelt
key, a cell beyond ``data.groups`` x ``data.classes``, a key only the
other ``data.kind`` reads) is an error naming every such key, raised
once the values have parsed. A minimal synthetic config looks like::

    version = 1
    seeds = 11, 12, 13
    metric = accuracy
    strategies = greedy, ip
    lambda_sel = 0.1

    data.kind = synthetic
    data.seed = 1234
    data.d = 2
    data.classes = 2
    data.groups = 2
    data.mean.g0.c0 = -2, 0
    data.mean.g0.c1 = 2, 0
    data.mean.g1.c0 = -2, 3
    data.mean.g1.c1 = 2, 3
    data.std.g0.c0 = 0.5
    ...
    data.count.train.g0 = 400
    ...
    hyper.epochs = 30
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import CsvSchema, DataError, SPLITS, SyntheticConfig, non_utf8_line
from .metrics import METRIC_KINDS
from .training import HyperParams

CONFIG_VERSION = 1

# settable hyperparameters in declaration order, each parsed as the type of its default
_HYPER_FIELDS = {f.name: type(f.default) for f in fields(HyperParams) if f.name != "seed"}


class ConfigError(DataError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: CsvSchema


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...]
    metric: str
    strategies: tuple[str, ...]
    lambda_sel: float
    data: SyntheticConfig | CsvSource
    hyper: HyperParams
    output_dir: str | None
    raw: dict[str, str]


class _Reads(dict):
    """A config's keys; ``read`` collects every key that the parse looks up."""

    def __init__(self, kv: dict[str, str]) -> None:
        super().__init__(kv)
        self.read: set[str] = set()

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into an ordered mapping."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _require(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise ConfigError(f"missing required key {key!r}")
    return kv[key]


def _number(
    kv: dict[str, str], key: str, kind: type = int, default: float | None = None, low: float = -np.inf
):
    """``kind(kv[key])`` (int or float), at least ``low``, or ``default`` when
    the key is absent."""
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = kind(kv[key])
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {kv[key]!r}") from None
    if value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    return value


def _float_list(kv: dict[str, str], key: str) -> list[float]:
    parts = _require(kv, key).split(",")
    try:
        return [float(part) for part in parts]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers") from None


def _str_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _parse_synthetic(kv: dict[str, str], classes: int, groups: int) -> SyntheticConfig:
    d = _number(kv, "data.d", low=1)
    # every cell key is read before any array is sized from d, classes or groups
    means: list[list[float]] = []
    stds: list[float] = []
    for g in range(groups):
        for c in range(classes):
            vec = _float_list(kv, f"data.mean.g{g}.c{c}")
            if len(vec) != d:
                raise ConfigError(f"data.mean.g{g}.c{c}: expected {d} values, got {len(vec)}")
            means.append(vec)
            stds.append(_number(kv, f"data.std.g{g}.c{c}", float, 1.0))
    counts = {
        split: tuple(_number(kv, f"data.count.{split}.g{g}") for g in range(groups))
        for split in SPLITS
    }
    return SyntheticConfig(
        d=d,
        classes=classes,
        groups=groups,
        means=np.reshape(means, (groups, classes, d)),
        stds=np.reshape(stds, (groups, classes)),
        counts=counts,
        seed=_number(kv, "data.seed", low=0),
    )


def _parse_csv(kv: dict[str, str], classes: int, groups: int) -> CsvSource:
    path = _require(kv, "data.path")
    if "data.features" in kv:
        feature_columns = tuple(_str_list(kv["data.features"]))
    else:
        feature_columns = _number(kv, "data.d", low=1)  # f0..f{d-1}, named against the header
    split_column: str | None = kv.get("data.split_column", "split")
    if split_column == "none":
        split_column = None
    schema = CsvSchema(
        feature_columns=feature_columns,
        classes=classes,
        groups=groups,
        label_column=kv.get("data.label_column", "label"),
        group_column=kv.get("data.group_column", "group"),
        split_column=split_column,
        split_seed=_number(kv, "data.split_seed", int, 0, low=0),
    )
    return CsvSource(path, schema)


def _parse_hyper(kv: dict[str, str]) -> HyperParams:
    kwargs = {
        name: _number(kv, f"hyper.{name}", kind)
        for name, kind in _HYPER_FIELDS.items()
        if f"hyper.{name}" in kv
    }
    try:
        return HyperParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid hyperparameters: {exc}") from None


def config_from_dict(config: dict[str, str]) -> ExperimentConfig:
    """Parse a config's keys; a key that the parse never looks up is an error."""
    kv = _Reads(config)
    version = _number(kv, "version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    seeds_text = _require(kv, "seeds")
    try:
        seeds = tuple(int(s) for s in _str_list(seeds_text))
    except ValueError:
        raise ConfigError("seeds: expected comma-separated integers") from None
    if not seeds:
        raise ConfigError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {', '.join(map(str, seeds))}")
    metric = kv.get("metric", "accuracy")
    if metric not in METRIC_KINDS:
        raise ConfigError(f"metric must be {' or '.join(METRIC_KINDS)}, got {metric!r}")
    strategies = tuple(_str_list(kv.get("strategies", "greedy, ip")))
    for s in strategies:
        if s not in ("greedy", "ip"):
            raise ConfigError(f"unknown selection strategy {s!r}")
    if not strategies:
        raise ConfigError("need at least one selection strategy")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies must be distinct, got {', '.join(strategies)}")
    kind = _require(kv, "data.kind")
    if kind not in ("synthetic", "csv"):
        raise ConfigError(f"data.kind must be synthetic or csv, got {kind!r}")
    classes, groups = _number(kv, "data.classes", low=1), _number(kv, "data.groups", low=1)
    parse_source = _parse_synthetic if kind == "synthetic" else _parse_csv
    source = parse_source(kv, classes, groups)
    lambda_sel = _number(kv, "lambda_sel", float, 0.1)
    if not 0 <= lambda_sel < np.inf:
        raise ConfigError(f"lambda_sel must be finite and nonnegative, got {lambda_sel!r}")
    parsed = ExperimentConfig(
        seeds=seeds,
        metric=metric,
        strategies=strategies,
        lambda_sel=lambda_sel,
        data=source,
        hyper=_parse_hyper(kv),
        output_dir=kv.get("output_dir"),
        raw=dict(config),
    )
    unread = [key for key in config if key not in kv.read]
    if unread:
        raise ConfigError(
            f"unknown config keys for data.kind = {kind}, data.groups = {groups} "
            f"and data.classes = {classes}: {unread}"
        )
    return parsed


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist") from None
    except UnicodeDecodeError as exc:
        line = non_utf8_line(path)
        raise ConfigError(
            f"config file {path!r}: line {line}: not UTF-8 text ({exc.reason})"
        ) from None
    return config_from_dict(parse_kv_text(text))
