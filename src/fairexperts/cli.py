"""Command-line interface.

Subcommands: gen-data, train, evaluate, select, export-repr, run.
Exit codes: 0 success, 1 usage error, 2 data/config error, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint, save_checkpoint
from .config import CsvSource, ExperimentConfig, load_config
from .data import SPLITS, CsvSchema, DataError, read_json_object, save_csv, write_json
from .experiment import (
    dataset_for_seed,
    run_experiment,
    train_models,
    write_representations_csv,
    write_training_log,
)
from .metrics import METRIC_KINDS, GroupMetrics, build_report
from .net import TrainingDivergence
from .selection import select_greedy, select_ip
from .training import representation_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _load_config(args) -> ExperimentConfig:
    config = load_config(args.config)
    if getattr(args, "data_csv", None):
        if isinstance(config.data, CsvSource):
            schema = config.data.schema
        else:
            schema = CsvSchema(config.data.d, config.data.classes, config.data.groups)
        config = replace(config, data=CsvSource(args.data_csv, schema))
    return config


def _seed(args, config: ExperimentConfig) -> int:
    return args.seed if args.seed is not None else config.seeds[0]


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as JSON to ``out``, or print it when no file is given."""
    if out:
        write_json(payload, out)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    dataset = dataset_for_seed(config, _seed(args, config))
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n} rows to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    seed = _seed(args, config)
    os.makedirs(args.out_dir, exist_ok=True)
    _, erm, decoupled, experts = train_models(config, seed)
    for name, model in (("erm", erm), ("decoupled", decoupled), ("experts", experts)):
        save_checkpoint(model, os.path.join(args.out_dir, f"{name}_{seed}.json"))
    write_training_log(experts, os.path.join(args.out_dir, f"training_log_{seed}.csv"))
    print(f"wrote checkpoints for seed {seed} to {args.out_dir}")
    return EXIT_OK


def _model_and_data(args, config: ExperimentConfig):
    """The checkpoint's model and the seed's dataset, checked to share an input width."""
    model = load_checkpoint(args.checkpoint)
    dataset = dataset_for_seed(config, _seed(args, config))
    if model.backbone.in_dim != dataset.d:
        raise DataError(
            f"checkpoint {args.checkpoint!r} takes {model.backbone.in_dim} input features, "
            f"but data.d is {dataset.d}"
        )
    return model, dataset


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    model, dataset = _model_and_data(args, config)
    kind = args.metric or config.metric
    _emit(build_report(model.predict_proba, dataset, args.split, kind), args.out)
    return EXIT_OK


def _read_group_metrics(path: str) -> GroupMetrics:
    payload = read_json_object(path, "metrics file")
    try:
        return GroupMetrics.from_dict(payload)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"metrics file {path!r} is malformed: {exc}") from None


def cmd_select(args) -> int:
    expert = _read_group_metrics(args.expert)
    erm = _read_group_metrics(args.erm)
    if args.strategy == "greedy":
        decision = select_greedy(expert, erm)
    else:
        decision = select_ip(expert, erm, args.lambda_sel)
    _emit(decision.to_dict(), args.out)
    return EXIT_OK


def cmd_export_repr(args) -> int:
    config = _load_config(args)
    model, dataset = _model_and_data(args, config)
    blocks = representation_blocks(model, dataset, args.split)
    write_representations_csv(args.out, model.backbone.out_dim, blocks)
    print(f"wrote {dataset.cell_counts(args.split).sum()} representations to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args)
    out_dir = args.out_dir or config.output_dir
    if not out_dir:
        raise UsageError("no output directory: pass --out-dir or set output_dir in the config")
    run_experiment(config, out_dir)
    print(f"wrote experiment bundle for seeds {list(config.seeds)} to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairexperts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*flags, **kwargs):
        # one option, shared by the subcommands that list it as a parent
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    checkpoint = option("--checkpoint", required=True)
    config = option("--config", required=True)
    seed = option("--seed", type=int, default=None, help="run seed (default: first config seed)")
    data_csv = option("--data-csv", default=None, help="override the data source with a CSV file")

    def add(name, func, parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("gen-data", cmd_gen_data, [config, seed], help="generate a synthetic dataset CSV")
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, [config, seed, data_csv], help="train all models for one seed")
    p.add_argument("--out-dir", required=True)

    p = add("evaluate", cmd_evaluate, [checkpoint, config, seed, data_csv],
            help="evaluate a checkpoint on a split")
    p.add_argument("--split", default="val", choices=SPLITS)
    p.add_argument("--metric", default=None, choices=METRIC_KINDS)
    p.add_argument("--out", default=None)

    p = add("select", cmd_select, [], help="run a selection strategy on stored group metrics")
    p.add_argument("--strategy", required=True, choices=("greedy", "ip"))
    p.add_argument("--lambda", dest="lambda_sel", type=float, default=0.1)
    p.add_argument("--expert", required=True, help="expert GroupMetrics/report JSON")
    p.add_argument("--erm", required=True, help="pooled GroupMetrics/report JSON")
    p.add_argument("--out", default=None)

    p = add("export-repr", cmd_export_repr, [checkpoint, config, seed, data_csv],
            help="export representations as CSV")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--out", required=True)

    p = add("run", cmd_run, [config, data_csv], help="run the full experiment over all config seeds")
    p.add_argument("--out-dir", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergence as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
