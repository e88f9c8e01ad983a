"""Experiment orchestration: train, evaluate, select, report.

For every seed in the config this trains the pooled baseline, the
decoupled-heads baseline, and the expert model; evaluates each per group
on the validation and test splits; runs the configured selection
strategies on validation metrics; evaluates the routed predictions; and
writes one JSON report per seed plus a mean/std aggregate. Each model
predicts each split once, split by split: its report, the selection
inputs and the routed reports all read those rows. Reruns of the
same seed reproduce all files byte for byte. This module only picks the
columns of each output file; ``data`` encodes them. Each CSV file is
written in ``net.row_blocks`` of at most ``APPLY_BLOCK`` rows, and the
representations file is computed one such block at a time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import rng as rngmod
from .config import CsvSource, ExperimentConfig
from .data import Dataset, generate_synthetic, load_csv, write_csv, write_json
from .metrics import build_report, group_eval
from .net import APPLY_BLOCK, row_blocks
from .selection import route, select_greedy, select_ip
from .training import (
    probe_group_accuracy,
    representation_blocks,
    train_decoupled,
    train_erm,
    train_experts,
)

REPORT_VERSION = 1


@contextmanager
def _stage(name: str, seed: int):
    """Tag any failure with the pipeline stage and seed it came from."""
    try:
        yield
    except MemoryError as exc:
        # numpy's allocation error prints its shape and dtype, not its args
        raise MemoryError(f"[stage={name} seed={seed}] {exc}") from exc
    except Exception as exc:
        exc.args = (f"[stage={name} seed={seed}] {exc}",) + exc.args[1:]
        raise


def dataset_for_seed(config: ExperimentConfig, seed: int) -> Dataset:
    """Materialize the data source for one run seed.

    Synthetic sources are redrawn with a seed derived from the base data
    seed and the run seed; CSV sources are re-split per run seed only
    when the file carries no split column.
    """
    if isinstance(config.data, CsvSource):
        schema = config.data.schema
        schema = replace(schema, split_seed=rngmod.derive_seed(schema.split_seed, seed))
        return load_csv(config.data.path, schema)
    return generate_synthetic(
        replace(config.data, seed=rngmod.derive_seed(config.data.seed, seed))
    )


def write_training_log(model, path: str) -> None:
    """Per-epoch losses of the expert model as CSV."""
    names = ("loss_cls", "loss_disc", "loss_virt", "loss_div", "lr")
    epochs = np.array([entry.epoch for entry in model.log])
    losses = np.array([[getattr(entry, name) for name in names] for entry in model.log])
    blocks = ([epochs[rows], losses[rows]] for rows in row_blocks(len(epochs), APPLY_BLOCK))
    write_csv(path, ["epoch", *names], blocks)


def write_representations_csv(path: str, width: int, blocks) -> None:
    """Representations, label and group per row, written block by block.

    ``blocks`` yields (representations, labels, groups) arrays, as
    ``training.representation_blocks`` does; representations have
    ``width`` columns.
    """
    header = [f"z{i}" for i in range(width)] + ["label", "group"]
    write_csv(path, header, blocks)


def _held(probs: np.ndarray):
    """A predictor that returns ``probs``, rows already predicted for a
    whole split, so a report reads them without predicting again."""
    return lambda features, groups: probs


def train_models(config: ExperimentConfig, seed: int):
    """The seed's dataset and its erm, decoupled and experts models.

    Each step runs in its ``_stage``, so a failure names the stage and
    the seed. Returns (dataset, erm, decoupled, experts).
    """
    with _stage("data", seed):
        dataset = dataset_for_seed(config, seed)
    hp = replace(config.hyper, seed=seed)
    with _stage("train-erm", seed):
        erm = train_erm(dataset, hp)
    with _stage("train-decoupled", seed):
        decoupled = train_decoupled(erm, dataset, hp)
    with _stage("train-experts", seed):
        experts = train_experts(dataset, hp)
    return dataset, erm, decoupled, experts


def run_seed(config: ExperimentConfig, seed: int):
    """Train, evaluate, and select for one seed.

    Each split is evaluated in turn, val then test, from one
    ``predict_proba`` call per model: six predictions per seed. Returns
    (report dict, trained expert model, dataset).
    """
    dataset, erm, decoupled, experts = train_models(config, seed)

    kind = config.metric
    models_section = {"erm": {}, "decoupled": {}, "experts": {}}
    selection_section = {}
    decisions = {}
    for split in ("val", "test"):
        features, _, groups = dataset.split_arrays(split)
        with _stage("evaluate", seed):
            # decoupled first, its rows released once reported: at most the
            # erm and experts rows are held at once
            models_section["decoupled"][split] = build_report(
                _held(decoupled.predict_proba(features, groups)), dataset, split, kind
            )
            erm_probs = erm.predict_proba(features, groups)
            models_section["erm"][split] = build_report(_held(erm_probs), dataset, split, kind)
            expert_probs = experts.predict_proba(features, groups)
            models_section["experts"][split] = build_report(
                _held(expert_probs), dataset, split, kind
            )
            if split == "val":
                expert_val = group_eval(_held(expert_probs), dataset, split, kind)
                erm_val = group_eval(_held(erm_probs), dataset, split, kind)

        with _stage("select", seed):
            if split == "val":
                for strategy in config.strategies:
                    if strategy == "greedy":
                        decisions[strategy] = select_greedy(expert_val, erm_val)
                    else:
                        decisions[strategy] = select_ip(expert_val, erm_val, config.lambda_sel)
                    selection_section[strategy] = {"decision": decisions[strategy].to_dict()}
            for strategy, decision in decisions.items():
                # a mixed decision's routed rows, a new array, go with its report
                selection_section[strategy][split] = build_report(
                    _held(route(decision, expert_probs, erm_probs, groups)),
                    dataset, split, kind, decision.to_dict(),
                )
        # or this split's rows stay alive while the next split predicts
        del erm_probs, expert_probs

    with _stage("probe", seed):
        probe_section = {
            "experts_accuracy": probe_group_accuracy(experts, dataset, seed),
            "erm_accuracy": probe_group_accuracy(erm, dataset, seed),
        }

    report = {
        "format_version": REPORT_VERSION,
        "seed": seed,
        "config": dict(config.raw),
        "metric_kind": kind,
        "models": models_section,
        "selection": selection_section,
        "probe": probe_section,
        "training": {
            "epochs": config.hyper.epochs,
            "final_lr": experts.log[-1].lr,
            "final_loss_cls": experts.log[-1].loss_cls,
        },
    }
    return report, experts, dataset


def _aggregate(reports: list[dict]) -> dict:
    """Mean/std (population) over the numeric leaves of per-seed reports."""

    def walk(values: list):
        first = values[0]
        if isinstance(first, dict):
            return {
                k: walk([v[k] for v in values])
                for k in first
                if k not in ("config", "seed", "format_version")
            }
        if isinstance(first, list):
            return [walk([v[i] for v in values]) for i in range(len(first))]
        if isinstance(first, bool) or not isinstance(first, (int, float)):
            return first
        if any(v is None for v in values):
            return None
        arr = np.asarray(values, dtype=np.float64)
        return {"mean": float(arr.mean()), "std": float(arr.std())}

    return walk(reports)


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Run every seed and write the report bundle into ``out_dir``.

    Files written: ``report_<seed>.json``, ``training_log_<seed>.csv``,
    ``representations_<seed>.csv`` (expert model, test split), and
    ``aggregate.json``. Returns the per-seed reports plus the aggregate.
    """
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    for seed in config.seeds:
        report, experts, dataset = run_seed(config, seed)
        write_json(report, os.path.join(out_dir, f"report_{seed}.json"))
        write_training_log(experts, os.path.join(out_dir, f"training_log_{seed}.csv"))
        write_representations_csv(
            os.path.join(out_dir, f"representations_{seed}.csv"),
            experts.backbone.out_dim,
            representation_blocks(experts, dataset, "test"),
        )
        reports.append(report)
        # or this seed's model and data stay alive while the next seed runs
        del experts, dataset
    aggregate = {
        "format_version": REPORT_VERSION,
        "seeds": list(config.seeds),
        "aggregate": _aggregate(reports),
    }
    write_json(aggregate, os.path.join(out_dir, "aggregate.json"))
    return {"reports": reports, "aggregate": aggregate}
