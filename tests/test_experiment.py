import csv
import hashlib
import io
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from fairexperts import data, experiment
from fairexperts.config import config_from_dict, parse_kv_text
from fairexperts.data import (
    DataError,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    save_csv,
    write_csv,
)
from fairexperts.experiment import (
    dataset_for_seed,
    run_experiment,
    run_seed,
    write_representations_csv,
    write_training_log,
)
from fairexperts.net import APPLY_BLOCK, Mlp, init_mlp
from fairexperts.training import Model, representation_blocks

from helpers import load_interleaved_csv, predict_proba_oracle, separable_config, split_tags

SMALL = """
version = 1
seeds = {seeds}
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
data.count.train.g0 = 160
data.count.train.g1 = 80
data.count.val.g0 = 80
data.count.val.g1 = 40
data.count.test.g0 = 80
data.count.test.g1 = 40

hyper.epochs = 4
hyper.batch_size = 32
hyper.hidden_dim = 16
hyper.repr_dim = 4
"""


def small_config(seeds="5"):
    return config_from_dict(parse_kv_text(SMALL.format(seeds=seeds)))


def test_single_seed_bundle_and_zero_std(tmp_path):
    out = run_experiment(small_config("5"), str(tmp_path))
    assert len(out["reports"]) == 1
    report = out["reports"][0]
    agg = out["aggregate"]["aggregate"]
    assert agg["models"]["erm"]["val"]["mf"]["mean"] == report["models"]["erm"]["val"]["mf"]
    assert agg["models"]["erm"]["val"]["mf"]["std"] == 0.0
    for name in ("report_5.json", "training_log_5.csv", "representations_5.csv", "aggregate.json"):
        assert (tmp_path / name).exists()


def test_aggregate_mean_is_arithmetic_mean(tmp_path):
    out = run_experiment(small_config("5, 6, 7"), str(tmp_path))
    values = [r["models"]["experts"]["val"]["overall"] for r in out["reports"]]
    agg = out["aggregate"]["aggregate"]["models"]["experts"]["val"]["overall"]
    assert agg["mean"] == pytest.approx(float(np.mean(values)), abs=1e-12)
    assert agg["std"] == pytest.approx(float(np.std(values)), abs=1e-12)


def test_reports_embed_config_and_seed(tmp_path):
    out = run_experiment(small_config("5"), str(tmp_path))
    report = out["reports"][0]
    assert report["seed"] == 5
    assert report["config"]["data.seed"] == "99"
    assert report["metric_kind"] == "accuracy"


def test_no_harm_on_validation_in_reports(tmp_path):
    out = run_experiment(small_config("5, 6"), str(tmp_path))
    for report in out["reports"]:
        erm_val = report["models"]["erm"]["val"]["per_group"]
        for strategy in ("greedy", "ip"):
            routed_val = report["selection"][strategy]["val"]["per_group"]
            assert all(r >= e for r, e in zip(routed_val, erm_val))


def test_rerunning_a_seed_reproduces_files_byte_identically(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_experiment(small_config("5"), str(a_dir))
    run_experiment(small_config("5"), str(b_dir))
    for name in ("report_5.json", "training_log_5.csv", "representations_5.csv", "aggregate.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


RUN_DIGESTS = os.path.join(os.path.dirname(__file__), "golden", "run_seeds_1_3_8_sha256.json")


def test_run_files_match_their_pinned_sha256(tmp_path):
    # Seeds 1, 3 and 8 of the small config give mixed ip selections
    # (0, 1) and (1, 0), an all-pooled ip selection and all-expert greedy
    # selections, so every routing path writes report bytes. A byte change
    # in training, evaluation or routing fails here; regenerate the digests
    # only for a deliberate one.
    out = run_experiment(small_config("1, 3, 8"), str(tmp_path))
    ip_choices = [report["selection"]["ip"]["decision"]["choices"] for report in out["reports"]]
    assert ip_choices == [[0, 1], [1, 0], [0, 0]]
    with open(RUN_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path))
    }
    assert got == want


def test_a_run_on_shuffled_csv_rows_writes_the_bytes_of_those_rows_grouped_by_split(tmp_path):
    source = dataset_for_seed(small_config("5"), 5)
    shuffled = np.random.default_rng(0).permutation(source.n)
    grouped = shuffled[np.argsort(source.split[shuffled], kind="stable")]
    kv = {k: v for k, v in parse_kv_text(SMALL.format(seeds="5")).items()
          if not k.startswith(("data.mean.", "data.count.", "data.seed"))}
    path = tmp_path / "data.csv"
    kv.update({"data.kind": "csv", "data.path": str(path)})
    header = [f"f{i}" for i in range(source.d)] + ["label", "group", "split"]
    columns = [source.features, source.labels, source.groups, np.asarray(data.SPLITS)[source.split]]
    files = {}
    for name, order in (("shuffled", shuffled), ("grouped", grouped)):
        write_csv(str(path), header, [[column[order] for column in columns]])
        files[name] = path.read_bytes()
        run_experiment(config_from_dict(kv), str(tmp_path / name))
    names = sorted(os.listdir(tmp_path / "grouped"))
    assert names == sorted(os.listdir(tmp_path / "shuffled")) and len(names) == 4
    for name in names:
        assert (tmp_path / "shuffled" / name).read_bytes() == (tmp_path / "grouped" / name).read_bytes()
    assert files["shuffled"] != files["grouped"]

    # the loaded dataset holds, and save_csv writes, the rows grouped by split
    path.write_bytes(files["shuffled"])
    save_csv(dataset_for_seed(config_from_dict(kv), 5), str(tmp_path / "saved.csv"))
    assert (tmp_path / "saved.csv").read_bytes() == files["grouped"]


def test_dataset_for_seed_varies_by_run_seed():
    config = small_config("5, 6")
    a = dataset_for_seed(config, 5)
    b = dataset_for_seed(config, 6)
    a_again = dataset_for_seed(config, 5)
    assert not np.array_equal(a.features, b.features)
    assert np.array_equal(a.features, a_again.features)


def test_stage_errors_carry_stage_and_seed():
    text = """
version = 1
seeds = 4
data.kind = csv
data.path = /nonexistent/file.csv
data.d = 2
data.classes = 2
data.groups = 2
"""
    config = config_from_dict(parse_kv_text(text))
    with pytest.raises(DataError, match=r"stage=data seed=4"):
        run_seed(config, 4)


def test_training_log_csv_columns(tmp_path):
    run_experiment(small_config("5"), str(tmp_path))
    header = (tmp_path / "training_log_5.csv").read_text().splitlines()[0]
    assert header == "epoch,loss_cls,loss_disc,loss_virt,loss_div,lr"
    rows = (tmp_path / "training_log_5.csv").read_text().splitlines()[1:]
    assert len(rows) == 4  # one per epoch


def test_representations_csv_shape(tmp_path):
    run_experiment(small_config("5"), str(tmp_path))
    lines = (tmp_path / "representations_5.csv").read_text().splitlines()
    assert lines[0] == "z0,z1,z2,z3,label,group"
    assert len(lines) == 1 + 120  # test split size


def csv_writer_bytes(header, rows):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


# save_csv cuts 1,027 rows into two row_blocks of APPLY_BLOCK and 8,195 into nine
@pytest.mark.parametrize("rows", [0, 1, APPLY_BLOCK + 3, 8195])
def test_representations_csv_matches_csv_writer_bytes(tmp_path, rows, experts42):
    """Every CSV writer gives the bytes of the csv.writer loop it replaced."""
    rng = np.random.default_rng(rows)
    reps = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e300, -1e300, 0.1, 1 / 3, 1e16]
    reps.flat[: len(edge)] = edge[: reps.size]
    if rows:
        reps[-1] = [-0.0, 5e-324, 1e300]
    labels = rng.integers(0, 3, rows)
    groups = rng.integers(10**9 - 5, 10**9, rows)
    path = tmp_path / "out.csv"
    # two blocks, the first empty when rows < 3
    cut = rows // 3
    blocks = [(reps[:cut], labels[:cut], groups[:cut]), (reps[cut:], labels[cut:], groups[cut:])]
    write_representations_csv(str(path), 3, blocks)
    assert path.read_bytes() == csv_writer_bytes(
        ["z0", "z1", "z2", "label", "group"],
        ([*map(repr, row.tolist()), int(label), int(group)]
         for row, label, group in zip(reps, labels, groups)),
    )

    # save_csv on generated data and on interleaved split tags, their rows
    # repeated to the test's length (train rows come first in both)
    for source in (generate_synthetic(separable_config(seed=rows)), load_interleaved_csv(tmp_path)):
        arrays = [
            np.resize(a, (rows, *a.shape[1:]))
            for a in (source.features, source.labels, source.groups, source.split)
        ]
        arrays[0].flat[: len(edge)] = edge[: arrays[0].size]
        ds = Dataset(*arrays, source.classes, source.num_groups)
        save_csv(ds, str(path))
        tags = split_tags(ds)
        assert path.read_bytes() == csv_writer_bytes(
            [f"f{i}" for i in range(ds.d)] + ["label", "group", "split"],
            ([repr(float(v)) for v in ds.features[i]]
             + [int(ds.labels[i]), int(ds.groups[i]), str(tags[i])]
             for i in range(ds.n)),
        )

    assert len(experts42.log) > 1
    write_training_log(experts42, str(path))
    assert path.read_bytes() == csv_writer_bytes(
        ["epoch", "loss_cls", "loss_disc", "loss_virt", "loss_div", "lr"],
        ([e.epoch, *(repr(float(v)) for v in (e.loss_cls, e.loss_disc, e.loss_virt, e.loss_div, e.lr))]
         for e in experts42.log),
    )


def test_streamed_representations_csv_memory_does_not_grow_with_the_split(tmp_path):
    rng = np.random.default_rng(5)
    backbone = init_mlp([3, 32, 8], ["relu", "identity"], rng)
    model = Model("erm", backbone, [init_mlp([8, 2], ["identity"], rng)])
    peaks = []
    for blocks in (1, 4):
        per_group = blocks * APPLY_BLOCK // 2
        ds = generate_synthetic(SyntheticConfig(
            d=3, classes=2, groups=2, means=np.zeros((2, 2, 3)), stds=np.ones((2, 2)),
            counts={"train": (2, 2), "val": (1, 1), "test": (per_group, per_group)}, seed=3,
        ))
        path = tmp_path / f"streamed_{blocks}.csv"
        tracemalloc.start()
        try:
            write_representations_csv(str(path), 8, representation_blocks(model, ds, "test"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        whole = tmp_path / "whole.csv"
        features, labels, groups = ds.split_arrays("test")
        one_block = (model.representations(features), labels, groups)
        write_representations_csv(str(whole), 8, [one_block])
        assert path.read_bytes() == whole.read_bytes()
    # one block at a time; the whole split's representations would add
    # three blocks of APPLY_BLOCK x 8 floats (0.2 MB)
    assert peaks[1] < peaks[0] + APPLY_BLOCK * 8 * 8 / 2


def test_every_streamed_pass_takes_at_most_apply_block_rows_at_a_time(tmp_path, monkeypatch):
    """Past 8,192 rows, prediction, the exported representations, the
    dataset CSV and Dataset's cell counts each take at most APPLY_BLOCK
    rows at a time, with the bits of one pass over the whole input."""
    source = generate_synthetic(SyntheticConfig(
        d=10, classes=2, groups=3, means=np.zeros((3, 2, 10)), stds=np.ones((3, 2)),
        counts={"train": (100,) * 3, "val": (3_000,) * 3, "test": (10,) * 3}, seed=6,
    ))
    features, labels, groups = source.split_arrays("val")  # 9,000 rows
    rng = np.random.default_rng(6)
    backbone = init_mlp([10, 32, 8], ["relu", "identity"], rng)
    model = Model("decoupled", backbone, [init_mlp([8, 2], ["identity"], rng) for _ in range(3)])
    want_probs = predict_proba_oracle(model, features, groups)
    want_reps = backbone.forward(features)[0]
    whole = tmp_path / "whole.csv"
    header = [f"f{i}" for i in range(10)] + ["label", "group", "split"]
    write_csv(str(whole), header, [[source.features, source.labels, source.groups,
                                    split_tags(source)]])

    seen = {"forward": [], "cells": [], "csv": []}
    forward, bincount, write_block = Mlp.forward, np.bincount, data._write_block
    monkeypatch.setattr(Mlp, "forward", lambda self, x, cache=True: (
        seen["forward"].append(len(x)) or forward(self, x, cache)))
    monkeypatch.setattr(data, "_write_block", lambda fh, columns: (
        seen["csv"].append(len(columns[0])) or write_block(fh, columns)))

    probs = model.predict_proba(features, groups)
    assert np.array_equal(probs.view(np.int64), want_probs.view(np.int64))
    blocks = list(representation_blocks(model, source, "val"))
    assert max(len(z) for z, _, _ in blocks) <= APPLY_BLOCK
    reps = np.concatenate([z for z, _, _ in blocks])
    assert np.array_equal(reps.view(np.int64), want_reps.view(np.int64))
    save_csv(source, str(tmp_path / "blocks.csv"))
    assert (tmp_path / "blocks.csv").read_bytes() == whole.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(np, "bincount", lambda codes, minlength=0: (
            seen["cells"].append(len(codes)) or bincount(codes, minlength=minlength)))
        again = Dataset(source.features, source.labels, source.groups, source.split, 2, 3)
    for split in ("train", "val", "test"):
        assert np.array_equal(again.cell_counts(split), source.cell_counts(split))

    assert sum(seen["forward"]) == 2 * len(features)  # predict, then representations
    assert sum(seen["cells"]) == sum(seen["csv"]) == source.n == 9_330
    for name, rows in seen.items():
        assert max(rows) <= APPLY_BLOCK, name


def test_run_experiment_holds_one_seed_at_a_time(tmp_path, monkeypatch):
    held = []  # weak references to each finished seed's dataset and model

    def one_seed(config, seed):
        assert [ref() for ref in held] == [None] * len(held), "an earlier seed is still held"
        report, experts, dataset = run_seed(config, seed)
        held.extend((weakref.ref(dataset), weakref.ref(experts)))
        return report, experts, dataset

    monkeypatch.setattr(experiment, "run_seed", one_seed)
    run_experiment(small_config("5, 6, 7"), str(tmp_path))
    assert len(held) == 6


def test_run_seed_predicts_each_model_once_per_split(monkeypatch):
    calls = []  # (model kind, features, groups) of each prediction
    predict = Model.predict_proba

    def counted(model, features, groups=None):
        calls.append((model.kind, features, groups))
        return predict(model, features, groups)

    monkeypatch.setattr(Model, "predict_proba", counted)
    report, _, dataset = run_seed(small_config("5"), 5)
    # the model reports, the selection inputs and both strategies' routed
    # reports all read these six predictions
    assert [kind for kind, _, _ in calls] == ["decoupled", "erm", "experts"] * 2
    for (_, features, groups), split in zip(calls, ["val"] * 3 + ["test"] * 3):
        want_features, _, want_groups = dataset.split_arrays(split)
        assert np.array_equal(features, want_features) and np.array_equal(groups, want_groups)
    assert list(report["selection"]) == ["greedy", "ip"]


def test_report_json_is_sorted_and_plain(tmp_path):
    run_experiment(small_config("5"), str(tmp_path))
    payload = json.loads((tmp_path / "report_5.json").read_text())
    report = payload["models"]["experts"]["val"]
    assert isinstance(report["overall"], float)
    assert isinstance(report["per_group"], list)
    assert set(report) == {
        "metric_kind", "split", "overall", "per_group", "proportions",
        "mf", "gap", "eo", "selection",
    }


def test_run_seed_with_auc_metric(tmp_path):
    config = config_from_dict(
        parse_kv_text(SMALL.format(seeds="5").replace("metric = accuracy", "metric = auc"))
    )
    report, _, _ = run_seed(config, 5)
    assert report["metric_kind"] == "auc"
    erm_val = report["models"]["erm"]["val"]
    assert erm_val["metric_kind"] == "auc"
    assert all(0.0 <= v <= 1.0 for v in erm_val["per_group"])
    for strategy in ("greedy", "ip"):
        routed = report["selection"][strategy]["val"]["per_group"]
        assert all(r >= e for r, e in zip(routed, erm_val["per_group"]))


def test_training_log_values_parse_as_floats(tmp_path):
    run_experiment(small_config("5"), str(tmp_path))
    rows = (tmp_path / "training_log_5.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        int(fields[0])
        for value in fields[1:]:
            float(value)  # raises if any field is not a plain decimal


def test_bundle_regenerates_from_embedded_config(tmp_path):
    out = run_experiment(small_config("6"), str(tmp_path / "original"))
    report = out["reports"][0]
    embedded = config_from_dict(dict(report["config"]))
    rebuilt = run_experiment(embedded, str(tmp_path / "rebuilt"))
    a = (tmp_path / "original" / "report_6.json").read_bytes()
    b = (tmp_path / "rebuilt" / "report_6.json").read_bytes()
    assert a == b
