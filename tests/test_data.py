import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from fairexperts import rng as rngmod
from fairexperts.data import (
    SPLIT_RATIOS,
    SPLITS,
    CsvSchema,
    DataError,
    Dataset,
    SyntheticConfig,
    _class_shares,
    _index_dtype,
    assign_splits,
    generate_synthetic,
    load_csv,
    save_csv,
    write_csv,
)
from fairexperts.metrics import group_eval
from fairexperts.net import APPLY_BLOCK

from helpers import (
    INTERLEAVED_TAGS,
    load_csv_oracle,
    load_interleaved_csv,
    mutated_bytes,
    separable_config,
    split_tags,
)


def blob_config(**overrides):
    base = dict(
        d=2,
        classes=2,
        groups=2,
        means=np.zeros((2, 2, 2)),
        stds=np.full((2, 2), 1.0),
        counts={"train": (20, 20), "val": (10, 10), "test": (10, 10)},
        seed=7,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def test_generate_synthetic_is_deterministic_for_a_seed():
    a = generate_synthetic(blob_config())
    b = generate_synthetic(blob_config())
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.split, b.split)


def generate_synthetic_oracle(config):
    """Per-cell draws joined with concatenate, the generator's former form."""
    gen = rngmod.stream(config.seed, rngmod.DATA)
    feats, labels, groups, split = [], [], [], []
    for split_name in SPLITS:
        for g in range(config.groups):
            shares = _class_shares(config.counts[split_name][g], config.classes)
            for c, n_cell in enumerate(shares):
                if n_cell == 0:
                    continue
                x = config.means[g, c] + config.stds[g, c] * gen.standard_normal(
                    (n_cell, config.d)
                )
                feats.append(x)
                # labels and groups in the narrowest type that holds their range
                labels.append(np.full(n_cell, c, dtype=np.min_scalar_type(config.classes - 1)))
                groups.append(np.full(n_cell, g, dtype=np.min_scalar_type(config.groups - 1)))
                split.append(np.full(n_cell, split_name, dtype="U5"))
    return tuple(map(np.concatenate, (feats, labels, groups, split)))


def test_generate_synthetic_matches_the_concatenating_oracle():
    rng = np.random.default_rng(6)
    configs = [
        blob_config(),
        separable_config(seed=3),
        # three classes and val/test counts below it: some cells get no rows
        SyntheticConfig(
            d=3,
            classes=3,
            groups=2,
            means=rng.standard_normal((2, 3, 3)),
            stds=rng.uniform(0.5, 2.0, (2, 3)),
            counts={"train": (7, 5), "val": (2, 1), "test": (1, 4)},
            seed=11,
        ),
    ]
    for cfg in configs:
        ds = generate_synthetic(cfg)
        want = generate_synthetic_oracle(cfg)
        for got, expected in zip((ds.features, ds.labels, ds.groups, split_tags(ds)), want):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def test_split_arrays_of_contiguous_splits_are_read_only_views():
    ds = generate_synthetic(separable_config(seed=4))
    for split in SPLITS:
        idx = np.flatnonzero(split_tags(ds) == split)
        arrays = ds.split_arrays(split)
        for got, full in zip(arrays, (ds.features, ds.labels, ds.groups)):
            assert np.shares_memory(got, full)
            assert not got.flags.writeable
            assert got.dtype == full.dtype and np.array_equal(got, full[idx])
        with pytest.raises(ValueError):
            arrays[0][0, 0] = 1.0


def test_dataset_leaves_the_callers_arrays_writable():
    features = np.zeros((2, 1))
    # already in the stored types, so nothing needs a copy
    labels = np.array([0, 1], dtype=np.uint8)
    groups = np.array([0, 0], dtype=np.uint8)
    split = np.array([0, 0], dtype=np.uint8)
    ds = Dataset(features, labels, groups, split, 2, 1)
    features[0, 0] = 1.0
    labels[0] = 1
    groups[0] = 0
    split[0] = 0
    for stored, given_array in zip((ds.features, ds.labels, ds.groups, ds.split),
                                   (features, labels, groups, split)):
        assert np.shares_memory(stored, given_array)  # a view, not a copy
        assert not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[0]


def test_interleaved_rows_are_grouped_by_split_and_each_split_is_a_view(tmp_path):
    ds = load_interleaved_csv(tmp_path)
    # helpers write file row i with f0 = i + 0.5
    file_rows = [np.flatnonzero(np.array(INTERLEAVED_TAGS) == split) for split in SPLITS]
    for split, want in zip(SPLITS, file_rows):
        arrays = ds.split_arrays(split)
        for got, full in zip(arrays, (ds.features, ds.labels, ds.groups)):
            assert np.shares_memory(got, full)
            assert not got.flags.writeable
        features, labels, groups = arrays
        assert np.array_equal(features[:, 0], want + 0.5)
        assert np.array_equal(labels, want % 3 // 2) and np.array_equal(groups, want // 2 % 2)
    # train, val and test rows in turn, each split's in file order
    assert np.array_equal(ds.features[:, 0], np.concatenate(file_rows) + 0.5)
    assert np.array_equal(ds.split, np.repeat([0, 1, 2], [len(rows) for rows in file_rows]))


def test_cell_counts_match_a_bincount_oracle(tmp_path):
    train_only = Dataset(np.zeros((4, 1)), [0, 1, 1, 0], [2, 0, 0, 1], [0] * 4, 2, 3)
    datasets = [
        generate_synthetic(separable_config(seed=4)),
        load_interleaved_csv(tmp_path),
        train_only,
    ]
    for ds in datasets:
        for split in SPLITS:
            mask = split_tags(ds) == split
            want = np.bincount(
                ds.groups[mask].astype(np.int64) * ds.classes + ds.labels[mask],
                minlength=ds.num_groups * ds.classes,
            ).reshape(ds.num_groups, ds.classes)
            got = ds.cell_counts(split)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable
    assert not train_only.cell_counts("val").any()
    with pytest.raises(DataError, match="unknown split 'dev'"):
        train_only.cell_counts("dev")


def test_write_csv_holds_one_block_while_the_next_is_computed(tmp_path):
    header = [f"z{i}" for i in range(8)]
    peaks = []
    for count in (1, 4):
        rng = np.random.default_rng(8)
        blocks = ([rng.standard_normal((APPLY_BLOCK, 8))] for _ in range(count))
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / f"blocks_{count}.csv"), header, blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # a block still held while the next is drawn and written adds
    # APPLY_BLOCK x 8 floats (64 KB)
    assert peaks[1] < peaks[0] + APPLY_BLOCK * 8 * 8 / 2


def test_cell_counts_of_more_cells_than_a_uint8_code_holds():
    # 130 groups x 2 classes are 260 cells, while each group is stored as uint8
    want = 1 + np.arange(260).reshape(130, 2) % 3
    groups, labels = np.divmod(np.repeat(np.arange(260), want.ravel()), 2)
    ds = Dataset(np.zeros((groups.size, 1)), labels, groups, np.zeros(groups.size, np.uint8), 2, 130)
    assert ds.groups.dtype == ds.labels.dtype == np.uint8
    assert np.array_equal(ds.cell_counts("train"), want)


def test_labels_and_groups_are_stored_in_the_narrowest_unsigned_type(tmp_path):
    features, split = np.zeros((2, 1)), np.zeros(2, np.uint8)
    for bound, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)):
        values = np.array([bound - 1, 0])
        by_class = Dataset(features, values, [0, 0], split, classes=bound, num_groups=1)
        by_group = Dataset(features, [0, 0], values, split, classes=1, num_groups=bound)
        assert by_class.labels.dtype == by_group.groups.dtype == dtype
        assert by_class.labels.tolist() == by_group.groups.tolist() == [bound - 1, 0]
    assert _index_dtype(2**32) == np.uint32 and _index_dtype(2**32 + 1) == np.uint64
    ds = generate_synthetic(blob_config())
    assert ds.labels.nbytes + ds.groups.nbytes == 2 * ds.n
    path = tmp_path / "wide.csv"
    path.write_text("f0,label,group\n1.0,0,0\n1.0,1,0\n")
    loaded = load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    assert loaded.labels.dtype == loaded.groups.dtype == np.uint8
    # a CSV value is checked before it is narrowed: 256 would wrap to 0
    path.write_text("f0,label,group\n1.0,0,0\n1.0,256,0\n")
    with pytest.raises(DataError, match="row 2: label 256 out of range"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    path.write_text("f0,label,group\n1.0,0,0\n1.0,1,257\n")
    with pytest.raises(DataError, match="row 2: group 257 out of range"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=2))


def test_dataset_takes_split_codes_only():
    features, labels, groups = np.zeros((4, 1)), [0, 1, 0, 1], [0, 0, 0, 0]
    codes = [0, 0, 1, 2]
    for split in (codes, np.array(codes, np.int8), np.array(codes, np.uint8)):
        ds = Dataset(features, labels, groups, split, 2, 1)
        assert ds.split.dtype == np.uint8 and ds.split.tolist() == codes
    # tags are a CSV file's form, decoded by load_csv
    tags = ["train", "train", "val", "test"]
    for split, dtype in ((tags, "<U5"), (np.array(tags, dtype=object), "object")):
        with pytest.raises(DataError, match=rf"^split must be integers, got dtype {dtype}$"):
            Dataset(features, labels, groups, split, 2, 1)
    with pytest.raises(DataError, match=r"^row 2: split code 3 out of range$"):
        Dataset(features, labels, groups, [0, 3, 1, -1], 2, 1)
    # codes are checked after labels and groups
    with pytest.raises(DataError, match=r"^row 4: label 9 out of range$"):
        Dataset(features, [0, 0, 0, 9], groups, [5] * 4, 2, 1)
    # an empty split holds no codes, whatever its dtype
    for split in ([], np.array([], dtype=str)):
        empty = Dataset(np.zeros((0, 1)), [], [], split, 2, 1)
        assert empty.split.dtype == np.uint8 and empty.split.shape == (0,)


def test_generated_and_assigned_splits_hold_one_byte_per_row(tmp_path):
    ds = generate_synthetic(separable_config(seed=4))
    assert ds.split.dtype == np.uint8 and ds.split.nbytes == ds.n
    assert assign_splits(ds.labels, ds.groups, seed=3).nbytes == ds.n
    path = str(tmp_path / "no_split.csv")
    write_csv(path, [f"f{i}" for i in range(ds.d)] + ["label", "group"], [[ds.features, ds.labels, ds.groups]])
    loaded = load_csv(path, CsvSchema(ds.d, ds.classes, ds.num_groups))
    assert loaded.split.dtype == np.uint8 and loaded.split.nbytes == loaded.n


def test_load_csv_files_each_row_under_the_split_its_tag_names(tmp_path):
    # the split column's text, or the per-cell tag oracle when the file has none
    ds = generate_synthetic(separable_config(seed=12))
    with_split, without = str(tmp_path / "with.csv"), str(tmp_path / "without.csv")
    save_csv(ds, with_split)
    write_csv(without, [f"f{i}" for i in range(ds.d)] + ["label", "group"], [[ds.features, ds.labels, ds.groups]])
    with open(with_split, newline="") as fh:
        file_tags = np.array([row["split"] for row in csv.DictReader(fh)])
    schema = CsvSchema(ds.d, ds.classes, ds.num_groups, split_seed=4)
    for path, tags in ((with_split, file_tags), (without, assign_splits_mask_per_cell(ds.labels, ds.groups, 4))):
        loaded = load_csv(path, schema)
        for split in SPLITS:
            rows = np.flatnonzero(tags == split)
            assert rows.size
            for got, full in zip(loaded.split_arrays(split), (ds.features, ds.labels, ds.groups)):
                assert np.array_equal(got, full[rows])


def test_load_csv_holds_no_fixed_width_copy_of_the_split_column(tmp_path):
    # one 50,000-character tag among 200 rows: a fixed-width str array of
    # the column would take 200 x 200 kB
    lines = ["f0,label,group,split"] + ["0.5,0,0,train"] * 199 + ["0.5,0,0," + "v" * 50_000]
    path = write_lines(tmp_path / "long_tag.csv", lines)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"row 200: unknown split tags: \['v{50000}'\]$"):
            load_csv(path, CsvSchema(("f0",), classes=1, groups=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_load_csv_names_unknown_tags_and_missing_cells(tmp_path):
    schema = CsvSchema(("f0",), classes=1, groups=1)
    cases = [
        (["train", "dev"], r"row 2: unknown split tags: \['dev'\]$"),
        # tags longer than five characters are checked whole, not cut first
        (["train", "trainx"], r"row 2: unknown split tags: \['trainx'\]$"),
        (["train", "validation"], r"row 2: unknown split tags: \['validation'\]$"),
        # the first row with an unknown tag, and every distinct one, sorted
        (["train", "test2", "val", "dev", "test2"],
         r"row 2: unknown split tags: \['dev', 'test2'\]$"),
    ]
    for tags, message in cases:
        lines = ["f0,label,group,split"] + [f"0.5,0,0,{tag}" for tag in tags]
        path = write_lines(tmp_path / "tags.csv", lines)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: {message}"):
            load_csv(path, schema)
    with pytest.raises(
        DataError, match=r"cells \[\(0, 1\), \(2, 0\)\] appear in test but not in train"
    ):
        Dataset(
            np.zeros((5, 1)),
            [0, 1, 0, 1, 1],
            [0, 0, 2, 1, 1],
            [0, 2, 2, 1, 0],
            classes=2,
            num_groups=3,
        )


def test_generate_synthetic_different_seed_differs():
    a = generate_synthetic(blob_config())
    b = generate_synthetic(blob_config(seed=8))
    assert not np.array_equal(a.features, b.features)


def test_symmetric_counts_give_equal_proportions():
    cfg = blob_config(counts={"train": (100, 100), "val": (100, 100), "test": (100, 100)})
    ds = generate_synthetic(cfg)
    for split in ("train", "val", "test"):
        assert np.allclose(group_proportions(ds, split), [0.5, 0.5], atol=0)


def test_cell_means_concentrate_around_configured_means():
    # +-2 on axis 0 for the classes; group 1 shifted by (0, +3); std 0.5;
    # 500 train samples per (group, class) cell
    means = np.array(
        [[[-2.0, 0.0], [2.0, 0.0]], [[-2.0, 3.0], [2.0, 3.0]]]
    )
    cfg = SyntheticConfig(
        d=2,
        classes=2,
        groups=2,
        means=means,
        stds=np.full((2, 2), 0.5),
        counts={"train": (1000, 1000), "val": (10, 10), "test": (10, 10)},
        seed=3,
    )
    ds = generate_synthetic(cfg)
    mask_train = split_tags(ds) == "train"
    for g in range(2):
        for c in range(2):
            cell = mask_train & (ds.groups == g) & (ds.labels == c)
            assert cell.sum() == 500
            empirical = ds.features[cell].mean(axis=0)
            assert np.abs(empirical - means[g, c]).max() < 0.1


def test_synthetic_config_validation():
    with pytest.raises(DataError):
        blob_config(counts={"train": (0, 20), "val": (10, 10), "test": (10, 10)})
    with pytest.raises(DataError):
        blob_config(stds=np.zeros((2, 2)))
    with pytest.raises(DataError):
        blob_config(means=np.zeros((2, 2, 5)))
    with pytest.raises(DataError):
        blob_config(counts={"train": (20,), "val": (10, 10), "test": (10, 10)})


def test_generate_synthetic_names_data_count_when_numpy_cannot_size_the_rows():
    # numpy refuses this row count before it allocates anything
    config = blob_config(counts={"train": (20, 99999999999999999999), "val": (10, 10), "test": (10, 10)})
    with pytest.raises(DataError, match=r"^data\.count: cannot allocate 100000000000000000059 rows: "):
        generate_synthetic(config)


def test_generate_synthetic_names_data_count_when_the_host_cannot_allocate(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setattr(np, "empty", out_of_memory)
    with pytest.raises(DataError, match=r"^data\.count: cannot allocate 80 rows: Unable to allocate"):
        generate_synthetic(blob_config())


def test_dataset_requires_every_eval_cell_in_train():
    features = np.zeros((3, 1))
    with pytest.raises(DataError):
        Dataset(
            features,
            np.array([0, 0, 1]),
            np.array([0, 0, 0]),
            np.array([0, 1, 1]),
            classes=2,
            num_groups=1,
        )


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(separable_config(seed=9))
    path = str(tmp_path / "data.csv")
    save_csv(ds, path)
    loaded = load_csv(path, CsvSchema(ds.d, ds.classes, ds.num_groups))
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.groups, ds.groups)
    assert np.array_equal(loaded.split, ds.split)


def test_load_csv_passthrough_of_explicit_split(tmp_path):
    path = tmp_path / "tiny.csv"
    rows = ["f0,label,group,split"]
    tags = ["train"] * 6 + ["val", "val", "test", "test"]
    for i, tag in enumerate(tags):
        rows.append(f"{i}.5,{i % 2},0,{tag}")
    path.write_text("\n".join(rows) + "\n")
    ds = load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    assert list(split_tags(ds)) == tags


def test_load_csv_assigns_8_1_1_split_when_column_missing(tmp_path):
    path = tmp_path / "hundred.csv"
    rows = ["f0,label,group"]
    for i in range(100):
        rows.append(f"{i}.0,{i % 2},0")  # two cells of 50 rows each
    path.write_text("\n".join(rows) + "\n")
    ds = load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1, split_seed=1))
    sizes = {s: int((split_tags(ds) == s).sum()) for s in ("train", "val", "test")}
    assert sizes == {"train": 80, "val": 10, "test": 10}


def test_load_csv_split_assignment_is_seeded(tmp_path):
    path = tmp_path / "data.csv"
    rows = ["f0,label,group"] + [f"{i}.0,{i % 2},{i % 3}" for i in range(60)]
    path.write_text("\n".join(rows) + "\n")
    schema = CsvSchema(("f0",), classes=2, groups=3, split_seed=5)
    a = load_csv(str(path), schema)
    b = load_csv(str(path), schema)
    assert np.array_equal(a.split, b.split)


def test_load_csv_reports_bad_feature_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label,group\n1.0,2.0,0,0\n1.0,oops,1,0\n")
    with pytest.raises(DataError, match=r"row 2.*f1.*oops"):
        load_csv(str(path), CsvSchema(("f0", "f1"), classes=2, groups=1))


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("f0,label\n1.0,0\n")
    with pytest.raises(DataError, match="missing columns"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))


def test_csv_schema_gives_each_column_one_role():
    cases = [
        (dict(feature_columns=("f0", "f1"), split_column="group"), "['group']"),
        (dict(feature_columns=("f0", "f1", "f0"), label_column="f1"), "['f0', 'f1']"),
        # a count stands for f0..f{d-1}, however large d is
        (dict(feature_columns=3, label_column="f2"), "['f2']"),
        (dict(feature_columns=10**18, group_column="f999"), "['f999']"),
    ]
    for kwargs, repeated in cases:
        with pytest.raises(DataError, match=re.escape(f"columns {repeated} are given more than one role")):
            CsvSchema(classes=2, groups=2, **kwargs)
    CsvSchema(3, classes=2, groups=2, label_column="f3", split_column=None)


def test_load_csv_names_the_first_missing_columns_of_a_count_and_counts_the_rest(tmp_path):
    # of f0..f{d-1} this header holds f0, f999 (for d above 999) and f1000
    # (for d above 1000); f01, f and f٣ are not such names
    path = write_lines(tmp_path / "narrow.csv", ["f0,f01,f,f٣,f999,f1000,label,group", "0,0,0,0,0,0,0,0"])
    cases = [
        (10**11, "['f1', 'f2', 'f3', 'f4', 'f5'] and 99999999992 more"),
        (1000, "['f1', 'f2', 'f3', 'f4', 'f5'] and 993 more"),
        (3, "['f1', 'f2']"),
    ]
    for d, missing in cases:
        with pytest.raises(DataError, match=re.escape(f"{path}: missing columns {missing}") + "$"):
            load_csv(path, CsvSchema(d, classes=2, groups=1))
    path = write_lines(tmp_path / "no_label.csv", ["f0,group", "0,0"])
    with pytest.raises(DataError, match=re.escape("['f1', 'f2', 'f3', 'f4', 'f5'] and 1 more") + "$"):
        load_csv(path, CsvSchema(6, classes=2, groups=1))
    # a count the header holds reads like the names it stands for
    path = write_lines(tmp_path / "wide.csv", ["f1,label,f0,group", "1.5,1,0.5,0"])
    ds = load_csv(path, CsvSchema(2, classes=2, groups=1))
    assert ds.features.tolist() == [[0.5, 1.5]] and ds.labels.tolist() == [1]


def test_load_csv_repeated_column(tmp_path):
    path = tmp_path / "repeated.csv"
    path.write_text("f0,f0,label,group\n1.0,2.0,0,0\n")
    with pytest.raises(DataError, match=r"repeated columns \['f0'\]$"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    # a repeated column the schema does not read is ignored
    path.write_text("f0,x,x,label,group\n1.0,2.0,3.0,0,0\n")
    assert load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1)).n == 1


def test_load_csv_reads_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "f0,label,group,split\n1.5,0,0,train\n2.5,1,0,train\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    schema = CsvSchema(("f0",), classes=2, groups=1)
    a, b = load_csv(str(plain), schema), load_csv(str(marked), schema)
    for name in ("features", "labels", "groups", "split"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("rows_before", [1, 5000], ids=["first_block", "past_first_block"])
def test_load_csv_names_the_line_that_is_not_utf8(tmp_path, rows_before):
    # the file is decoded in 8 KiB blocks; the error names the bad line,
    # not the last line the csv reader got before the block
    path = tmp_path / "latin.csv"
    body = "".join(f"{i}.5,0,0,train\n" for i in range(rows_before))
    path.write_bytes(("f0,label,group,split\n" + body).encode() + b"9.5,1,0,caf\xe9\n1.5,0,0,val\n")
    line = rows_before + 2
    with pytest.raises(DataError) as info:
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    assert str(info.value) == f"{path}: line {line}: not UTF-8 text (invalid continuation byte)"


VALID_CSV = (
    b"f0,f1,label,group,split\n"
    b"1.5,-2.25,0,0,train\n"
    b"0.5,3,1,0,train\n"
    b"-1e-3,2.5,0,1,train\n"
    b"4,0.125,1,1,val\n"
    b"2,1,0,1,test\n"
)


@settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=mutated_bytes(VALID_CSV, b',"\n\r .-e019'))
def test_load_csv_on_mutated_bytes_loads_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(data)
    try:
        dataset = load_csv(str(path), CsvSchema(("f0", "f1"), classes=2, groups=2))
    except DataError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(dataset, Dataset)


def test_load_csv_unknown_split_tag(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("f0,label,group,split\n1.0,0,0,dev\n")
    with pytest.raises(DataError, match="unknown split tag"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))


def test_load_csv_out_of_range_label_and_group(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("f0,label,group\n1.0,5,0\n")
    with pytest.raises(DataError, match="label 5 out of range"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))
    path.write_text("f0,label,group\n1.0,0,2\n")
    with pytest.raises(DataError, match="group 2 out of range"):
        load_csv(str(path), CsvSchema(("f0",), classes=2, groups=1))


def test_dataset_rejects_labels_and_groups_that_are_not_integers():
    features, split = np.zeros((3, 1)), [0] * 3
    with pytest.raises(DataError, match=r"^labels must be integers, got dtype float64$"):
        Dataset(features, np.array([0.5, 1.7, 0.2]), [0, 0, 0], split, classes=2, num_groups=1)
    with pytest.raises(DataError, match=r"^groups must be integers, got dtype <U1$"):
        Dataset(features, [0, 1, 0], np.array(["0", "0", "0"]), split, classes=2, num_groups=1)
    # an empty array has no values to be wrong, whatever its dtype
    empty = Dataset(np.zeros((0, 1)), [], np.array([]), [], classes=2, num_groups=1)
    assert empty.labels.dtype == empty.groups.dtype == np.uint8
    # any integer dtype is stored in the narrowest unsigned type of its range
    ds = Dataset(features, np.array([0, 1, 0], np.int64), np.zeros(3, np.int32), split, 2, 1)
    assert ds.labels.dtype == ds.groups.dtype == np.uint8 and ds.labels.tolist() == [0, 1, 0]


def test_dataset_names_the_first_row_at_fault():
    def build(features=((0.0,),) * 4, labels=(0, 1, 0, 1), groups=(0, 0, 0, 0), split=None):
        split = split or [0] * 4
        return Dataset(np.array(features), np.array(labels), np.array(groups), split, 2, 1)

    with pytest.raises(DataError, match=r"^row 3: features must be finite$"):
        build(features=((0.0,), (1.0,), (np.inf,), (np.nan,)))
    with pytest.raises(DataError, match=r"^row 2: label 5 out of range$"):
        build(labels=(0, 5, -1, 1))
    with pytest.raises(DataError, match=r"^row 4: group -1 out of range$"):
        build(groups=(0, 0, 0, -1))
    with pytest.raises(DataError, match=r"^row 2: split code 7 out of range$"):
        build(split=[0, 7, 1, 9])
    # the checks run in this order: finite, label, group, split code
    with pytest.raises(DataError, match="features must be finite"):
        build(features=((0.0,), (0.0,), (0.0,), (np.inf,)), labels=(9, 0, 0, 0))
    with pytest.raises(DataError, match="row 4: label 9"):
        build(labels=(0, 0, 0, 9), groups=(3, 0, 0, 0), split=[5] * 4)
    with pytest.raises(DataError, match="row 1: group 3"):
        build(groups=(3, 0, 0, 0), split=[5] * 4)


def test_dataset_rejects_zero_width_features():
    # training would divide by a zero fan-in, and min/max reduce no values
    for n in (4, 0):
        with pytest.raises(DataError, match=r"^features must have at least one column$"):
            Dataset(np.zeros((n, 0)), [0, 1, 0, 1][:n], [0] * n, [0] * n, 2, 1)
    # the shape is checked before its row count is read
    with pytest.raises(DataError, match=r"^features must be a 2-d matrix$"):
        Dataset(np.float64(5.0), [], [], [], 2, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_names_the_first_row_with_a_value_that_is_not_finite(bad):
    features = np.ones((5, 2))
    features[2, 1] = bad
    features[3, 0] = np.nan
    with pytest.raises(DataError, match=r"^row 3: features must be finite$"):
        Dataset(features, [0, 1, 0, 1, 0], [0] * 5, [0] * 5, 2, 1)


def test_dataset_checks_hold_one_block_at_any_size():
    peaks = []
    for n in (30_000, 120_000):
        features = np.random.default_rng(0).standard_normal((n, 10))
        labels = (np.arange(n) % 2).astype(np.uint8)
        groups = (np.arange(n) % 6).astype(np.uint8)
        split = np.repeat(np.arange(3, dtype=np.uint8), [n // 2, n // 4, n - n // 2 - n // 4])
        tracemalloc.start()
        try:
            Dataset(features, labels, groups, split, 2, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # one block of intp cell codes and numpy's cast buffer of as many; an
    # n x d finiteness mask alone would take 0.3 MB at 30,000 rows
    assert max(peaks) < 3 * APPLY_BLOCK * 8


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_csv_error_paths(tmp_path):
    schema = CsvSchema(("f0", "f1"), classes=2, groups=2)
    head = "f0,f1,label,group,split"
    cases = [
        ([head, "1,2,0,0,train", "1,2,0,train"], r"row 2 has 4 fields, expected 5$"),
        ([head, "1,2,0,0,train", ""], r"row 2 has 0 fields, expected 5$"),
        ([head, "1,2,0.5,0,train"], r"row 1, column 'label': non-int64 value '0.5'$"),
        ([head, "1,2,0,one,train"], r"row 1, column 'group': non-int64 value 'one'$"),
        (
            [head, "1,2,0,0,train", "1,2,99999999999999999999,0,train"],
            r"row 2, column 'label': non-int64 value '99999999999999999999'$",
        ),
        ([head, "1,2,0,0,train", "1,1e999,1,0,train"], r"row 2: features must be finite$"),
        ([head, "1,2,0,0,train", "1,2,0,0,dev"], r"row 2: unknown split tags: \['dev'\]$"),
        ([head, "1,2,0,1,train", "1,2,0,1,val", "1,2,1,0,test"],
         r"\(group, class\) cells \[\(0, 1\)\] appear in test but not in train$"),
    ]
    for lines, message in cases:
        path = write_lines(tmp_path / "bad.csv", lines)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: {message}"):
            load_csv(path, schema)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty.csv: empty file$"):
        load_csv(str(empty), schema)


def test_load_csv_reports_field_counts_then_columns_then_content(tmp_path):
    schema = CsvSchema(("f0", "f1"), classes=2, groups=2)
    head = "f0,f1,label,group,split"
    cases = [
        # a field count anywhere comes before any bad cell
        ([head, "x,2,0,0,train", "1,2,0,0"], "row 2 has 4 fields"),
        # columns in schema order: features, then label, then group
        ([head, "1,x,0,0,train", "x,2,0,0,train"], r"row 2, column 'f0'"),
        ([head, "1,2,x,0,train", "1,x,0,0,train"], r"row 2, column 'f1'"),
        ([head, "1,2,0,x,train", "1,2,x,0,train"], r"row 2, column 'label'"),
        # a conversion error before any content check, in any column
        ([head, "inf,2,5,0,dev", "1,2,0,x,train"], r"row 2, column 'group'"),
        # an unknown split tag is one too: it comes before any content check
        ([head, "1,2,0,0,dev", "1,2,0,7,train"], r"row 1: unknown split tags: \['dev'\]$"),
        # then the dataset's checks: finite, label, group
        ([head, "1,2,5,0,train", "nan,2,0,0,train"], "row 2: features must be finite"),
        ([head, "1,2,0,7,train", "1,2,5,0,train"], "row 2: label 5 out of range"),
        ([head, "1,2,0,1,val", "1,2,0,7,train"], "row 2: group 7 out of range"),
    ]
    for lines, message in cases:
        path = write_lines(tmp_path / "order.csv", lines)
        with pytest.raises(DataError, match=message):
            load_csv(path, schema)


def assert_same_arrays(got, want):
    for name in ("labels", "groups", "split"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.features.dtype == want.features.dtype == np.float64
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))


def test_load_csv_matches_the_per_row_oracle(tmp_path):
    ds = generate_synthetic(separable_config(seed=12))
    with_split, without = tmp_path / "with.csv", tmp_path / "without.csv"
    save_csv(ds, str(with_split))
    header = [f"f{i}" for i in range(ds.d)] + ["label", "group"]
    write_csv(str(without), header, [[ds.features, ds.labels, ds.groups]])
    schema = CsvSchema(ds.d, ds.classes, ds.num_groups, split_seed=4)
    for path in (with_split, without):
        assert_same_arrays(load_csv(str(path), schema), load_csv_oracle(str(path), schema))

    # cells that Python's float and int read in more than one way
    floats = ["-0.0", "5e-324", "1_0", " 2.5", "+3", "1e308", "-1E-5", "\t7 "]
    labels = ["0", "+1", " 2", "1_0", "-0", "3 ", "00", " +1"]
    groups = ["4", "0_1", "-0", "+2", " 3", "0", "04", "1"]  # val and test repeat train cells
    lines = ["f0,f1,label,group,split"]
    for i, tag in enumerate(["train"] * 6 + ["val", "test"]):
        lines.append(f"{floats[i]},{floats[-1 - i]},{labels[i]},{groups[i]},{tag}")
    write_lines(tmp_path / "edge.csv", lines)
    write_lines(tmp_path / "edge_no_split.csv", [line.rpartition(",")[0] for line in lines])
    schema = CsvSchema(("f0", "f1"), classes=11, groups=11, split_seed=2)
    for name in ("edge.csv", "edge_no_split.csv"):
        path = str(tmp_path / name)
        got = load_csv(path, schema)
        assert_same_arrays(got, load_csv_oracle(path, schema))
    assert got.features[:, 0].tolist()[:5] == [-0.0, 5e-324, 10.0, 2.5, 3.0]
    assert np.signbit(got.features[0, 0])


def test_stratified_split_keeps_every_cell_in_train():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n_cells = int(rng.integers(1, 6))
        labels, groups = [], []
        for cell in range(n_cells):
            size = int(rng.integers(1, 12))
            labels += [cell % 2] * size
            groups += [cell // 2] * size
        labels = np.array(labels)
        groups = np.array(groups)
        split = np.asarray(SPLITS)[assign_splits(labels, groups, seed=trial)]
        train_cells = set(zip(groups[split == "train"].tolist(), labels[split == "train"].tolist()))
        for s in ("val", "test"):
            eval_cells = set(zip(groups[split == s].tolist(), labels[split == s].tolist()))
            assert eval_cells <= train_cells


def assign_splits_mask_per_cell(labels, groups, seed):
    """Reference for ``assign_splits``: one full-length mask per cell."""
    gen = rngmod.stream(seed, rngmod.DATA, 1)
    split = np.empty(len(labels), dtype="U5")
    for g, c in sorted(set(zip(groups.tolist(), labels.tolist()))):
        idx = np.flatnonzero((groups == g) & (labels == c))
        idx = idx[gen.permutation(len(idx))]
        quota = {s: SPLIT_RATIOS[s] * len(idx) for s in SPLITS}
        sizes = {s: int(np.floor(quota[s])) for s in SPLITS}
        by_remainder = sorted(SPLITS, key=lambda s: (-(quota[s] - sizes[s]), SPLITS.index(s)))
        for s in by_remainder[: len(idx) - sum(sizes.values())]:
            sizes[s] += 1
        start = 0
        for s in SPLITS:
            split[idx[start : start + sizes[s]]] = s
            start += sizes[s]
    return split


def test_assign_splits_matches_the_mask_per_cell_loop():
    rng = np.random.default_rng(3)
    shapes = [(0, 2, 2), (1, 1, 1), (7, 2, 3), (200, 3, 4), (1000, 5, 7)]
    for n, classes, num_groups in shapes:
        for seed in (0, 9):
            labels = rng.integers(0, classes, n)
            groups = rng.integers(0, num_groups, n)
            want = assign_splits_mask_per_cell(labels, groups, seed)
            got = np.asarray(SPLITS)[assign_splits(labels, groups, seed)]
            assert got.dtype == want.dtype and np.array_equal(got, want)


def group_proportions(ds, split):
    """A split's group proportions, as ``group_eval`` reports them."""
    def uniform(features, groups):
        return np.full((len(features), ds.classes), 1 / ds.classes)

    return group_eval(uniform, ds, split, "accuracy").proportions


def test_group_stats_proportions():
    features = np.zeros((100, 1))
    labels = np.zeros(100, dtype=int)
    groups = np.array([0] * 30 + [1] * 70)
    ds = Dataset(features, labels, groups, np.zeros(100, np.uint8), classes=1, num_groups=2)
    # no group is absent, or group_eval raises; 30 and 70 of 100 rows
    proportions = group_proportions(ds, "train")
    assert proportions.tolist() == [30 / 100, 70 / 100]
    assert np.allclose(proportions, [0.3, 0.7], atol=0)


def test_group_stats_flags_absent_group():
    features = np.zeros((10, 1))
    ds = Dataset(
        features,
        np.zeros(10, dtype=int),
        np.zeros(10, dtype=int),
        np.zeros(10, np.uint8),
        classes=1,
        num_groups=3,
    )
    with pytest.raises(ValueError, match=r"^groups \[1, 2\] absent from split 'train'$"):
        group_proportions(ds, "train")


def test_group_stats_three_equal_groups():
    features = np.zeros((99, 1))
    groups = np.repeat([0, 1, 2], 33)
    ds = Dataset(features, np.zeros(99, dtype=int), groups, np.zeros(99, np.uint8), 1, 3)
    proportions = group_proportions(ds, "train")
    assert np.allclose(proportions, 1 / 3, atol=1e-12)
    assert abs(proportions.sum() - 1.0) < 1e-12


def test_group_stats_rejects_empty_split():
    ds = generate_synthetic(blob_config())
    train = split_tags(ds) == "train"
    trimmed = Dataset(
        ds.features[train],
        ds.labels[train],
        ds.groups[train],
        np.zeros(int(train.sum()), np.uint8),
        ds.classes,
        ds.num_groups,
    )
    with pytest.raises(DataError, match="^split 'val' is empty$"):
        group_proportions(trimmed, "val")


def test_proportions_sum_to_one_on_random_datasets():
    rng = np.random.default_rng(11)
    for trial in range(20):
        groups = int(rng.integers(2, 6))
        counts = {
            s: tuple(int(rng.integers(2, 30)) for _ in range(groups))
            for s in ("train", "val", "test")
        }
        cfg = SyntheticConfig(
            d=2,
            classes=2,
            groups=groups,
            means=rng.standard_normal((groups, 2, 2)),
            stds=np.full((groups, 2), 1.0),
            counts=counts,
            seed=trial,
        )
        ds = generate_synthetic(cfg)
        for split in ("train", "val", "test"):
            assert abs(group_proportions(ds, split).sum() - 1.0) < 1e-12


def test_dataset_arrays_are_immutable():
    ds = generate_synthetic(blob_config())
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


def test_load_csv_with_custom_column_names(tmp_path):
    path = tmp_path / "custom.csv"
    path.write_text(
        "age,income,target,cohort,fold\n"
        "1.5,2.5,0,0,train\n"
        "2.5,3.5,1,1,train\n"
        "0.5,1.0,0,0,val\n"
        "3.5,4.0,1,1,test\n"
    )
    schema = CsvSchema(
        feature_columns=("age", "income"),
        classes=2,
        groups=2,
        label_column="target",
        group_column="cohort",
        split_column="fold",
    )
    ds = load_csv(str(path), schema)
    assert ds.d == 2
    assert ds.labels.tolist() == [0, 1, 0, 1]
    assert ds.groups.tolist() == [0, 1, 0, 1]
    assert list(split_tags(ds)) == ["train", "train", "val", "test"]
