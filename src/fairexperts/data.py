"""Datasets: group-annotated feature vectors with split management.

Provides deterministic synthetic generation from per-(group, class)
Gaussians and CSV ingestion. The CSV format is documented in the README:
a header row with feature columns ``f0..f{d-1}``, required integer
columns ``label`` and ``group``, and an optional ``split`` column with
values train/val/test. Features are stored as float64 and serialized
with shortest round-trip decimal repr, so save followed by load
reproduces values exactly. This module owns every file encoding:
``write_csv`` writes each CSV file the package writes, from column blocks
that a caller may compute one at a time, ``write_json`` each JSON file,
and ``read_json_object`` reads JSON back. Every pass over rows here,
``Dataset``'s cell counts and each CSV file the package writes, is cut
by ``net.row_blocks`` into blocks of at most ``net.APPLY_BLOCK`` rows.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter, length_hint
from typing import Iterable, Sequence

import numpy as np

from . import rng as rngmod
from .net import APPLY_BLOCK, row_blocks

SPLITS = ("train", "val", "test")
SPLIT_RATIOS = {"train": 0.8, "val": 0.1, "test": 0.1}


class DataError(ValueError):
    """Malformed dataset input (bad file, bad schema, bad config)."""


def read_json_object(path: str, what: str) -> dict:
    """Load a JSON file whose top level must be an object.

    ``what`` names the file in errors ("checkpoint"); a missing file,
    invalid JSON or another top-level type raises ``DataError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} {path!r} does not exist") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"{what} {path!r} nests arrays or objects too deeply to read") from None
    except UnicodeDecodeError as exc:
        line = non_utf8_line(path)
        raise DataError(f"{what} {path!r}: line {line}: not UTF-8 text ({exc.reason})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{what} {path!r} does not hold a JSON object")
    return payload


def non_utf8_line(path: str) -> int:
    """Number of the first line of ``path`` that is not UTF-8, 0 if none.

    For errors: a text file is decoded in blocks, so the line a reader
    had reached when decoding failed may lie before the bad one.
    """
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return n
    return 0


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _index_dtype(bound: int) -> type:
    """The narrowest unsigned integer type that holds ``range(bound)``:
    ``uint8`` up to 256 values. Labels and groups are stored in it, so
    arithmetic on them must cast to ``np.intp`` first or wrap."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max + 1:
            return dtype
    return np.uint64


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label/group arrays plus each row's split.

    ``labels`` and ``groups`` may be given in any integer type; once in
    range they are stored in the narrowest unsigned type that holds
    ``[0, classes)`` and ``[0, num_groups)`` (``uint8`` up to 256 values).
    ``split`` holds one ``uint8`` code per row, an index into ``SPLITS``,
    and may be given in any integer type too; a CSV file's split tags are
    turned into codes by ``load_csv``.

    The rows are held grouped by split, train then val then test, each
    split's rows in their given order, so every split is one slice of the
    arrays. Errors name rows in the given order. Rows whose split codes
    never decrease, as in generated data, are already grouped; otherwise
    one stable sort by split gathers each array once, here. The arrays
    are stored as read-only views, without a copy where the given array
    is grouped and already has the stored dtype; the caller's arrays stay
    writable, and the dataset assumes they are not edited afterwards.
    """

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) unsigned, values in [0, classes)
    groups: np.ndarray  # (n,) unsigned, values in [0, num_groups)
    split: np.ndarray  # (n,) uint8, values in [0, len(SPLITS))
    classes: int
    num_groups: int

    def __post_init__(self) -> None:
        for name in ("labels", "groups", "split"):
            values = np.asarray(getattr(self, name))
            if values.size and values.dtype.kind not in "iu":
                raise DataError(f"{name} must be integers, got dtype {values.dtype}")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n = self.features.shape[0]
        if self.features.shape[1] == 0:
            raise DataError("features must have at least one column")
        if self.labels.shape != (n,) or self.groups.shape != (n,) or self.split.shape != (n,):
            raise DataError("labels/groups/split lengths must match features")
        # each check reduces the whole array without a temporary (NaN fails
        # both comparisons); only a failed one looks for the first row at
        # fault, counted from 1 as in a CSV file
        if n and not (-np.inf < self.features.min() and self.features.max() < np.inf):
            r = np.argmax(~np.isfinite(self.features).all(axis=1))
            raise DataError(f"row {r + 1}: features must be finite")
        for what, values, bound in (
            ("label", self.labels, self.classes),
            ("group", self.groups, self.num_groups),
            ("split code", self.split, len(SPLITS)),
        ):
            if n and (values.min() < 0 or values.max() >= bound):
                r = np.argmax((values < 0) | (values >= bound))
                raise DataError(f"row {r + 1}: {what} {values[r]} out of range")
        for name, bound in (("labels", self.classes), ("groups", self.num_groups)):
            values = getattr(self, name).astype(_index_dtype(bound), copy=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "split", self.split.astype(np.uint8, copy=False))
        cells, grouped = self._count_cells()
        cells = dict(zip(SPLITS, cells))
        for split_name in ("val", "test"):
            missing = np.argwhere((cells[split_name] > 0) & (cells["train"] == 0))
            if missing.size:
                raise DataError(
                    f"(group, class) cells {list(map(tuple, missing.tolist()))} "
                    f"appear in {split_name} but not in train"
                )
        if not grouped:
            # one stable sort groups the rows by split, each split's rows in
            # their given order; the checks above named rows in that order
            order = np.argsort(self.split, kind="stable")
            for name in ("features", "labels", "groups", "split"):
                object.__setattr__(self, name, getattr(self, name)[order])
        stops = np.cumsum([counts.sum() for counts in cells.values()]).tolist()
        object.__setattr__(self, "_rows", dict(zip(SPLITS, map(slice, [0, *stops], stops))))
        object.__setattr__(self, "_cells", cells)
        # read-only views: the caller's own arrays stay writable
        for name in ("features", "labels", "groups", "split"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        for counts in cells.values():
            counts.flags.writeable = False

    def _count_cells(self) -> tuple[np.ndarray, bool]:
        """(split, group, class) sample counts, and whether the split codes
        never decrease (the rows are grouped by split), both found in
        ``row_blocks`` of at most ``APPLY_BLOCK`` rows, so no temporary is
        as long as the data."""
        counts = np.zeros((len(SPLITS), self.num_groups, self.classes), dtype=np.int64)
        flat = counts.reshape(-1)  # a view
        grouped = True
        for rows in row_blocks(self.n, APPLY_BLOCK):
            # one code per (split, group, class) cell, in that order; intp,
            # or it wraps
            codes = self.split[rows].astype(np.intp)
            codes *= self.num_groups
            codes += self.groups[rows]
            codes *= self.classes
            codes += self.labels[rows]
            flat += np.bincount(codes, minlength=flat.size)
            if grouped:
                # from the previous block's last row, so each boundary is seen
                edge = self.split[max(rows.start - 1, 0) : rows.stop]
                grouped = not (edge[1:] < edge[:-1]).any()
        return counts, grouped

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def _check_split(self, split_name: str) -> str:
        if split_name not in SPLITS:
            raise DataError(f"unknown split {split_name!r}")
        return split_name

    def split_arrays(self, split_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, labels, groups) for one split, in the order given:
        read-only views of the dataset's arrays, never copies."""
        rows = self._rows[self._check_split(split_name)]
        return self.features[rows], self.labels[rows], self.groups[rows]

    def cell_counts(self, split_name: str) -> np.ndarray:
        """Read-only (groups, classes) table of one split's sample counts."""
        return self._cells[self._check_split(split_name)]


@dataclass(frozen=True)
class SyntheticConfig:
    """Isotropic Gaussian per (group, class) cell.

    ``counts[split][g]`` gives the number of samples for group g in that
    split; each group's count is divided as evenly as possible across
    classes (earlier classes take the remainder).
    """

    d: int
    classes: int
    groups: int
    means: np.ndarray  # (G, C, d)
    stds: np.ndarray  # (G, C) > 0
    counts: dict[str, tuple[int, ...]]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=np.float64))
        if self.means.shape != (self.groups, self.classes, self.d):
            raise DataError(
                f"means must have shape {(self.groups, self.classes, self.d)}, "
                f"got {self.means.shape}"
            )
        if self.stds.shape != (self.groups, self.classes):
            raise DataError("stds must have one entry per (group, class) cell")
        # written so that NaN fails each comparison
        bad_means = ~(np.abs(self.means) < np.inf).all(axis=2)
        bad_stds = ~((0 < self.stds) & (self.stds < np.inf))
        for bad, values, what in (
            (bad_means, self.means, "mean must be finite"),
            (bad_stds, self.stds, "standard deviation must be finite and positive"),
        ):
            if bad.any():
                g, c = np.argwhere(bad)[0]
                raise DataError(f"group {g}, class {c}: {what}, got {values[g, c].tolist()}")
        if set(self.counts) != set(SPLITS):
            raise DataError(f"counts must cover splits {SPLITS}")
        for split_name, per_group in self.counts.items():
            if len(per_group) != self.groups:
                raise DataError(f"counts[{split_name!r}] needs one entry per group")
            if any(c < 1 for c in per_group):
                raise DataError("per-group counts must be >= 1")


def _class_shares(total: int, classes: int) -> list[int]:
    base, rem = divmod(total, classes)
    return [base + (1 if c < rem else 0) for c in range(classes)]


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw a dataset from the configured Gaussians.

    Pure function of the config: the same seed yields bit-identical
    output. Samples are ordered by (split, group, class).
    """
    gen = rngmod.stream(config.seed, rngmod.DATA)
    cells = [
        (code, g, c, n_cell)
        for code, split_name in enumerate(SPLITS)
        for g in range(config.groups)
        for c, n_cell in enumerate(_class_shares(config.counts[split_name][g], config.classes))
        if n_cell
    ]
    n = sum(cell[3] for cell in cells)
    try:
        features = np.empty((n, config.d))
        labels = np.empty(n, dtype=_index_dtype(config.classes))
        groups = np.empty(n, dtype=_index_dtype(config.groups))
        split = np.empty(n, dtype=np.uint8)
    except (ValueError, MemoryError) as exc:  # more rows than numpy or the host can hold
        raise DataError(f"data.count: cannot allocate {n} rows: {exc}") from None
    start = 0
    for code, g, c, n_cell in cells:
        rows = slice(start, start + n_cell)
        # the draws and arithmetic of mean + std * standard_normal, in place
        x = gen.standard_normal(out=features[rows])
        x *= config.stds[g, c]
        x += config.means[g, c]
        labels[rows] = c
        groups[rows] = g
        split[rows] = code
        start = rows.stop
    return Dataset(
        features, labels, groups, split, classes=config.classes, num_groups=config.groups
    )


@dataclass(frozen=True)
class CsvSchema:
    """Column layout and declared ranges for a dataset CSV.

    ``feature_columns`` names the feature columns in order, or is a count
    d that stands for ``f0..f{d-1}``; those names are made only once the
    file's header is known to hold them all. Each column has one role:
    a name given twice among the features, label, group and split
    columns raises ``DataError`` (a label read as a feature would leak).
    """

    feature_columns: Sequence[str] | int
    classes: int
    groups: int
    label_column: str = "label"
    group_column: str = "group"
    split_column: str | None = "split"
    split_seed: int = 0

    def __post_init__(self) -> None:
        roles = (self.label_column, self.group_column, self.split_column)
        others = [c for c in roles if c is not None]
        features = self.feature_columns
        if isinstance(features, int):  # of f0..f{d-1}, only those the others name
            features = [c for c in others if _is_default_column(c, self.feature_columns)]
        counts = Counter([*features, *others])
        repeated = [c for c, k in counts.items() if k > 1]
        if repeated:
            raise DataError(f"columns {repeated} are given more than one role")


def load_csv(path: str, schema: CsvSchema) -> Dataset:
    """Parse a dataset CSV.

    This turns text into arrays, the split tags into ``SPLITS`` codes;
    ``Dataset`` checks their content, and its errors, which name rows in
    file order, are prefixed with the path. The dataset holds the rows
    grouped by split, each split's rows in file order.

    If the schema's split column is absent from the header, rows are
    assigned to train/val/test at an 8:1:1 ratio, stratified by
    (group, class): within each cell, a seeded shuffle splits rows with
    largest-remainder rounding, so every nonempty cell lands in train.
    """
    features, labels, groups, split = _csv_columns(path, schema)
    if split is None:
        split = assign_splits(labels, groups, schema.split_seed)
    try:
        return Dataset(features, labels, groups, split, schema.classes, schema.groups)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _csv_columns(path: str, schema: CsvSchema) -> tuple:
    """Features, labels, groups and the split codes (or None) of a CSV file.

    Checks the header and each row's field count, then converts each
    column the schema reads once, in schema order; a cell that does not
    convert (an integer outside int64 included) is named by row, column
    and text. Each split tag is compared whole with the ``SPLITS`` names
    and decoded into its ``uint8`` index; the first row with an unknown
    tag is named, with every distinct unknown tag.
    """
    try:
        # utf-8-sig also reads the byte-order mark that some exporters write
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"{path}: file does not exist") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            line = non_utf8_line(path)
            raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise DataError(f"{path}: empty file")

    col_index = {name: i for i, name in enumerate(header)}
    names, others = schema.feature_columns, [schema.label_column, schema.group_column]
    if isinstance(names, int) and names > len(header):
        # f0..f{d-1} cannot all be in the header, and d may be too large to
        # hold as names: the missing ones are counted from the header
        d = names
        count = d - sum(_is_default_column(name, d) for name in col_index)
        count += sum(name not in col_index for name in others)
        wanted = chain(map("f{}".format, range(d)), others)
        raise _missing_columns(path, (name for name in wanted if name not in col_index), count)
    if isinstance(names, int):
        names = [f"f{i}" for i in range(names)]
    required = [*names, *others]
    missing = [name for name in required if name not in col_index]
    if missing:
        raise _missing_columns(path, missing, len(missing))
    counts = Counter(header)
    repeated = [name for name in dict.fromkeys((*required, schema.split_column)) if counts[name] > 1]
    if repeated:
        raise DataError(f"{path}: repeated columns {repeated}")
    for r, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")

    def column(name: str, kind: type) -> np.ndarray:
        # float cells become float64, int cells int64; a Python int
        # outside int64 raises OverflowError
        ci, unread = col_index[name], iter(rows)
        dtype = np.float64 if kind is float else np.int64
        try:
            return np.fromiter(map(kind, map(itemgetter(ci), unread)), dtype, count=len(rows))
        except (ValueError, OverflowError):
            r = len(rows) - length_hint(unread)  # the last row read is the one that failed
            what = "non-numeric" if kind is float else "non-int64"
            raise DataError(
                f"{path}: row {r}, column {name!r}: {what} value {rows[r - 1][ci]!r}"
            ) from None

    features = np.empty((len(rows), len(names)))
    for j, name in enumerate(names):
        features[:, j] = column(name, float)
    labels, groups = column(schema.label_column, int), column(schema.group_column, int)
    si = col_index.get(schema.split_column)
    split = None
    if si is not None:
        codes, unread = {tag: code for code, tag in enumerate(SPLITS)}, iter(rows)
        tags = map(itemgetter(si), unread)
        try:
            split = np.fromiter(map(codes.__getitem__, tags), np.uint8, count=len(rows))
        except KeyError:
            r = len(rows) - length_hint(unread)  # the first row with an unknown tag
            names = sorted(set(map(itemgetter(si), rows)).difference(codes))
            raise DataError(f"{path}: row {r}: unknown split tags: {names}") from None
    return features, labels, groups, split


def _is_default_column(name: str, d: int) -> bool:
    """Whether ``name`` is ``f{i}`` for some ``0 <= i < d``; a header field
    with more digits than d is never read as an int."""
    digits = name[1:]
    return (
        name[:1] == "f" and digits.isdecimal() and len(digits) <= len(str(d))
        and name == f"f{int(digits)}" and int(digits) < d
    )


def _missing_columns(path: str, missing: Iterable[str], count: int) -> DataError:
    """The error naming the first few of ``count`` missing columns."""
    shown = list(islice(missing, 5))
    more = f" and {count - len(shown)} more" if count > len(shown) else ""
    return DataError(f"{path}: missing columns {shown}{more}")


def assign_splits(labels: np.ndarray, groups: np.ndarray, seed: int) -> np.ndarray:
    """Seeded stratified 8:1:1 split assignment, as ``SPLITS`` codes.

    Cells are processed in sorted (group, class) order; within a cell the
    row indices are shuffled and dealt to train/val/test: each split
    takes the floor of its quota, then the splits with the largest
    remainders take one row each (ties resolved train before val before
    test, which also guarantees every nonempty cell reaches train).
    """
    gen = rngmod.stream(seed, rngmod.DATA, 1)
    split = np.empty(len(labels), dtype=np.uint8)
    # one stable sort lists each cell's rows in ascending order, cells in
    # (group, class) order; no rows means no cells and no draws
    order = np.lexsort((labels, groups))
    g_sorted, c_sorted = groups[order], labels[order]
    starts = np.flatnonzero((g_sorted[1:] != g_sorted[:-1]) | (c_sorted[1:] != c_sorted[:-1]))
    cells = np.split(order, starts + 1) if order.size else []
    ratios = np.array([SPLIT_RATIOS[s] for s in SPLITS])
    for idx in cells:
        idx = idx[gen.permutation(len(idx))]
        quota = ratios * len(idx)
        sizes = np.floor(quota).astype(np.int64)
        # a stable sort of the negated remainders keeps SPLITS order on ties
        largest = np.argsort(sizes - quota, kind="stable")
        sizes[largest[: len(idx) - sizes.sum()]] += 1
        split[idx] = np.repeat(np.arange(len(SPLITS)), sizes)
    return split


def save_csv(dataset: Dataset, path: str) -> None:
    """Write the documented CSV format, including the split column, in
    ``row_blocks`` of at most ``APPLY_BLOCK`` rows."""
    header = [f"f{i}" for i in range(dataset.d)] + ["label", "group", "split"]
    # object dtype: each row refers to one of the SPLITS strings, not a copy
    names = np.array(SPLITS, dtype=object)
    blocks = (
        [dataset.features[rows], dataset.labels[rows], dataset.groups[rows],
         names[dataset.split[rows]]]
        for rows in row_blocks(dataset.n, APPLY_BLOCK)
    )
    write_csv(path, header, blocks)


def write_csv(
    path: str, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]
) -> None:
    """Write CSV rows from ``blocks``, each a list of equal-length columns.

    A 2-d column fills one field per column. The blocks follow each other
    in the file, so a caller can stream rows it computes one block at a
    time. Each block is converted whole, so memory holds one block's
    Python values: the package's callers pass blocks of at most
    ``APPLY_BLOCK`` rows. Values are written with ``str`` (for a float,
    its shortest round-trip ``repr``) and lines end in ``\\r\\n``. No
    field the package writes (fixed headers, floats, ints, split tags)
    needs quoting, so the bytes equal ``csv.writer``'s.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            _write_block(fh, columns)
            # release this block before ``blocks`` computes the next one
            del columns


def _write_block(fh, columns: Sequence[np.ndarray]) -> None:
    """Write one block's rows; nothing of the block is held once it returns."""
    fields = [f for c in columns for f in (c.T if c.ndim == 2 else [c])]
    line = ",".join(["%s"] * len(fields)) + "\r\n"  # %s writes str(value)
    fh.write("".join(map(line.__mod__, zip(*[f.tolist() for f in fields]))))
