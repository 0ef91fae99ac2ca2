"""Dataset containers, ingestion, preprocessing, and reproducible splits.

Survival is columnar: one ``Survival`` holds every sample's time and 0/1 event
as arrays. A NaN cell of a covariate block is a missing cell; no separate mask
records it.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

BLOCK_KINDS = ("normal", "binomial", "multinomial")

MISSING_TOKENS = {"", "na", "nan", "null"}


class ParseError(ValueError):
    """Raised when an input file cannot be parsed."""


@dataclass(frozen=True)
class Survival:
    """Observed event times (days) and event indicators (1 = event, 0 =
    censored), one entry per sample, as read-only float64 arrays."""

    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        time = np.array(self.time, dtype=float)
        event = np.array(self.event, dtype=float)
        if time.ndim != 1 or event.shape != time.shape:
            raise ValueError("time and event must be 1-d arrays of equal length")
        bad = time[~((0 <= time) & (time < math.inf))]
        if bad.size:
            raise ValueError(f"invalid time {float(bad[0])!r}: must be finite and at least 0")
        if not np.all((event == 0) | (event == 1)):
            raise ValueError("events must be 0 or 1")
        for name, arr in (("time", time), ("event", event)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CovariateBlock:
    """One datatype's feature matrix (features x samples) plus its conditional kind.

    A NaN cell is a missing cell. Ingestion keeps them, ``impute_missing``
    fills them, and the fitters need a block without NaN. Infinite cells are
    rejected.

    ``values`` is stored read-only and C-contiguous. A float64 array that is
    already so and owns its data (as the loader hands over, and as every block
    stores) is kept as it is; any other input is copied, so that no writable
    view of a block's values is left with the caller.
    """

    name: str
    kind: str
    b: int
    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d (features x samples) matrix")
        if np.isinf(values).any():
            raise ValueError(f"block {self.name!r}: cells must be finite or NaN (missing)")
        if len(self.feature_names) != values.shape[0]:
            raise ValueError("feature_names length does not match values rows")
        if self.kind != "normal" and self.b < 1:
            raise ValueError("trial count b must be a positive integer")
        if values.flags.writeable or not (values.flags.owndata and values.flags.c_contiguous):
            values = values.copy()
            values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        self._check_support()

    def _check_support(self):
        """Count kinds: every observed cell is an integer in range, and every
        complete multinomial column sums to b."""
        v = self.values
        missing = np.isnan(v)
        if self.kind == "binomial":
            if not np.all(missing | ((v == np.round(v)) & (v >= 0) & (v <= self.b))):
                raise ValueError(f"block {self.name!r}: binomial entries must be integers in 0..{self.b}")
        elif self.kind == "multinomial":
            if not np.all(missing | ((v == np.round(v)) & (v >= 0))):
                raise ValueError(f"block {self.name!r}: multinomial entries must be non-negative integers")
            complete = v[:, ~missing.any(axis=0)]
            if v.shape[0] and not np.allclose(complete.sum(axis=0), self.b):
                raise ValueError(f"block {self.name!r}: multinomial columns must sum to {self.b}")

    @property
    def d_x(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Aligned collection of covariate blocks and survival outcomes."""

    blocks: tuple[CovariateBlock, ...]
    survival: Survival
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        n = len(self.sample_ids)
        if self.survival.time.size != n:
            raise ValueError("survival length does not match sample_ids")
        for blk in self.blocks:
            if blk.n_samples != n:
                raise ValueError(f"block {blk.name!r} has {blk.n_samples} columns, expected {n}")
        if len(set(self.sample_ids)) != n:
            raise ValueError("duplicate sample ids")

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def times(self) -> np.ndarray:
        return self.survival.time

    def events(self) -> np.ndarray:
        return self.survival.event

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        taken = [blk.values.take(idx, axis=1) for blk in self.blocks]
        for values in taken:
            values.setflags(write=False)  # fresh arrays: the blocks take them without a copy
        return Dataset(
            blocks=tuple(replace(blk, values=v) for blk, v in zip(self.blocks, taken)),
            survival=Survival(time=self.survival.time[idx], event=self.survival.event[idx]),
            sample_ids=tuple(self.sample_ids[i] for i in idx),
        )

    def stacked_values(self) -> np.ndarray:
        """All blocks stacked into one (p x N) matrix."""
        return np.vstack([blk.values for blk in self.blocks])


@dataclass(frozen=True)
class SplitPlan:
    """Test indices plus disjoint CV folds partitioning the rest."""

    test_indices: tuple[int, ...]
    folds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "test_indices", tuple(int(i) for i in self.test_indices))
        object.__setattr__(self, "folds", tuple(tuple(int(i) for i in f) for f in self.folds))
        all_idx = list(self.test_indices) + [i for f in self.folds for i in f]
        if len(set(all_idx)) != len(all_idx):
            raise ValueError("split indices overlap")
        if set(all_idx) != set(range(len(all_idx))):
            raise ValueError("split indices do not partition 0..N-1")
        sizes = [len(f) for f in self.folds]
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes differ by more than 1")

    def learning_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for v, f in enumerate(self.folds) if v != fold for i in f)


def load_document(path, build, what: str):
    """Read the JSON document at ``path`` and return ``build(document)``. A
    file that is not JSON, or a document that ``build`` refuses for its shape
    or its values, raises ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{path}: not a {what} ({type(exc).__name__}: {exc})") from exc


def _read_header(fh, path):
    """The delimiter (tab or comma, whichever the first line uses more), the
    stripped header cells, and a csv reader over the rest of ``fh``. The header
    is read by that reader, so a quoted id may hold a delimiter or a line break."""
    first = fh.readline()
    if not first.strip():
        raise ParseError(f"{path}: empty file")
    delim = "\t" if first.count("\t") >= first.count(",") else ","
    reader = csv.reader(itertools.chain([first], fh), delimiter=delim)
    try:
        header = next(reader)
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise ParseError(f"{path}:1: {exc}") from None
    return delim, [c.strip() for c in header], reader


def _read_table(path):
    """Read a comma- or tab-delimited table row by row with the csv module.

    Yields the stripped header cells, then ``(line number, cells)`` for each
    non-blank row as it is read; each row must have as many cells as the header.
    Line numbers count rows, as if no quoted cell held a line break.
    """
    with open(path, encoding="utf-8") as fh:
        _, header, reader = _read_header(fh, path)
        yield header
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, "
                                     f"got {len(row)}")
                yield lineno, row
        except csv.Error as exc:  # raised while reading the row after ``lineno``
            raise ParseError(f"{path}:{lineno + 1}: {exc}") from None


def _read_matrix(path):
    """Read a delimited matrix file: header row of sample ids, first column
    feature names. Missing cells are NaN; an infinite cell is an error.

    A well-formed file is converted in one ``np.loadtxt`` pass; any other file
    (a missing token, a quoted name, a bad cell, ...) is read again by the row
    reader, which alone raises the errors. Both parse each cell to the nearest
    double, so the two give the same bytes. The matrix is a fresh array the
    caller owns."""
    try:
        return _read_matrix_fast(path)
    except ValueError:  # not well formed: the row reader reads it or says what is wrong
        pass
    return _read_matrix_rows(path)


def _read_matrix_fast(path):
    """``(sample_ids, feature_names, matrix)`` of a well-formed matrix file,
    its data lines parsed by one ``np.loadtxt``. Any other file raises
    ValueError: duplicate ids, a line with no delimiter, a quote in its name
    or no cells, a field longer than the csv module reads, no data line, a
    cell numpy cannot parse, a shape that is not (rows, ids), or an infinite
    cell."""
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8") as fh:
        delim, header, _ = _read_header(fh, path)
        sample_ids, feature_names = header[1:], []
        if len(set(sample_ids)) != len(sample_ids):
            raise ValueError("duplicate sample ids")

        def cells():  # each data line after its name, whose stripped name is kept
            for line in fh:
                if line == "\n":  # the csv module reads no row here
                    continue
                if len(line) > limit and max(map(len, line.split(delim))) > limit:
                    raise ValueError("a field longer than csv.field_size_limit()")
                name, sep, rest = line.partition(delim)
                if not sep or '"' in name or not rest.strip():
                    raise ValueError("not a plain data line")
                feature_names.append(name.strip())
                yield rest

        lines = cells()
        first = next(lines, None)
        if first is None:  # checked here, as loadtxt would warn of no data
            raise ValueError("no data line")
        matrix = np.loadtxt(itertools.chain([first], lines), delimiter=delim,
                            comments=None, dtype=float, ndmin=2)
    if matrix.shape != (len(feature_names), len(sample_ids)) or np.isinf(matrix).any():
        raise ValueError("not one finite cell per sample on each line")
    return sample_ids, feature_names, matrix


def _read_matrix_rows(path):
    """Read a matrix file row by row, each row converted as it is read, so the
    first faulty line in file order is the one reported."""
    table = _read_table(path)
    sample_ids = next(table)[1:]
    if len(set(sample_ids)) != len(sample_ids):
        raise ParseError(f"{path}: duplicate sample ids in header")
    feature_names, values = [], []
    for lineno, row in table:
        feature_names.append(row[0].strip())
        try:  # numpy reads a cell as float does: strips whitespace, reads nan
            vals = np.array(row[1:], dtype=float)
        except ValueError:  # another missing token, or a bad cell: read cell by cell
            vals = []
            for col, cell in enumerate(row[1:], start=2):
                token = cell.strip()
                try:
                    vals.append(np.nan if token.lower() in MISSING_TOKENS else float(token))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric cell {token!r} "
                                     f"(column {col})") from None
            vals = np.array(vals, dtype=float)
        bad = np.flatnonzero(np.isinf(vals))
        if bad.size:
            cell = bad[0] + 1
            raise ParseError(f"{path}:{lineno}: non-finite cell {row[cell].strip()!r} "
                             f"(column {cell + 1})")
        values.append(vals)
    matrix = np.array(values) if values else np.empty((0, len(sample_ids)))
    return sample_ids, feature_names, matrix


def _read_survival(path):
    """Map each sample id to its (time, event) pair, or to None where its
    survival is missing."""
    table = _read_table(path)
    if [c.lower() for c in next(table)[:3]] != ["sample_id", "time_days", "event"]:
        raise ParseError(f"{path}: expected header sample_id,time_days,event")
    out = {}
    for lineno, row in table:
        sid = row[0].strip()
        if sid in out:
            raise ParseError(f"{path}:{lineno}: duplicate sample id {sid!r}")
        try:
            time = float(row[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric time {row[1]!r}") from None
        token = row[2].strip().lower()
        if token not in {"1", "true", "0", "false", ""}:
            raise ParseError(f"{path}:{lineno}: bad event value {row[2]!r}")
        # a blank event or a NaN time is missing survival: the sample is dropped later
        if not token or math.isnan(time):
            out[sid] = None
        elif not 0 <= time < math.inf:
            raise ParseError(f"{path}:{lineno}: invalid time {time!r}: "
                             "must be finite and at least 0")
        else:
            out[sid] = (time, float(token in {"1", "true"}))
    return out


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset from a JSON manifest referencing block matrix files and a survival file.

    Samples missing from any block file or with missing survival are dropped
    (with a logged count). Block columns are aligned by sample id.
    """
    base = Path(manifest_path).parent
    survival_path, specs = load_document(manifest_path, lambda manifest: (
        base / manifest["survival"],
        [(spec["name"], spec["kind"], int(spec.get("b", 1)), base / spec["path"])
         for spec in manifest["blocks"]]), "dataset manifest")

    survival_map = _read_survival(survival_path)
    dropped_survival = [sid for sid, s in survival_map.items() if s is None]
    if dropped_survival:
        logger.warning("dropping %d samples with missing survival", len(dropped_survival))
    keep = {sid for sid, s in survival_map.items() if s is not None}

    raw_blocks = []
    for name, kind, b, path in specs:
        sample_ids, feature_names, values = _read_matrix(path)
        raw_blocks.append((name, kind, b, sample_ids, feature_names, values))
        before = len(keep)
        keep &= set(sample_ids)
        if len(keep) < before:
            logger.warning("block %r: %d samples missing, dropped", name, before - len(keep))

    # Keep a deterministic sample order: survival-file order restricted to shared ids.
    ordered = [sid for sid in survival_map if sid in keep]
    blocks = []
    for name, kind, b, sample_ids, feature_names, values in raw_blocks:
        if sample_ids != ordered:  # a file already in survival order needs no copy
            col = {sid: j for j, sid in enumerate(sample_ids)}
            values = values.take([col[sid] for sid in ordered], axis=1)
        values.setflags(write=False)  # a fresh array: the block takes it without a copy
        blocks.append(CovariateBlock(
            name=name,
            kind=kind,
            b=b,
            values=values,
            feature_names=tuple(feature_names),
        ))
    time, event = np.array([survival_map[sid] for sid in ordered], dtype=float).reshape(-1, 2).T
    return Dataset(
        blocks=tuple(blocks),
        survival=Survival(time=time, event=event),
        sample_ids=tuple(ordered),
    )


def variance_filter(block: CovariateBlock, keep_fraction: float) -> CovariateBlock:
    """Retain the ceil(keep_fraction * d_x) features with largest sample variance.

    Ties are broken by original feature index so the result is deterministic.
    """
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    if block.d_x == 0:
        raise ValueError("empty block")
    k = math.ceil(keep_fraction * block.d_x)
    var = np.var(block.values, axis=1)
    order = np.argsort(-var, kind="stable")
    keep = np.sort(order[:k])
    return replace(
        block,
        values=block.values[keep],
        feature_names=tuple(block.feature_names[i] for i in keep),
    )


def impute_missing(block: CovariateBlock, max_missing_fraction: float = 0.10) -> CovariateBlock:
    """Drop features missing (NaN) in more than ``max_missing_fraction`` of
    samples, or in all of them, and mean-impute the rest (rounded to the
    nearest valid integer for count kinds).

    Observed entries are left bit-identical. Imputed multinomial columns are
    re-normalized to sum b by adjusting the imputed entry.
    """
    mask = np.isnan(block.values)
    if not mask.any():
        return block
    n = block.n_samples
    frac = mask.sum(axis=1) / max(n, 1)
    all_missing = frac >= 1.0
    if all_missing.any():
        logger.warning("block %r: %d features missing in all samples, dropped",
                       block.name, int(all_missing.sum()))
    keep = (frac <= max_missing_fraction) & ~all_missing
    values = block.values[keep].copy()
    mask = mask[keep]
    names = tuple(name for name, k in zip(block.feature_names, keep) if k)

    for i in range(values.shape[0]):
        if not mask[i].any():
            continue
        mean = values[i, ~mask[i]].mean()
        # an observed count mean is never negative: nearest integer, ties down, at most b
        values[i, mask[i]] = (mean if block.kind == "normal"
                              else min(math.ceil(mean - 0.5), block.b))

    if block.kind == "multinomial" and values.shape[0]:
        for j in np.where(mask.any(axis=0))[0]:
            row = int(np.where(mask[:, j])[0][0])
            values[row, j] = max(values[row, j] + block.b - values[:, j].sum(), 0)

    return replace(block, values=values, feature_names=names)


def zscore_block(block: CovariateBlock) -> CovariateBlock:
    """Optional per-feature standardization for continuous blocks."""
    if block.kind != "normal":
        raise ValueError("z-scoring only applies to normal blocks")
    v = block.values
    sd = v.std(axis=1, keepdims=True)
    sd[sd == 0] = 1.0
    return replace(block, values=(v - v.mean(axis=1, keepdims=True)) / sd)


def adjust_zero_times(survival: Survival) -> Survival:
    """Replace zero event times by 1/10 of the smallest non-zero time."""
    positive = survival.time > 0
    if not positive.any():
        raise ValueError("all event times are zero; no reference scale")
    floor = survival.time[positive].min() / 10.0
    return Survival(time=np.where(positive, survival.time, floor), event=survival.event)


def make_split(N: int, test_fraction: float = 0.25, n_folds: int = 5, *, seed: int) -> SplitPlan:
    """Uniform-at-random test/fold assignment, deterministic in the seed."""
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test_fraction={test_fraction} must be in [0, 1)")
    if n_folds < 2:
        raise ValueError(f"n_folds={n_folds} must be at least 2")
    n_test = int(round(N * test_fraction))
    if N < n_folds + 1 or N - n_test < n_folds:
        raise ValueError(f"N={N} too small for {n_folds} folds after {n_test} test samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N)
    test = np.sort(perm[:n_test])
    rest = perm[n_test:]
    folds = tuple(tuple(np.sort(part)) for part in np.array_split(rest, n_folds))
    return SplitPlan(test_indices=tuple(test), folds=folds)
