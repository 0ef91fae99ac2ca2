"""Dataset containers, ingestion, preprocessing, and reproducible splits.

Survival is columnar: one ``Survival`` holds every sample's time and 0/1 event
as arrays. A NaN cell of a covariate block is a missing cell; no separate mask
records it.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

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
    fills them, and the fitters need a block without NaN.
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
        if len(self.feature_names) != values.shape[0]:
            raise ValueError("feature_names length does not match values rows")
        if self.kind != "normal" and self.b < 1:
            raise ValueError("trial count b must be a positive integer")
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
        return Dataset(
            blocks=tuple(replace(blk, values=blk.values[:, idx]) for blk in self.blocks),
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
    seed: int

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


def _read_table(path):
    """Read a comma- or tab-delimited table (whichever the header uses more).

    Returns the stripped header cells and ``(line number, cells)`` for every
    non-blank row; each row must have as many cells as the header.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ParseError(f"{path}: empty file")
        delim = "\t" if first.count("\t") >= first.count(",") else ","
        header = [c.strip() for c in next(csv.reader([first], delimiter=delim))]
        rows = []
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            rows.append((lineno, row))
    return header, rows


def _read_matrix(path):
    """Read a delimited matrix file: header row of sample ids, first column
    feature names. Missing cells are NaN."""
    header, rows = _read_table(path)
    sample_ids = header[1:]
    if len(set(sample_ids)) != len(sample_ids):
        raise ParseError(f"{path}: duplicate sample ids in header")
    feature_names, values = [], []
    for lineno, row in rows:
        feature_names.append(row[0].strip())
        vals = []
        for col, cell in enumerate(row[1:], start=2):
            token = cell.strip()
            try:
                vals.append(np.nan if token.lower() in MISSING_TOKENS else float(token))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric cell {token!r} (column {col})") from None
        values.append(vals)
    return sample_ids, feature_names, np.array(values, dtype=float).reshape(len(rows), len(sample_ids))


def _read_survival(path):
    """Map each sample id to its (time, event) pair, or to None where its
    survival is missing."""
    header, rows = _read_table(path)
    if [c.lower() for c in header[:3]] != ["sample_id", "time_days", "event"]:
        raise ParseError(f"{path}: expected header sample_id,time_days,event")
    out = {}
    for lineno, row in rows:
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
    import json
    from pathlib import Path

    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = manifest_path.parent

    survival_map = _read_survival(base / manifest["survival"])
    dropped_survival = [sid for sid, s in survival_map.items() if s is None]
    if dropped_survival:
        logger.warning("dropping %d samples with missing survival", len(dropped_survival))
    keep = {sid for sid, s in survival_map.items() if s is not None}

    raw_blocks = []
    for spec in manifest["blocks"]:
        sample_ids, feature_names, values = _read_matrix(base / spec["path"])
        raw_blocks.append((spec, sample_ids, feature_names, values))
        before = len(keep)
        keep &= set(sample_ids)
        if len(keep) < before:
            logger.warning("block %r: %d samples missing, dropped", spec["name"], before - len(keep))

    # Keep a deterministic sample order: survival-file order restricted to shared ids.
    ordered = [sid for sid in survival_map if sid in keep]
    blocks = []
    for spec, sample_ids, feature_names, values in raw_blocks:
        col = {sid: j for j, sid in enumerate(sample_ids)}
        blocks.append(CovariateBlock(
            name=spec["name"],
            kind=spec["kind"],
            b=int(spec.get("b", 1)),
            values=values[:, [col[sid] for sid in ordered]],
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
    samples and mean-impute the rest (rounded to the nearest valid integer for
    count kinds).

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
    keep = frac <= max_missing_fraction
    values = block.values[keep].copy()
    mask = mask[keep]
    names = tuple(name for name, k in zip(block.feature_names, keep) if k)

    for i in range(values.shape[0]):
        if not mask[i].any():
            continue
        mean = values[i, ~mask[i]].mean()
        if block.kind != "normal":
            # nearest valid integer, ties toward zero
            fill = math.floor(mean + 0.5) if mean >= 0 else math.ceil(mean - 0.5)
            if abs(mean - math.trunc(mean)) == 0.5:
                fill = math.trunc(mean)
            fill = min(max(fill, 0), block.b)
        else:
            fill = mean
        values[i, mask[i]] = fill

    if block.kind == "multinomial" and values.shape[0]:
        col_missing = mask.any(axis=0)
        for j in np.where(col_missing)[0]:
            deficit = block.b - values[:, j].sum()
            if deficit != 0:
                row = int(np.where(mask[:, j])[0][0])
                values[row, j] = max(values[row, j] + deficit, 0)

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
    return SplitPlan(test_indices=tuple(test), folds=folds, seed=seed)
