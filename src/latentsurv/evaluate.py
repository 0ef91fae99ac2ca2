"""Tied concordance index, the cross-validation harness, and nested-interval
model selection."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import joint as joint_mod
from .data import Dataset, SplitPlan
from .hazard import HazardParams, _aligned, _fit_one, _require_positive_times, ecph_predict
from .hazard import fit_ecph  # noqa: F401  perfbench's span tests look for it here

logger = logging.getLogger(__name__)


class UndefinedCIndexError(ValueError):
    """No comparable pairs: the concordance denominator is zero."""


def _half_pair_sum(t, d, x, dx) -> float:
    """Half of sum_{n,m} T_nm X_nm, where T_nm = [t_n >= t_m] d_m - [t_n <= t_m] d_n
    and X_nm is the same pair term of (x, dx). Both are antisymmetric, so the
    sum is sum_m d_m sum_{n: t_n >= t_m} X_nm; the n = m term is zero. Visiting
    the samples by descending t, each tie group inserted before any member is
    queried, two Fenwick trees over the ranks of x give #{x_n >= x_m} and
    sum dx_n [x_n <= x_m]: O(N log N) time, O(N) memory. A NaN t or x compares
    false with everything, so such a sample adds no pair term; a NaN weight
    makes the sum NaN, as 0 * NaN does in every pair term of the dense form."""
    if np.isnan(d).any() or np.isnan(dx).any():
        return math.nan
    keep = ~(np.isnan(t) | np.isnan(x))
    t, d, x, dx = t[keep], d[keep], x[keep], dx[keep]
    levels, rank = np.unique(x, return_inverse=True)
    size = levels.size
    count, weight = [0] * (size + 1), [0.0] * (size + 1)
    order = np.argsort(-t, kind="stable")
    t_desc = t[order]
    bounds = np.flatnonzero(np.r_[True, t_desc[1:] != t_desc[:-1], True]).tolist()
    order, rank = order.tolist(), (rank + 1).tolist()
    d, dx = d.tolist(), dx.tolist()
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        group = order[lo:hi]
        for n in group:
            i, w = rank[n], dx[n]
            while i <= size:
                count[i] += 1
                weight[i] += w
                i += i & -i
        for m in group:
            if not d[m]:
                continue
            below, i = 0, rank[m] - 1
            while i:
                below += count[i]
                i -= i & -i
            at_or_below, i = 0.0, rank[m]
            while i:
                at_or_below += weight[i]
                i -= i & -i
            # hi samples are in the trees, hi - below of them with x_n >= x_m
            total += d[m] * ((hi - below) * dx[m] - at_or_below)
    return total


def c_index(t_true, delta, t_pred, delta_pred=None) -> float:
    """Concordance index that zeroes tied comparable pairs; 1 = perfect order,
    0.5 = random. Predictions default to uncensored. Exact, in O(N log N) time
    and O(N) memory; with 0/1 events every partial sum is an integer."""
    t_true = np.asarray(t_true, dtype=float)
    delta = np.asarray(delta, dtype=float)
    t_pred = np.asarray(t_pred, dtype=float)
    if delta_pred is None:
        delta_pred = np.ones_like(t_pred)
    delta_pred = np.asarray(delta_pred, dtype=float)
    if not (t_true.size == delta.size == t_pred.size == delta_pred.size):
        raise ValueError("inputs must have equal length")
    if t_true.size < 2:
        raise ValueError("need at least two samples")
    n_pairs = t_true.size * (t_true.size - 1)
    denom = 2.0 * _half_pair_sum(t_true, delta, t_true, delta) / n_pairs
    if denom <= 0:
        raise UndefinedCIndexError("no comparable pairs; c-index undefined")
    num = 2.0 * _half_pair_sum(t_true, delta, t_pred, delta_pred) / n_pairs
    return 0.5 * (num / denom + 1.0)


@dataclass(frozen=True)
class ModelCandidate:
    """One entry of the model-selection grid. Exactly one hyperparameter is set."""

    kind: str                      # "fa_ecph_c" | "ecph_c_l1"
    d_z: int | None = None
    gamma: float | None = None
    fit_mode: str = "fast"         # a key of joint.FIT_MODES
    gem_iters: int = joint_mod.GEM_ITERS

    def __post_init__(self):
        if self.kind not in ("fa_ecph_c", "ecph_c_l1"):
            raise ValueError(f"unknown candidate kind {self.kind!r}")
        if self.fit_mode not in joint_mod.FIT_MODES:
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")
        if (self.d_z is None) == (self.gamma is None):
            raise ValueError("exactly one hyperparameter field must be set")
        if self.kind == "fa_ecph_c" and self.d_z is None:
            raise ValueError("latent-factor candidates need d_z")
        if self.d_z is not None and self.d_z < 1:
            raise ValueError(f"d_z={self.d_z} must be at least 1")
        if self.gem_iters < 0:
            raise ValueError(f"gem_iters={self.gem_iters} must be non-negative")
        if self.gamma is not None and not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma={self.gamma} must be finite and non-negative")
        if self.kind == "ecph_c_l1" and self.gamma is None:
            raise ValueError("penalized candidates need gamma")

    @property
    def candidate_id(self) -> str:
        if self.kind == "ecph_c_l1":
            return f"l1_gamma{self.gamma:g}"
        return f"latent_dz{self.d_z}_{self.fit_mode}"


@dataclass(frozen=True)
class CvReport:
    candidate_id: str
    fold_cindices: tuple[float, ...]
    mean: float
    std: float
    heywood_excluded: bool = False
    error_folds: tuple[int, ...] = ()

    @classmethod
    def from_folds(cls, candidate_id, fold_cindices, heywood_excluded=False,
                   error_folds=()) -> "CvReport":
        arr = np.asarray(fold_cindices, dtype=float)
        return cls(candidate_id=candidate_id,
                   fold_cindices=tuple(float(c) for c in arr),
                   mean=float(arr.mean()) if arr.size else float("nan"),
                   std=float(arr.std()) if arr.size else float("nan"),
                   heywood_excluded=heywood_excluded,
                   error_folds=tuple(error_folds))


def fit_candidate(candidate: ModelCandidate, train: Dataset, seed: int):
    """Fit one candidate on a learning set; returns a ``JointModel`` for latent
    candidates and otherwise the event hazard's ``HazardParams`` on the stacked
    features, the only part an L1 candidate is scored on. Every fit goes
    through here: CLI ``fit``, CV folds and the ``cv`` refit."""
    if candidate.kind == "fa_ecph_c":
        if candidate.fit_mode == "fast":
            return joint_mod.fit_fast(train, candidate.d_z, seed=seed)
        return joint_mod.fit_joint(train, candidate.d_z, candidate.gem_iters, seed)
    Xt, t, d = _aligned(train.stacked_values(), train.survival)
    _require_positive_times(train.survival)
    return HazardParams(_fit_one(Xt, t, d, candidate.gamma))


def predict_candidate(candidate: ModelCandidate, fitted, data: Dataset) -> np.ndarray:
    if candidate.kind == "fa_ecph_c":
        return joint_mod.joint_predict(fitted, data.blocks)
    return ecph_predict(fitted, data.stacked_values())


def run_cv(dataset: Dataset, candidates, split: SplitPlan, seed: int = 0) -> list[CvReport]:
    """Fit every candidate on each fold's complement, score on the fold, and
    flag candidates whose factor fit hits a near-zero noise variance. A fold
    that raises is logged as a warning and recorded in ``error_folds``."""
    reports = []
    for candidate in candidates:
        fold_cs, errors = [], []
        heywood = False
        for v in range(len(split.folds)):
            learn = dataset.subset(split.learning_indices(v))
            valid = dataset.subset(split.folds[v])
            try:
                fitted = fit_candidate(candidate, learn, seed)
                if candidate.kind == "fa_ecph_c" and fitted.fa.heywood_flag:
                    heywood = True
                preds = predict_candidate(candidate, fitted, valid)
                fold_cs.append(c_index(valid.times(), valid.events(), preds))
            except Exception as exc:
                # data a fit cannot handle is one line; a fault in the code keeps its traceback
                logger.warning("candidate %s failed on fold %d: %s: %s",
                               candidate.candidate_id, v, type(exc).__name__, exc,
                               exc_info=not isinstance(exc, (ValueError, FloatingPointError)))
                errors.append(v)
        reports.append(CvReport.from_folds(candidate.candidate_id, fold_cs,
                                           heywood_excluded=heywood,
                                           error_folds=errors))
    return reports


def select_model(reports, candidates=None) -> str:
    """Nested-interval selection. The usable reports (not Heywood-excluded, at
    least one scored fold) are ranked by larger mean, then by parsimony among
    ``candidates`` (an L1 candidate, larger gamma first, before an id not
    listed, before a latent one, smaller d_z first), then by list order, and
    scanned once: the first is the leader, and a report whose closed
    [mean - std, mean + std] interval sits inside the leader's becomes the
    leader. Nesting is transitive, so each leader is the best-ranked report
    nested in the one before it."""
    order_key = {cand.candidate_id: (-1 if cand.d_z is None else cand.d_z,
                                     -(cand.gamma or 0.0))
                 for cand in candidates or ()}
    usable = sorted((r for r in reports if not r.heywood_excluded and r.fold_cindices),
                    key=lambda r: (-r.mean, order_key.get(r.candidate_id, (0, 0.0))))
    if not usable:
        raise ValueError("every candidate was excluded or failed")
    leader = usable[0]
    for r in usable[1:]:
        lo, hi = leader.mean - leader.std, leader.mean + leader.std
        if lo <= r.mean - r.std and r.mean + r.std <= hi:
            leader = r
    return leader.candidate_id
