"""Tied concordance index, the cross-validation harness, and nested-interval
model selection."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import joint as joint_mod
from .data import Dataset, SplitPlan
from .hazard import PenaltyConfig, ecph_predict, fit_ecph

logger = logging.getLogger(__name__)


class UndefinedCIndexError(ValueError):
    """No comparable pairs: the concordance denominator is zero."""


def _pair_terms(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Pair term [x_n >= x_m] dx_m - [x_n <= x_m] dx_n over all ordered pairs
    n != m, zero on the diagonal."""
    terms = (x[:, None] >= x[None, :]) * dx[None, :] - (x[:, None] <= x[None, :]) * dx[:, None]
    np.fill_diagonal(terms, 0.0)
    return terms


def c_index(t_true, delta, t_pred, delta_pred=None) -> float:
    """Concordance index that zeroes tied comparable pairs; 1 = perfect order,
    0.5 = random. Predictions default to uncensored."""
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
    truth = _pair_terms(t_true, delta)
    n_pairs = t_true.size * (t_true.size - 1)
    denom = float((truth * truth).sum() / n_pairs)
    if denom <= 0:
        raise UndefinedCIndexError("no comparable pairs; c-index undefined")
    num = float((truth * _pair_terms(t_pred, delta_pred)).sum() / n_pairs)
    return 0.5 * (num / denom + 1.0)


@dataclass(frozen=True)
class ModelCandidate:
    """One entry of the model-selection grid. Exactly one hyperparameter is set."""

    kind: str                      # "fa_ecph_c" | "ecph_c_l1" | "ecph_c_fixed"
    d_z: int | None = None
    gamma: float | None = None
    fixed_features: tuple | None = None   # ((block_index, feature_index), ...)
    fit_mode: str = "fast_decoupled"
    gem_iters: int = 10

    def __post_init__(self):
        if self.kind not in ("fa_ecph_c", "ecph_c_l1", "ecph_c_fixed"):
            raise ValueError(f"unknown candidate kind {self.kind!r}")
        if self.fit_mode not in ("fast_decoupled", "full_mcem"):
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")
        populated = sum(x is not None for x in (self.d_z, self.gamma, self.fixed_features))
        if populated != 1:
            raise ValueError("exactly one hyperparameter field must be set")
        if self.kind == "fa_ecph_c" and self.d_z is None:
            raise ValueError("latent-factor candidates need d_z")
        if self.d_z is not None and self.d_z < 1:
            raise ValueError(f"d_z={self.d_z} must be at least 1")
        if self.gamma is not None and not self.gamma >= 0:
            raise ValueError(f"gamma={self.gamma} must be non-negative")
        if self.kind == "ecph_c_l1" and self.gamma is None:
            raise ValueError("penalized candidates need gamma")
        if self.kind == "ecph_c_fixed" and self.fixed_features is None:
            raise ValueError("fixed-covariate candidates need fixed_features")

    @property
    def candidate_id(self) -> str:
        if self.kind == "fa_ecph_c":
            mode = "fast" if self.fit_mode == "fast_decoupled" else "full"
            return f"latent_dz{self.d_z}_{mode}"
        if self.kind == "ecph_c_l1":
            return f"l1_gamma{self.gamma:g}"
        return f"fixed_{len(self.fixed_features)}feat"


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


def _covariates(candidate: ModelCandidate, data: Dataset) -> np.ndarray:
    """A hazard-only candidate's covariates: every stacked feature for L1, the
    chosen feature rows otherwise."""
    if candidate.kind == "ecph_c_l1":
        return data.stacked_values()
    return np.vstack([data.blocks[b].values[i] for b, i in candidate.fixed_features])


def fit_candidate(candidate: ModelCandidate, train: Dataset, seed: int):
    """Fit one candidate on a learning set; returns a ``JointModel`` for latent
    candidates and the ``(w_T, w_C)`` hazard pair otherwise."""
    if candidate.kind == "fa_ecph_c":
        if candidate.fit_mode == "fast_decoupled":
            return joint_mod.fit_fast(train, candidate.d_z, seed=seed)
        return joint_mod.fit_joint(train, candidate.d_z,
                                   gem_iters=candidate.gem_iters, seed=seed)
    gamma = candidate.gamma or 0.0
    return fit_ecph(_covariates(candidate, train), train.survival,
                    penalty=PenaltyConfig(gamma_T=gamma, gamma_C=gamma))


def predict_candidate(candidate: ModelCandidate, fitted, data: Dataset) -> np.ndarray:
    if candidate.kind == "fa_ecph_c":
        return joint_mod.joint_predict(fitted, data.blocks)
    w_T, _ = fitted
    return ecph_predict(w_T, _covariates(candidate, data))


def run_cv(dataset: Dataset, candidates, split: SplitPlan, seed: int = 0) -> list[CvReport]:
    """Fit every candidate on each fold's complement, score on the fold, and
    flag candidates whose factor fit hits a near-zero noise variance."""
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
            except Exception:
                logger.exception("candidate %s failed on fold %d", candidate.candidate_id, v)
                errors.append(v)
        reports.append(CvReport.from_folds(candidate.candidate_id, fold_cs,
                                           heywood_excluded=heywood,
                                           error_folds=errors))
    return reports


def _interval(report: CvReport) -> tuple[float, float]:
    return report.mean - report.std, report.mean + report.std


def select_model(reports, candidates=None) -> str:
    """Largest-mean report, then recursively move to the largest-mean report
    whose [mean - std, mean + std] interval nests (closed containment) inside
    the current leader's interval."""
    order_key = {}
    if candidates is not None:
        for cand in candidates:
            # parsimony tie-break: smaller d_z, then larger gamma
            order_key[cand.candidate_id] = (
                cand.d_z if cand.d_z is not None else -1,
                -(cand.gamma or 0.0),
            )
    usable = [r for r in reports if not r.heywood_excluded and r.fold_cindices]
    if not usable:
        raise ValueError("all candidates excluded")

    def sort_key(r):
        return (-r.mean, order_key.get(r.candidate_id, (0, 0.0)))

    leader = min(usable, key=sort_key)
    visited = {id(leader)}
    while True:
        lo, hi = _interval(leader)
        nested = [r for r in usable
                  if id(r) not in visited and lo <= _interval(r)[0] and _interval(r)[1] <= hi]
        if not nested:
            return leader.candidate_id
        leader = min(nested, key=sort_key)
        visited.add(id(leader))
