"""Exponential proportional-hazards model with censoring.

Fits unpenalized or L1-penalized parameters by iteratively reweighted least
squares; each weighted subproblem is Newton's quadratic model of the
log-likelihood, so the unpenalized iteration is exactly Newton's method.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

DEGENERATE_RATE_EPS = 1e-8


@dataclass(frozen=True)
class HazardParams:
    """w = (log baseline hazard, effect sizes...)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel().copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def log_baseline(self) -> float:
        return float(self.w[0])

    @property
    def beta(self) -> np.ndarray:
        return self.w[1:]


@dataclass(frozen=True)
class PenaltyConfig:
    gamma_T: float = 0.0
    gamma_C: float = 0.0
    penalize_intercept: bool = True

    def __post_init__(self):
        if self.gamma_T < 0 or self.gamma_C < 0:
            raise ValueError("penalty strengths must be non-negative")


def _design(X: np.ndarray) -> np.ndarray:
    """Prepend the intercept row: (p+1) x N."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.vstack([np.ones(X.shape[1]), X])


def _aligned(X: np.ndarray, survival) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design (intercept row prepended), times and event indicators of the
    samples, after checking that X has one column per survival record."""
    t = np.array([s.time for s in survival], dtype=float)
    d = np.array([float(s.event) for s in survival])
    Xt = _design(X)
    if Xt.shape[1] != t.size:
        raise ValueError("X columns must align with survival")
    return Xt, t, d


def _log_event_rate(t: np.ndarray, d: np.ndarray) -> float:
    """Intercept-only start log(events / exposure); a class without events
    starts at the rate floor DEGENERATE_RATE_EPS / exposure instead."""
    n_events = d.sum()
    if n_events == 0:
        logger.warning("no observations in one outcome class; its rate is set to the floor")
        n_events = DEGENERATE_RATE_EPS
    return np.log(n_events / t.sum())


def _part_log_likelihood(w: np.ndarray, Xt: np.ndarray, t: np.ndarray, d: np.ndarray) -> float:
    eta = w @ Xt
    return float(np.sum(d * eta - t * np.exp(eta)))


def ecph_log_likelihood(params_T: HazardParams, params_C: HazardParams,
                        X: np.ndarray, survival) -> float:
    """Log-likelihood of (event time, indicator) pairs; additive in the T and C parts."""
    Xt, t, d = _aligned(X, survival)
    return (_part_log_likelihood(params_T.w, Xt, t, d)
            + _part_log_likelihood(params_C.w, Xt, t, 1.0 - d))


def _lasso_cd(A: np.ndarray, y: np.ndarray, gamma: float, penalized: np.ndarray,
              w0: np.ndarray, gap_tol: float = 1e-8, max_sweeps: int = 10_000) -> np.ndarray:
    """Coordinate descent for min_w 0.5*||y - A w||^2 + gamma * sum_{j in penalized} |w_j|.

    Unpenalized coordinates are optimized exactly each sweep, which keeps the
    residual orthogonal to them and makes the duality gap computable on the
    penalized part alone.
    """
    n, p = A.shape
    w = w0.copy()
    col_sq = np.einsum("ij,ij->j", A, A)
    r = y - A @ w
    pen_idx = np.where(penalized)[0]
    free_idx = np.where(~penalized)[0]
    for _ in range(max_sweeps):
        for j in pen_idx:
            if col_sq[j] == 0:
                w[j] = 0.0
                continue
            rho = A[:, j] @ r + col_sq[j] * w[j]
            wj = np.sign(rho) * max(abs(rho) - gamma, 0.0) / col_sq[j]
            r += A[:, j] * (w[j] - wj)
            w[j] = wj
        # free coordinates last so the residual stays orthogonal to them,
        # which the dual feasibility of the gap check relies on
        for j in free_idx:
            if col_sq[j] == 0:
                continue
            wj_old = w[j]
            w[j] = wj_old + A[:, j] @ r / col_sq[j]
            r -= A[:, j] * (w[j] - wj_old)
        # duality gap; the dual point rescales the residual into the feasible set
        primal = 0.5 * (r @ r) + gamma * np.abs(w[pen_idx]).sum()
        if pen_idx.size:
            corr = np.abs(A[:, pen_idx].T @ r).max()
        else:
            corr = 0.0
        scale = 1.0 if corr <= gamma or corr == 0 else gamma / corr
        nu = scale * r
        dual = nu @ y - 0.5 * (nu @ nu)
        if primal - dual <= gap_tol:
            break
    else:
        logger.warning("lasso coordinate descent did not reach the gap tolerance")
    return w


def _fit_one(Xt: np.ndarray, t: np.ndarray, d: np.ndarray, gamma: float,
             penalize_intercept: bool, iterations: int) -> np.ndarray:
    p1 = Xt.shape[0]
    w = np.zeros(p1)
    w[0] = _log_event_rate(t, d)
    if not d.any():
        return w  # intercept-only at the rate floor
    penalized = np.ones(p1, dtype=bool)
    if not penalize_intercept:
        penalized[0] = False
    for _ in range(iterations):
        eta = w @ Xt
        weights = t * np.exp(eta)  # Newton weights; sqrt enters the LS design
        u = eta + d / weights - 1.0
        sw = np.sqrt(weights)
        A = (Xt * sw).T
        y = u * sw
        if gamma > 0:
            w = _lasso_cd(A, y, gamma, penalized, w)
        else:
            w, *_ = np.linalg.lstsq(A, y, rcond=None)
    return w


def fit_ecph(X: np.ndarray, survival, penalty: PenaltyConfig | None = None,
             iterations: int = 5) -> tuple[HazardParams, HazardParams]:
    """Fit event (T) and censoring (C) hazards by the working-response iteration.

    The two parts factor, so they are fitted independently. Five outer
    iterations; each L1 subproblem is solved by coordinate descent.
    """
    Xt, t, d = _aligned(X, survival)
    if t.sum() <= 0:
        raise ValueError("total exposure is zero")
    penalty = penalty or PenaltyConfig()
    w_T = _fit_one(Xt, t, d, penalty.gamma_T, penalty.penalize_intercept, iterations)
    w_C = _fit_one(Xt, t, 1.0 - d, penalty.gamma_C, penalty.penalize_intercept, iterations)
    return HazardParams(w_T), HazardParams(w_C)


def ecph_predict(params_T: HazardParams, x: np.ndarray) -> float | np.ndarray:
    """Expected event time exp(-w^T x~); accepts a vector or a (p x N) matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        xt = np.concatenate([[1.0], x.ravel()])
        return float(np.exp(-params_T.w @ xt))
    return np.exp(-params_T.w @ _design(x))


def l1_support(params: HazardParams, tol: float = 1e-10) -> set[int]:
    """Indices (>= 1) of effect sizes with magnitude above ``tol``."""
    return {int(i) for i in np.where(np.abs(params.w) > tol)[0] if i >= 1}
