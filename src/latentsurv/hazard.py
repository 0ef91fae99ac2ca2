"""Exponential proportional-hazards model with censoring.

Outcomes come as a ``data.Survival``: times t and event indicators d, one
entry per sample, the vectors every likelihood and Newton step works on.

Each part is fitted by Newton's method with backtracking, run to
convergence, on the negative log-likelihood plus, when gamma > 0, an L1
penalty on every weight, the intercept included (proximal Newton). A step
minimizes Newton's quadratic model, by least squares on the working response
or as a lasso by coordinate descent, whose feature-sign steps solve the
active Gram block by Cholesky (least squares where the block is singular).
A fit at gamma > 0 follows a warm-started geometric path of strengths from
0 down to its gamma approximately: one proximal Newton step at each strength
above gamma, whose only use is to start the next close to its optimum, and
Newton to convergence at gamma alone (Friedman, Hastie & Tibshirani 2010;
Wang, Liu & Zhang 2014).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Survival

logger = logging.getLogger(__name__)

DEGENERATE_RATE_EPS = 1e-8
# Newton for a hazard part: step cap, relative stop on the predicted
# decrease, Armijo fraction and the smallest step tried.
MAX_NEWTON_STEPS = 100
NEWTON_REL_TOL = 1e-10
ARMIJO = 1e-4
MIN_STEP = 1e-10
# A fit at gamma > 0 first takes one Newton step at each strength
# gamma_max * PATH_RATIO^k above its gamma, each from the last.
PATH_RATIO = 0.25
# The lasso stops at this duality gap relative to its primal objective, or
# warns after this many coordinate sweeps.
LASSO_GAP_TOL = 1e-10
LASSO_MAX_SWEEPS = 10_000
# The lasso's support counts as settled once a sweep over it moves no
# coordinate by more than this fraction of the model (step^2 * H_jj).
SETTLE_TOL = 1e-3
# A feature-sign step on a singular block follows its null space when the part of
# the right-hand side outside its range exceeds this fraction (rounding: ~1e-15).
NULL_TOL = 1e-8


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

    def __post_init__(self):
        if self.gamma_T < 0 or self.gamma_C < 0:
            raise ValueError("penalty strengths must be non-negative")


def _design(X: np.ndarray) -> np.ndarray:
    """Prepend the intercept row: (p+1) x N."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.vstack([np.ones(X.shape[1]), X])


def _aligned(X: np.ndarray, survival: Survival) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design (intercept row prepended), times and event indicators of the
    samples, after checking that X has one column per sample."""
    Xt = _design(X)
    if Xt.shape[1] != survival.time.size:
        raise ValueError("X columns must align with survival")
    return Xt, survival.time, survival.event


def _require_positive_times(survival: Survival) -> None:
    """Refuse a zero time, naming its sample: the hazards need positive times."""
    zero = np.flatnonzero(survival.time <= 0)
    if zero.size:
        raise ValueError(f"sample {zero[0]} has time 0; the hazards need positive times "
                         "(data.adjust_zero_times replaces zero times)")


def _intercept_start(t: np.ndarray, d: np.ndarray, p1: int) -> np.ndarray:
    """Intercept-only start of length p1: log(events / exposure), then zero
    effects; a class without events starts at the rate floor
    DEGENERATE_RATE_EPS / exposure instead."""
    n_events = d.sum()
    if n_events == 0:
        logger.warning("no observations in one outcome class; its rate is set to the floor")
        n_events = DEGENERATE_RATE_EPS
    w = np.zeros(p1)
    w[0] = np.log(n_events / t.sum())
    return w


def _part_log_likelihood(w: np.ndarray, Xt: np.ndarray, t: np.ndarray, d: np.ndarray) -> float:
    eta = w @ Xt
    return float(np.sum(d * eta - t * np.exp(eta)))


def ecph_log_likelihood(params_T: HazardParams, params_C: HazardParams,
                        X: np.ndarray, survival: Survival) -> float:
    """Log-likelihood of (event time, indicator) pairs; additive in the T and C parts."""
    Xt, t, d = _aligned(X, survival)
    return (_part_log_likelihood(params_T.w, Xt, t, d)
            + _part_log_likelihood(params_C.w, Xt, t, 1.0 - d))


def _lasso_cd(A: np.ndarray, y: np.ndarray, gamma: float, w0: np.ndarray) -> np.ndarray:
    """Coordinate descent for min_w 0.5*||y - A w||^2 + gamma * ||w||_1.

    Works on the Gram form H = A'A, b = A'y, so a coordinate update costs O(p).
    After each full sweep the nonzero coordinates are swept alone until they
    settle, and a feature-sign step (``_active_newton``) solves the model on
    them; the next full sweep lets coordinates enter. Stops when the duality
    gap is at most LASSO_GAP_TOL times the primal objective.
    """
    H = A.T @ A
    b = A.T @ y
    yy = float(y @ y)
    diag = H.diagonal()
    w = np.array(w0, dtype=float)
    w[diag == 0] = 0.0
    order = np.flatnonzero(diag > 0)
    # per-coordinate constants as Python floats: the sweep is a scalar loop
    rows = list(H)
    hjj = diag.tolist()
    gamma = float(gamma)

    def sweep(idx, g):
        """One pass over ``idx``; returns the largest (step^2 * H_jj)."""
        largest = 0.0
        for j in idx.tolist():
            old = float(w[j])
            z = float(g[j]) + hjj[j] * old
            if z > gamma:
                new = (z - gamma) / hjj[j]
            elif z < -gamma:
                new = (z + gamma) / hjj[j]
            else:
                new = 0.0
            if new != old:
                g -= rows[j] * (new - old)
                w[j] = new
                largest = max(largest, (new - old) ** 2 * hjj[j])
        return largest

    sweeps = 0
    while sweeps < LASSO_MAX_SWEEPS:
        g = b - H @ w  # A'r, refreshed so that rounding does not accumulate
        sweep(order, g)
        sweeps += 1
        g = b - H @ w
        # duality gap at the dual point nu = s*r, with s scaling r into the
        # feasible set; written with g'w so that it does not cancel near 0
        l1 = float(np.abs(w).sum())
        gw = float(g @ w)
        rr = max(yy - float(b @ w) - gw, 0.0)
        corr = float(np.abs(g).max())
        s = 1.0 if corr <= gamma else gamma / corr
        primal = 0.5 * rr + gamma * l1
        gap = 0.5 * (1.0 - s) ** 2 * rr + gamma * l1 - s * gw
        if gap <= LASSO_GAP_TOL * primal:
            logger.debug("lasso coordinate descent: %d sweeps, relative gap %.3g",
                         sweeps, gap / primal if primal else 0.0)
            return w
        active = order[w[order] != 0]
        while sweeps < LASSO_MAX_SWEEPS:
            sweeps += 1
            if sweep(active, g) <= SETTLE_TOL * primal:
                break
        w = _active_newton(H, b, w, gamma)
    logger.warning("lasso coordinate descent did not reach the gap tolerance")
    return w


def _active_newton(H: np.ndarray, b: np.ndarray, w: np.ndarray, gamma: float) -> np.ndarray:
    """Feature-sign step (Lee, Battle, Raina & Ng 2007) on the lasso model.

    Solves the model over the support of w with its signs held, then moves to
    the best point on the segment towards that solution: its end, or a point
    where a coordinate crosses zero (set to exactly zero there). Keeps w
    when no such point lowers the model. The solve factors the positive
    semi-definite Gram block by Cholesky; where the block is singular (more
    active coordinates than samples, or collinear active columns) it takes
    the minimum-norm least-squares solution instead (or, where the sign-held
    model is unbounded along the block's null space, that ray's first zero).
    """
    active = np.flatnonzero(w)
    H_aa = H[np.ix_(active, active)]
    start = w[active]
    rhs = b[active] - gamma * np.sign(start)
    # one np.linalg.solve(H_aa, rhs) misses the lasso's gap tolerance on a rank-deficient
    # design, and scipy's cho_solve would add scipy.linalg's 5.5 MB import to every run
    try:
        L = np.linalg.cholesky(H_aa)
        target = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    except np.linalg.LinAlgError:  # H_aa singular: the minimum-norm solution
        target = np.linalg.lstsq(H_aa, rhs, rcond=None)[0]
        ray = rhs - H_aa @ target  # the part of rhs outside H_aa's range
        with np.errstate(divide="ignore"):
            reach = np.where(start * ray < 0, -start / ray, np.inf)
        hit = int(np.argmin(reach))
        if np.linalg.norm(ray) > NULL_TOL * np.linalg.norm(rhs) and reach[hit] < np.inf:
            target = start + reach[hit] * ray
            target[hit] = 0.0
    step = target - start
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = -start / step
    taus = np.concatenate([[0.0, 1.0], cross[(cross > 0) & (cross < 1)]])
    points = start + taus[:, None] * step
    # the model along the segment relative to start; summing L1 changes keeps small decreases
    values = (taus * (step @ (H_aa @ start - b[active])) + 0.5 * taus ** 2 * (step @ H_aa @ step)
              + gamma * (np.abs(points) - np.abs(start)).sum(axis=1))
    best = int(np.argmin(values))
    out = w.copy()
    out[active] = points[best]
    out[active[cross == taus[best]]] = 0.0
    return out


def _working_response(w: np.ndarray, Xt: np.ndarray, t: np.ndarray,
                      d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares form (A, y) of Newton's quadratic model of the
    log-likelihood at w: 0.5*||y - A v||^2 equals the model up to a constant;
    then the Newton weights t * exp(w'x), which also give the gradient."""
    eta = w @ Xt
    weights = t * np.exp(eta)  # Newton weights; sqrt enters the LS design
    u = eta + d / weights - 1.0
    sw = np.sqrt(weights)
    return (Xt * sw).T, u * sw, weights


def _penalized_objective(w: np.ndarray, Xt: np.ndarray, t: np.ndarray, d: np.ndarray,
                         gamma: float) -> float:
    """-loglik(w) + gamma * ||w||_1 of one part."""
    with np.errstate(over="ignore"):  # a trial step may overflow exp
        return -_part_log_likelihood(w, Xt, t, d) + gamma * np.abs(w).sum()


def _newton_step(Xt: np.ndarray, t: np.ndarray, d: np.ndarray, w: np.ndarray, f: float,
                 gamma: float, step: int = 1) -> tuple[np.ndarray, float, bool]:
    """One damped Newton step from w, whose penalized objective is f; proximal
    Newton (Lee, Sun & Saunders 2014) when gamma > 0.

    Minimizes Newton's quadratic model, by least squares when gamma = 0 and by
    ``_lasso_cd`` otherwise, and halves the step until the Armijo condition
    holds, so the objective never rises. Returns the new weights, their
    objective and whether the fit is done: the predicted decrease fell below
    NEWTON_REL_TOL times the objective, or no step decreases it (a warning).
    """
    A, y, weights = _working_response(w, Xt, t, d)
    if gamma > 0:
        v = _lasso_cd(A, y, gamma, w)
    else:
        v = np.linalg.lstsq(A, y, rcond=None)[0]
    grad = Xt @ (weights - d)
    decrease = -(grad @ (v - w) + gamma * (np.abs(v).sum() - np.abs(w).sum()))
    # once the predicted decrease is negligible, the full step is taken
    # only if rounding does not make it raise the objective
    converged = decrease <= NEWTON_REL_TOL * abs(f)
    size, trial = 1.0, v
    f_trial = _penalized_objective(v, Xt, t, d, gamma)
    while not converged and f_trial > f - ARMIJO * size * decrease:
        if size < MIN_STEP:
            logger.warning("hazard fit did not converge: no step decreases the objective")
            return w, f, True
        size *= 0.5
        trial = w + size * (v - w)
        f_trial = _penalized_objective(trial, Xt, t, d, gamma)
    if f_trial <= f:
        w, f = trial, f_trial
        logger.debug("hazard fit step %d: step size %g, penalized objective %.17g",
                     step, size, f)
    return w, f, converged


def _step_from(Xt: np.ndarray, t: np.ndarray, d: np.ndarray, w: np.ndarray,
               gamma: float) -> np.ndarray:
    """One ``_newton_step`` from w at strength gamma: an L1 path step, or an MCEM M-step."""
    f = _penalized_objective(w, Xt, t, d, gamma)
    return _newton_step(Xt, t, d, w, f, gamma)[0]


def _newton_fit(Xt: np.ndarray, t: np.ndarray, d: np.ndarray, w: np.ndarray,
                gamma: float) -> np.ndarray:
    """Newton with backtracking for min_w -loglik(w) + gamma * ||w||_1:
    ``_newton_step`` from w until it is done, or a warning after
    MAX_NEWTON_STEPS steps."""
    f = _penalized_objective(w, Xt, t, d, gamma)
    for step in range(1, MAX_NEWTON_STEPS + 1):
        w, f, done = _newton_step(Xt, t, d, w, f, gamma, step)
        if done:
            return w
    logger.warning("hazard fit did not converge in %d steps", MAX_NEWTON_STEPS)
    return w


def _fit_one(Xt: np.ndarray, t: np.ndarray, d: np.ndarray, gamma: float) -> np.ndarray:
    """Weights of one part at L1 strength gamma on every weight, intercept included.

    At gamma = 0, Newton from the intercept-only start. At gamma > 0 the fit
    starts at 0, the solution for every strength from gamma_max, the largest
    gradient entry at 0, upwards. It then takes one proximal Newton step
    (``_step_from``) at each gamma_max * PATH_RATIO^k (k = 1, 2, ...) still
    above gamma, each from the last, and runs proximal Newton to convergence
    (``_newton_fit``) at gamma only: the intermediate points serve only as
    warm starts, so they need not be optimal.
    """
    p1 = Xt.shape[0]
    w = _intercept_start(t, d, p1)
    if not d.any():
        return w  # intercept-only at the rate floor
    if gamma == 0 and p1 >= t.size and not d.all() and np.linalg.matrix_rank(Xt) == t.size:
        # every linear predictor is reachable, so a censored term's
        # -t exp(eta) has no maximiser; the fit stops where its rule cuts
        logger.warning("no maximum-likelihood estimate: the design has rank N = %d and a "
                       "censored sample; the weights depend on the stop rule", t.size)
    if gamma > 0:
        w = np.zeros(p1)
        level = np.abs(Xt @ (t - d)).max()  # the largest gradient entry at 0
        while (level := level * PATH_RATIO) > gamma:
            w = _step_from(Xt, t, d, w, level)
    return _newton_fit(Xt, t, d, w, gamma)


def fit_ecph(X: np.ndarray, survival: Survival,
             penalty: PenaltyConfig | None = None) -> tuple[HazardParams, HazardParams]:
    """Fit event (T) and censoring (C) hazards on the (p x N) covariates X and
    the samples' ``Survival`` (times and 0/1 events).

    The two parts factor, so they are fitted independently (``_fit_one``),
    each by Newton's method with backtracking run to convergence; a part with
    a positive L1 strength penalizes every weight, the intercept included,
    and first takes one proximal Newton step at each strength of a
    warm-started path, from the smallest at which all its weights are 0 down
    towards its own by factors of PATH_RATIO, and converges at its own
    strength only. At gamma = 0 a part logs a warning when its MLE cannot
    exist: the design has rank N and the part has a censored sample. Every
    time must be positive; ``data.adjust_zero_times`` replaces zero times.
    """
    Xt, t, d = _aligned(X, survival)
    _require_positive_times(survival)
    penalty = penalty or PenaltyConfig()
    w_T = _fit_one(Xt, t, d, penalty.gamma_T)
    w_C = _fit_one(Xt, t, 1.0 - d, penalty.gamma_C)
    return HazardParams(w_T), HazardParams(w_C)


def ecph_predict(params_T: HazardParams, x: np.ndarray) -> float | np.ndarray:
    """Expected event time exp(-w^T x~); accepts a vector or a (p x N) matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        xt = np.concatenate([[1.0], x.ravel()])
        return float(np.exp(-params_T.w @ xt))
    return np.exp(-params_T.w @ _design(x))

