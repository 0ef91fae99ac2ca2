"""Mixed-datatype factor analysis.

Gaussian blocks use exact EM; binomial and multinomial blocks use a quadratic
variational bound on the logistic/softmax likelihood, fitted by conditional
maximization (xi -> alpha -> loadings -> means). The latent posterior stays
Gaussian for any mix of block kinds, so one accumulation (``_accumulate``)
serves the E-step, the bound and the joint model's Metropolis targets. Each
conditional update maximises the expected bound with the latent posterior held
fixed, so a sweep runs against one posterior (ECM; Meng & Rubin 1993,
Biometrika 80), and one per-block M-step (``_block_mstep``), mapped over the
blocks by ``_conditional_sweep``, is the M-step of ``fit_fa`` and of the joint
model's Monte-Carlo EM. The bound is the log-normaliser of the posterior
Gaussian, so ``fit_fa`` gets both at each parameter point from one
accumulation and one inverse. The small-matrix kernels are GEMMs against
the outer products of the loading rows.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import CovariateBlock, Dataset

logger = logging.getLogger(__name__)

HEYWOOD_REL_THRESHOLD = 1e-8
PSI_FLOOR = 1e-12
XI_LIMIT = 1e-8


@dataclass(frozen=True)
class BlockParams:
    """Loadings W (d_x x d_z), means mu (d_x), and noise diagonal psi (normal blocks)."""

    W: np.ndarray
    mu: np.ndarray
    psi: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float).ravel())
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=float).ravel()
            if np.any(psi <= 0):
                raise ValueError("psi entries must be positive")
            object.__setattr__(self, "psi", psi)

    @property
    def d_x(self) -> int:
        return self.W.shape[0]

    @property
    def d_z(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class VariationalState:
    """Per-feature, per-sample xi (stored as the non-negative root) and, for
    multinomial blocks, the per-sample constraint parameter alpha."""

    xi: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if np.any(xi < 0):
            raise ValueError("xi must be non-negative")
        object.__setattr__(self, "xi", xi)
        if self.alpha is not None:
            object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).ravel())

    @cached_property
    def lam(self) -> np.ndarray:
        """lambda(xi), computed once per state."""
        return lambda_of_xi(self.xi)

    def with_alpha(self, alpha) -> VariationalState:
        """This state with a new alpha; xi is unchanged, so lambda(xi) carries over."""
        moved = replace(self, alpha=alpha)
        moved.__dict__["lam"] = self.lam
        return moved


@dataclass(frozen=True)
class LatentPosterior:
    """Per-sample posterior mean (d_z x N) and covariance stack (N x d_z x d_z)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))

    def second_moments(self) -> np.ndarray:
        """E[z z^T | x] per sample: cov_n + mean_n mean_n^T, shape (N, d_z, d_z)."""
        return self._ezz

    @cached_property
    def _ezz(self) -> np.ndarray:  # computed once per posterior
        return self.cov + np.einsum("jn,kn->njk", self.mean, self.mean)

    def sum_second_moments(self) -> np.ndarray:
        return self.cov.sum(axis=0) + self.mean @ self.mean.T


@dataclass(frozen=True)
class FaModel:
    d_z: int
    block_params: tuple[BlockParams, ...]
    variational: tuple[VariationalState | None, ...]
    heywood_flag: bool = False

    def __post_init__(self):
        if self.d_z < 1:
            raise ValueError("d_z must be >= 1")
        object.__setattr__(self, "block_params", tuple(self.block_params))
        object.__setattr__(self, "variational", tuple(self.variational))
        for i, (params, state) in enumerate(zip(self.block_params, self.variational)):
            if (params.psi is None) == (state is None):
                raise ValueError(f"block {i}: needs either psi (normal) or a variational state")
            d_x = params.W.shape[:1]
            if (params.W.shape[1:] != (self.d_z,) or params.mu.shape != d_x
                    or (params.psi is not None and params.psi.shape != d_x)
                    or (state is not None and state.xi.shape[:1] != d_x)):
                raise ValueError(f"block {i}: W must be d_x x {self.d_z}, and mu, psi "
                                 "and the rows of xi must have length d_x")


def lambda_of_xi(xi):
    """(sigma(xi) - 1/2) / (2 xi), computed as tanh(xi / 2) / (4 xi), which has no
    cancellation at small xi, with the analytic limit 1/8 at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    big = np.abs(xi) > XI_LIMIT
    safe = np.where(big, xi, 1.0)  # no division by a zero xi
    out = np.where(big, np.tanh(0.5 * safe) / (4.0 * safe), 0.125)
    return float(out) if out.ndim == 0 else out


# A block's values, b, data-only term and centered counts, made once per fit by
# _fit_block: a normal block's psi floor and no centered counts, a count block's
# log binomial/multinomial coefficient and x - b/2.
_FitBlock = namedtuple("_FitBlock", "values b term centered")


def _estep_block(block) -> _FitBlock:
    """What the E-step reads of a block: a ``_FitBlock`` as it is, a
    ``CovariateBlock`` with its centered counts but without the data-only term."""
    if isinstance(block, _FitBlock):
        return block
    centered = None if block.kind == "normal" else block.values - block.b / 2.0
    return _FitBlock(block.values, block.b, None, centered)


def _fit_block(block: CovariateBlock) -> _FitBlock:
    X, b = block.values, block.b
    if block.kind == "normal":  # a tiny fraction of each feature's variance
        term = np.maximum(HEYWOOD_REL_THRESHOLD * X.var(axis=1), PSI_FLOOR)
    else:  # log k! from one table up to the largest count, indexed by the counts
        missing = np.isnan(X)
        counts = np.where(missing, 0.0, X).astype(np.intp)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(counts.max(initial=b) + 1)])
        if block.kind == "binomial":
            term = log_fact[b] - log_fact[counts] - log_fact[b - counts]
        else:
            term = log_fact[b] / block.d_x - log_fact[counts]
        term[missing] = np.nan
    return _estep_block(block)._replace(term=term)


# ---------------------------------------------------------------------------
# per-block quadratic contributions to the latent posterior
# ---------------------------------------------------------------------------

def _outer_rows(W: np.ndarray) -> np.ndarray:
    """Row i is vec(w_i w_i^T), the outer product of W's row i: (d_x, d_z^2)."""
    return (W[:, :, None] * W[:, None, :]).reshape(W.shape[0], -1)


def _weighted_sum(weights: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """(K, d, d): sum_m weights[k, m] F_m as one GEMM, where flat[m] = vec(F_m)."""
    d = math.isqrt(flat.shape[1])
    return (weights @ flat).reshape(-1, d, d)


def _centered_counts(centered: np.ndarray, b: int, state: VariationalState,
                     shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam (d_x x N) and the centering term (x - b/2) - 2 b lam * (shift [- alpha]),
    from the counts' x - b/2 (``_FitBlock.centered``)."""
    if state.alpha is not None:
        shift = shift - state.alpha[None, :]
    return state.lam, centered - 2.0 * b * state.lam * shift


def _block_quadratic(block: _FitBlock, params: BlockParams, state: VariationalState | None):
    """Precision contribution (N x d_z x d_z; a normal block's is one matrix
    broadcast over samples) and linear contribution h (d_z x N) of one block's
    (bounded) likelihood. A block without a variational state is normal; one
    whose state carries alpha is multinomial."""
    W = params.W
    if state is None:
        X = block.values
        Wp = W / params.psi[:, None]
        prec = np.broadcast_to(W.T @ Wp, (X.shape[1], W.shape[1], W.shape[1]))
        return prec, Wp.T @ (X - params.mu[:, None])
    lam, c = _centered_counts(block.centered, block.b, state, params.mu[:, None])
    return 2.0 * block.b * _weighted_sum(lam.T, _outer_rows(W)), W.T @ c


def _accumulate(blocks, block_params, variational) -> tuple[np.ndarray, np.ndarray]:
    """Posterior precision (N x d_z x d_z, prior included) and linear term
    h (d_z x N) given all blocks (``CovariateBlock``s or ``_FitBlock``s), which
    must have the parameters' per-block feature counts."""
    blocks = [_estep_block(block) for block in blocks]
    data_sizes = [block.values.shape[0] for block in blocks]
    model_sizes = [params.d_x for params in block_params]
    if data_sizes != model_sizes:
        raise ValueError(f"the blocks have {data_sizes} features, the parameters {model_sizes}")
    d_z = block_params[0].d_z
    N = blocks[0].values.shape[1]
    prec = np.broadcast_to(np.eye(d_z), (N, d_z, d_z)).copy()
    h = np.zeros((d_z, N))
    for block, params, state in zip(blocks, block_params, variational):
        p, hb = _block_quadratic(block, params, state)
        prec += p
        h += hb
    return prec, h


def _posterior_from_inverse(C: np.ndarray, h: np.ndarray) -> LatentPosterior:
    """N(C h, C) per sample, from the inverse precision C symmetrised."""
    C = 0.5 * (C + np.transpose(C, (0, 2, 1)))
    return LatentPosterior(mean=np.einsum("njk,kn->jn", C, h), cov=C)


def gaussian_mstep(X: np.ndarray, posterior: LatentPosterior,
                   psi_floor: np.ndarray | float = PSI_FLOOR) -> BlockParams:
    """Closed-form update: means, then loadings, then noise diagonal."""
    X = np.asarray(X, dtype=float)
    N = X.shape[1]
    if N <= posterior.mean.shape[0]:
        raise ValueError("need N > d_z")
    mu = X.mean(axis=1)
    Xc = X - mu[:, None]
    S_xz = Xc @ posterior.mean.T
    S_zz = posterior.sum_second_moments()
    W = np.linalg.solve(S_zz.T, S_xz.T).T
    psi = (np.einsum("ij,ij->i", Xc, Xc) - np.einsum("ij,ij->i", W, S_xz)) / N
    psi = np.maximum(psi, psi_floor)
    return BlockParams(W=W, mu=mu, psi=psi)


def diverse_estep(block_params, variational, blocks) -> LatentPosterior:
    """Joint posterior given all blocks."""
    prec, h = _accumulate(blocks, block_params, variational)
    return _posterior_from_inverse(np.linalg.inv(prec), h)


# ---------------------------------------------------------------------------
# conditional M-step updates for the variational blocks
# ---------------------------------------------------------------------------

def update_xi(params: BlockParams, posterior: LatentPosterior,
              alpha: np.ndarray | None = None) -> np.ndarray:
    """Optimal xi^2 = E[(W_i z + mu_i - alpha_n)^2]; returns the non-negative root."""
    W, mu = params.W, params.mu
    ezz = posterior.second_moments()
    quad = _outer_rows(W) @ ezz.reshape(ezz.shape[0], -1).T
    offset = mu[:, None] if alpha is None else mu[:, None] - alpha[None, :]
    xi_sq = quad + 2.0 * (W @ posterior.mean) * offset + offset**2
    return np.sqrt(np.maximum(xi_sq, 0.0))


def update_alpha(params: BlockParams, posterior: LatentPosterior,
                 state: VariationalState) -> np.ndarray:
    lam = state.lam
    denom = lam.sum(axis=0)
    if np.any(denom <= 0):
        raise FloatingPointError("degenerate multinomial variational weights")
    d_x = params.d_x
    lin = params.W @ posterior.mean + params.mu[:, None]
    return ((lam * lin).sum(axis=0) - (1.0 - d_x / 2.0) / 2.0) / denom


def update_W(centered: np.ndarray, b: int, params: BlockParams,
             posterior: LatentPosterior, state: VariationalState) -> np.ndarray:
    """Per-feature d_z-dimensional solves via the Cholesky factor of the
    weighted second-moment accumulation; ``centered`` holds the counts minus b/2."""
    lam, c = _centered_counts(centered, b, state, params.mu[:, None])
    ezz = posterior.second_moments()
    M = 2.0 * b * _weighted_sum(lam, ezz.reshape(ezz.shape[0], -1))
    r = c @ posterior.mean.T
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        logger.warning("semidefinite accumulation in loading update; adding ridge")
        M = M + 1e-10 * np.eye(params.d_z)
    return np.linalg.solve(M, r[:, :, None])[:, :, 0]


def update_mu(centered: np.ndarray, b: int, W: np.ndarray,
              posterior: LatentPosterior, state: VariationalState) -> np.ndarray:
    """The means given W; ``centered`` holds the counts minus b/2."""
    lam, c = _centered_counts(centered, b, state, W @ posterior.mean)
    return c.sum(axis=1) / (2.0 * b * lam.sum(axis=1))


def _block_mstep(block: _FitBlock, params: BlockParams, state: VariationalState | None,
                 post: LatentPosterior) -> tuple[BlockParams, VariationalState | None]:
    """One block's conditional updates against ``post``: a normal block's
    closed form without a state, else xi -> alpha (only when the state
    carries alpha, which makes the block multinomial and keeps the last row
    of W and mu zero) -> W -> mu."""
    X, b, floor, centered = block
    if state is None:
        return gaussian_mstep(X, post, psi_floor=floor), None
    state = replace(state, xi=update_xi(params, post, alpha=state.alpha))
    multi = state.alpha is not None
    if multi:
        state = state.with_alpha(update_alpha(params, post, state))
    W = update_W(centered, b, params, post, state)
    if multi:
        W[-1, :] = 0.0
    mu = update_mu(centered, b, W, post, state)
    if multi:
        mu[-1] = 0.0
    return BlockParams(W=W, mu=mu), state


def _conditional_sweep(data, params, states, post: LatentPosterior) -> tuple[tuple, tuple]:
    """The new parameters and states from ``_block_mstep`` on every block
    against the one posterior ``post``; ``data`` holds each block's ``_FitBlock``."""
    return tuple(zip(*(_block_mstep(*args, post) for args in zip(data, params, states))))


# ---------------------------------------------------------------------------
# objective, initialization, and the fitting loop
# ---------------------------------------------------------------------------

def _block_constant(block: _FitBlock, params: BlockParams,
                    state: VariationalState | None) -> np.ndarray:
    """z-independent part of each sample's (bounded) log-likelihood, length N."""
    X, b, comb, _ = block
    if state is None:
        Xc = X - params.mu[:, None]
        quad = np.einsum("in,in->n", Xc, Xc / params.psi[:, None])
        return -0.5 * (X.shape[0] * math.log(2 * math.pi) + np.log(params.psi).sum() + quad)
    xi = state.xi
    offset = params.mu[:, None]
    if state.alpha is not None:
        offset = offset - state.alpha[None, :]
    # log sigma(xi) = -log1p(exp(-xi)), which cannot overflow at xi >= 0
    per_feature = (comb - b * np.log1p(np.exp(-xi))
                   - 0.5 * b * (offset + xi)
                   - b * state.lam * (offset**2 - xi**2)
                   + X * params.mu[:, None])
    if state.alpha is None:
        return per_feature.sum(axis=0)
    return per_feature.sum(axis=0) - b * state.alpha


def variational_log_marginal(block_params, variational, blocks) -> float:
    """Sum over blocks/samples of the exact Gaussian marginal log-density
    (normal blocks) and the analytically integrated variational lower bound
    (binomial/multinomial blocks)."""
    data = [_fit_block(block) for block in blocks]
    return _posterior_and_bound(block_params, variational, data)[1]


def _posterior_and_bound(block_params, variational, data) -> tuple[LatentPosterior, float]:
    """The joint posterior and the bound (its log-normaliser) from one inverse;
    ``data`` holds each block's ``_FitBlock``."""
    prec, h = _accumulate(data, block_params, variational)
    const = sum(_block_constant(block, params, state)
                for block, params, state in zip(data, block_params, variational))
    sign, logdet = np.linalg.slogdet(prec)
    if np.any(sign <= 0):
        raise FloatingPointError("posterior precision not positive definite")
    C = np.linalg.inv(prec)
    quad = 0.5 * np.einsum("jn,njk,kn->n", h, C, h)
    return _posterior_from_inverse(C, h), float((const + quad - 0.5 * logdet).sum())


def fa_objective(model: FaModel, dataset: Dataset) -> float:
    """Tracked objective: exact log-likelihood for normal blocks, the
    variational lower bound for the others."""
    return variational_log_marginal(model.block_params, model.variational, dataset.blocks)


def ppca_init(X: np.ndarray, d_z: int) -> BlockParams:
    """Closed-form warm start from the singular value decomposition.

    The loading scale (squared singular values minus the noise estimate, no
    square root) is kept as stated; the warm start only needs the subspace.
    """
    X = np.asarray(X, dtype=float)
    d_x, N = X.shape
    if N < 2:
        raise ValueError("need at least two samples")
    mu = X.mean(axis=1)
    U, s, _ = np.linalg.svd(X - mu[:, None], full_matrices=False)
    s_sq = np.zeros(max(d_x, d_z))
    s_sq[: s.size] = s**2
    if d_x > d_z:
        sigma_sq = s_sq[d_z:d_x].sum() / (N * (d_x - d_z))
        sigma_sq = max(sigma_sq, 1e-12)
        # leading covariance eigenvalues minus the noise level; the same 1/N
        # scaling as sigma^2 so the warm start is on the data's scale
        scale = s_sq[:d_z] / N - sigma_sq
        if np.any(scale < 0):
            logger.warning("rank-deficient data: negative loading scale in warm start")
        k = min(d_z, U.shape[1])  # N < d_z leaves the trailing columns zero
        W = np.zeros((d_x, d_z))
        W[:, :k] = U[:, :k] * scale[:k]
        psi = np.full(d_x, sigma_sq)
    else:
        W = np.ones((d_x, d_z))
        sigma_sq = max(s_sq[d_x - 1] / N, 1e-12)
        psi = np.full(d_x, sigma_sq)
    return BlockParams(W=W, mu=mu, psi=psi)


def _init_block(block: CovariateBlock, d_z: int) -> tuple[BlockParams, VariationalState | None]:
    params = ppca_init(block.values, d_z)
    if block.kind == "normal":
        return params, None
    params = replace(params, psi=None)
    N = block.n_samples
    state = VariationalState(
        xi=np.ones((block.d_x, N)),
        alpha=np.ones(N) if block.kind == "multinomial" else None,
    )
    if block.kind == "multinomial":  # zero last row of W and mu
        W, mu = params.W.copy(), params.mu.copy()
        W[-1, :], mu[-1] = 0.0, 0.0
        params = replace(params, W=W, mu=mu)
    return params, state


def _heywood(block_params, data) -> bool:
    for params, block in zip(block_params, data):
        # the M-step clamps psi at exactly this floor, so equality means the
        # unclamped estimate collapsed
        if params.psi is not None and np.any(params.psi <= block.term):
            return True
    return False


def _coord_arrays(params: BlockParams, state: VariationalState | None) -> list:
    """One block's coordinates of the EM map: W, mu, then log psi or xi (and alpha)."""
    if state is None:
        return [params.W, params.mu, np.log(params.psi)]
    return [a for a in (params.W, params.mu, state.xi, state.alpha) if a is not None]


def _coords(params, states) -> np.ndarray:
    return np.concatenate([a.ravel() for p, s in zip(params, states)
                           for a in _coord_arrays(p, s)])


def _from_coords(x: np.ndarray, params, states) -> tuple[list, list]:
    """The blocks at the point ``x`` of ``_coords``, shaped as ``params`` and
    ``states``, with psi = max(exp(log psi), PSI_FLOOR) and xi = |xi|."""
    new_params, new_states, pos = [], [], 0
    for p, s in zip(params, states):
        arrays = _coord_arrays(p, s)
        ends = pos + np.cumsum([a.size for a in arrays])
        W, mu, c, *alpha = (x[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends))
        pos = ends[-1]
        if s is None:
            new_params.append(BlockParams(W, mu, np.maximum(np.exp(c), PSI_FLOOR)))
            new_states.append(None)
        else:
            new_params.append(BlockParams(W, mu))
            new_states.append(VariationalState(np.abs(c), *alpha))
    return new_params, new_states


def _step_length(r: np.ndarray, v: np.ndarray) -> float:
    """SQUAREM's S3 step length -||r|| / ||v||, clamped to at most -1."""
    return min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)


def fit_fa(dataset: Dataset, d_z: int, max_iters: int = 500,
           rel_tol: float = 1e-6) -> tuple[FaModel, LatentPosterior]:
    """EM accelerated by SQUAREM (Varadhan & Roland 2008, Scand. J. Stat. 35,
    scheme S3), until the bound's relative change between accepted points
    falls below ``rel_tol``, or a WARNING after ``max_iters`` sweeps.

    The EM map F is the joint E-step plus one conditional sweep against that
    one posterior. Each update of the sweep maximises the expected bound under
    the posterior, which meets the bound at the E-step's point and lies below
    it elsewhere, so F never lowers the bound (ECM). A cycle maps
    x0 to x1 = F(x0) and x2 = F(x1) in (W, mu, log psi, xi, alpha), then takes
    F(x0 - 2 a r + a^2 v), with r = x1 - x0, v = x2 - 2 x1 + x0 and step
    a = min(-||r|| / ||v||, -1). It keeps that point if its bound is at least
    x0's, and x2 otherwise or when the extrapolation raises, so the bound
    never falls. ``max_iters`` caps the sweeps (map steps), run in whole
    cycles of three, so a capped fit stops at 498 of 500. Overflow,
    invalid and divide-by-zero arithmetic raise ``FloatingPointError``.

    Every cell must be observed: a block with a missing (NaN) cell is refused
    with a ``ValueError``; ``data.impute_missing`` fills such cells in."""
    if not 1 <= d_z < dataset.n_samples:
        raise ValueError(f"d_z={d_z} out of range for N={dataset.n_samples}")
    blocks = dataset.blocks
    for block in blocks:
        if np.isnan(block.values).any():
            raise ValueError(f"missing cells in block {block.name!r}; "
                             "impute them with latentsurv.data.impute_missing first")

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        data = [_fit_block(block) for block in blocks]
        params, states = zip(*(_init_block(block, d_z) for block in blocks))
        post, obj = _posterior_and_bound(params, states, data)
        sweeps, heywood, change = 0, False, math.nan
        while sweeps + 3 <= max_iters:  # whole cycles only
            sweeps += 3
            p1, s1 = _conditional_sweep(data, params, states, post)
            p2, s2 = _conditional_sweep(data, p1, s1, diverse_estep(p1, s1, data))
            x0, x1 = _coords(params, states), _coords(p1, s1)
            r, v = x1 - x0, _coords(p2, s2) - 2.0 * x1 + x0
            try:
                a = _step_length(r, v)
                pe, se = _from_coords(x0 - 2.0 * a * r + a * a * v, params, states)
                params, states = _conditional_sweep(data, pe, se, diverse_estep(pe, se, data))
                new_post, new = _posterior_and_bound(params, states, data)
            except (FloatingPointError, np.linalg.LinAlgError):
                new = -math.inf
            if not new >= obj:  # fall back to the two plain steps
                params, states = p2, s2
                new_post, new = _posterior_and_bound(params, states, data)
            heywood = heywood or _heywood(params, data)
            change = abs(new - obj) / max(abs(obj), 1.0)
            post, obj = new_post, new
            if change < rel_tol:
                logger.info("fit_fa converged after %d sweeps; change %.3g", sweeps, change)
                break
        else:
            logger.warning("fit_fa stopped at max_iters=%d before reaching rel_tol=%g; "
                           "last relative change %.3g", max_iters, rel_tol, change)
    model = FaModel(d_z=d_z, block_params=tuple(params),
                    variational=tuple(states), heywood_flag=heywood)
    return model, post
