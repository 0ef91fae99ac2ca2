"""Joint latent-factor plus exponential-hazards model.

The marginal likelihood is intractable once the survival terms enter, so the
E-step draws from each individual's conditional latent distribution with a
random-walk Metropolis sampler (proposal covariance kappa * C_n from the
factor-only posterior). One lockstep runner (``_metropolis``) runs every
chain: the E-step's N chains and each kappa rung's tuning chains. The
proposal scale is the first rung of the kappa ladder whose tuning chains
meet fixed acceptance, n_eff and R-hat thresholds; n_eff comes from FFT
autocorrelations. M-steps run the factor layer's conditional sweep against
the Monte-Carlo moments, plus one Armijo-damped Newton step of ``hazard``
per hazard on the kept draws, so its Monte-Carlo Q never falls.
Prediction integrates the latent vector out analytically under the
factor-only posterior with the learning-set averages of the variational
parameters, the state a saved model keeps, so fitted and loaded models
predict alike.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import factor
from .data import Dataset
from .factor import FaModel, LatentPosterior, VariationalState
from .hazard import (HazardParams, _design, _intercept_start, _require_positive_times,
                     _step_from, fit_ecph)

logger = logging.getLogger(__name__)

# The two fit modes by command-line name; a JointModel records the value.
FIT_MODES = {"fast": "fast_decoupled", "full": "full_mcem"}
DEFAULT_KAPPA_LADDER = (6.0, 5.5, 5.0, 4.5, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.25, 0.1)
# A kappa rung passes when its TUNING_CHAINS chains accept between ACCEPT_LO
# and ACCEPT_HI of the proposals, with n_eff >= MIN_N_EFF and R-hat <= MAX_RHAT.
TUNING_CHAINS = 2
ACCEPT_LO = 0.134
ACCEPT_HI = 0.334
MIN_N_EFF = 10.0
MAX_RHAT = 1.2


@dataclass(frozen=True)
class MhConfig:
    kappa_ladder: tuple[float, ...] = DEFAULT_KAPPA_LADDER
    burn_in: int = 300
    n_keep: int = 300

    def __post_init__(self):
        ladder = tuple(float(k) for k in self.kappa_ladder)
        if any(k <= 0 for k in ladder) or not all(a > b for a, b in zip(ladder, ladder[1:])):
            raise ValueError("kappa ladder must be positive and strictly decreasing")
        object.__setattr__(self, "kappa_ladder", ladder)


@dataclass(frozen=True)
class JointModel:
    fa: FaModel
    w_T: HazardParams
    w_C: HazardParams
    kappa_used: float | None
    fit_mode: str  # a value of FIT_MODES

    def __post_init__(self):
        if self.fit_mode not in FIT_MODES.values():
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")
        if self.w_T.w.size != self.fa.d_z + 1 or self.w_C.w.size != self.fa.d_z + 1:
            raise ValueError("hazard parameter length must be d_z + 1")


# ---------------------------------------------------------------------------
# conditional target density
# ---------------------------------------------------------------------------

class SampleTargets:
    """Per-sample conditional log-densities log p(t, delta | z) + log p~(x | z) + log p(z),
    up to constants in z. Evaluates one latent point per sample, for all samples at once."""

    def __init__(self, block_params, variational, blocks, w_T: HazardParams,
                 w_C: HazardParams, times: np.ndarray, events: np.ndarray):
        # the precision includes the prior; h is (d_z, N)
        self.prec, self.h = factor._accumulate(blocks, block_params, variational)
        self.w_T = w_T.w
        self.w_C = w_C.w
        self.t = np.asarray(times, dtype=float)
        self.d = np.asarray(events, dtype=float)
        self.N = self.h.shape[1]

    def rows(self, idx) -> SampleTargets:
        """The targets of samples ``idx``, in that order (repeats allowed)."""
        out = copy.copy(self)
        out.prec, out.h = self.prec[idx], self.h[:, idx]
        out.t, out.d = self.t[idx], self.d[idx]
        out.N = len(idx)
        return out

    def logp_all(self, Z: np.ndarray) -> np.ndarray:
        """Z has shape (N, d_z): one latent point per sample."""
        quad = -0.5 * np.einsum("nj,njk,nk->n", Z, self.prec, Z)
        lin = np.einsum("jn,nj->n", self.h, Z)
        eta_T = self.w_T[0] + Z @ self.w_T[1:]
        eta_C = self.w_C[0] + Z @ self.w_C[1:]
        # an overflowing proposal scores -inf and is rejected
        with np.errstate(over="ignore"):
            surv = (self.d * eta_T + (1.0 - self.d) * eta_C
                    - self.t * (np.exp(eta_T) + np.exp(eta_C)))
        return quad + lin + surv


# ---------------------------------------------------------------------------
# Metropolis-Hastings sampling and diagnostics
# ---------------------------------------------------------------------------

def _chain_variances(chains: np.ndarray):
    """Within-chain variance W, the chain means and the pooled variance
    var+ = (n - 1) / n W + B / n of (m, n) draws (B = 0 for one chain)."""
    m, n = chains.shape
    W = chains.var(axis=1, ddof=1).mean()
    means = chains.mean(axis=1)
    B = n * means.var(ddof=1) if m > 1 else 0.0
    return W, means, (n - 1) / n * W + B / n


def split_rhat(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction of a scalar statistic, (m, n) draws."""
    m, n = chains.shape
    half = n // 2
    W, _, var_plus = _chain_variances(chains[:, : 2 * half].reshape(2 * m, half))
    if W <= 0:
        return 1.0
    return float(np.sqrt(var_plus / W))


def effective_sample_size(chains: np.ndarray) -> float:
    """Multi-chain effective sample size, (m, n) draws. The autocovariance at
    lag t is the mean over chains of the mean product over the n - t
    overlapping pairs, all lags from one FFT. The autocorrelations are summed
    in pairs (rho_1 + rho_2, rho_3 + rho_4, ...) up to the first negative pair,
    each pair capped by the one before (Geyer's initial monotone sequence)."""
    m, n = chains.shape
    W, means, var_plus = _chain_variances(chains)
    if var_plus <= 0:
        return float(m * n)
    spectrum = np.fft.rfft(chains - means[:, None], 2 * n)  # zero-padded: no wrap-around
    lag_sums = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:, :n]
    acov = (lag_sums / np.arange(n, 0, -1)).mean(axis=0)
    rho = 1.0 - (W - acov) / var_plus
    pairs = rho[1:n - 1:2] + rho[2:n:2]
    negative = np.flatnonzero(pairs < 0)
    if negative.size:
        pairs = pairs[:negative[0]]
    n_eff = m * n / (1.0 + 2.0 * np.minimum.accumulate(pairs).sum())
    return float(min(n_eff, m * n))


def _metropolis(targets: SampleTargets, Z0: np.ndarray, chol: np.ndarray, rngs,
               burn_in: int, n_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk Metropolis chains in lockstep, one per row of ``targets``:
    chain m starts at Z0[m], proposes z + chol[m] @ eps and draws from its own
    generator rngs[m], so it equals the same chain run alone. Returns the kept
    draws (M, n_keep, d_z) and each chain's acceptance rate."""
    M, d_z = Z0.shape
    steps = burn_in + n_keep
    eps = np.empty((M, steps, d_z))
    logu = np.empty((M, steps))
    for m, rng in enumerate(rngs):
        eps[m] = rng.standard_normal((steps, d_z))
        logu[m] = np.log(rng.random(steps))
    Z = Z0.copy()
    lp = targets.logp_all(Z)
    kept = np.empty((M, n_keep, d_z))
    accepted = np.zeros(M)
    for s in range(steps):
        prop = Z + np.einsum("njk,nk->nj", chol, eps[:, s])
        lp_prop = targets.logp_all(prop)
        accept = logu[:, s] < lp_prop - lp
        Z[accept] = prop[accept]
        lp[accept] = lp_prop[accept]
        accepted += accept
        if s >= burn_in:
            kept[:, s - burn_in] = Z
    return kept, accepted / steps


def tune_kappa(targets: SampleTargets, config: MhConfig, seed: int,
               z0: np.ndarray, C_n: np.ndarray) -> float:
    """Walk the kappa ladder (descending) on sample 0: each rung runs its own
    TUNING_CHAINS chains from z0 with proposal N(z, kappa C_n) through
    ``_metropolis``. Return the first scale whose acceptance rate, and the
    n_eff and R-hat of |z|^2, meet the thresholds, else the best composite
    candidate with a warning."""
    rows = targets.rows([0] * TUNING_CHAINS)
    Z0 = np.tile(z0, (TUNING_CHAINS, 1))
    results = []
    for i, kappa in enumerate(config.kappa_ladder):
        rngs = [np.random.default_rng(ss)
                for ss in np.random.SeedSequence(seed + i).spawn(TUNING_CHAINS)]
        chol = np.linalg.cholesky(kappa * C_n)
        kept, rates = _metropolis(rows, Z0, np.broadcast_to(chol, (TUNING_CHAINS,) + chol.shape),
                                  rngs, config.burn_in, config.n_keep)
        stat = np.einsum("msj,msj->ms", kept, kept)
        acceptance, n_eff = float(np.mean(rates)), effective_sample_size(stat)
        if (ACCEPT_LO <= acceptance <= ACCEPT_HI
                and n_eff >= MIN_N_EFF and max(split_rhat(stat), 1.0) <= MAX_RHAT):
            return kappa
        dist = max(ACCEPT_LO - acceptance, acceptance - ACCEPT_HI, 0.0)
        results.append((dist, -n_eff, kappa))
    results.sort()
    logger.warning("no kappa in the ladder met all thresholds; using best composite %.3g",
                   results[0][2])
    return results[0][2]


# ---------------------------------------------------------------------------
# full fits
# ---------------------------------------------------------------------------

def _hazard_mstep(w: HazardParams, samples: np.ndarray, times: np.ndarray,
                  events: np.ndarray) -> HazardParams:
    """One part's M-step from the kept draws (N, S, d_z) (pass delta or 1 - delta):
    up to 1/S its Monte-Carlo Q is the log-likelihood of the N*S draws taken as
    samples, so ``hazard``'s damped Newton step on them never lowers Q."""
    N, S, d_z = samples.shape
    Xt = _design(samples.reshape(N * S, d_z).T)
    return HazardParams(_step_from(Xt, np.repeat(times, S), np.repeat(events, S), w.w, 0.0))


def fit_joint(dataset: Dataset, d_z: int, gem_iters: int = 10,
              mh: MhConfig | None = None, seed: int = 0) -> JointModel:
    """Approximate generalized EM for ``gem_iters`` >= 0 iterations: Metropolis
    E-step, the factor layer's conditional sweep against the Monte-Carlo
    moments, per hazard one Armijo-damped Newton step of ``hazard`` on the
    kept draws (``_hazard_mstep``), which never lowers its Monte-Carlo Q."""
    if gem_iters < 0:
        raise ValueError(f"gem_iters={gem_iters} must be non-negative")
    mh = mh or MhConfig()
    _require_positive_times(dataset.survival)
    times = dataset.times()
    events = dataset.events()
    fa_model, _ = factor.fit_fa(dataset, d_z)
    params, states = fa_model.block_params, fa_model.variational
    heywood = fa_model.heywood_flag
    w_T, w_C = (HazardParams(_intercept_start(times, d, d_z + 1)) for d in (events, 1.0 - events))

    seed_root = np.random.SeedSequence(seed)
    tune_seed = int(seed_root.generate_state(1)[0] % (2**31))
    kappa = None
    blocks = dataset.blocks
    data = [factor._fit_block(block) for block in blocks]
    for it in range(gem_iters):
        targets = SampleTargets(params, states, blocks, w_T, w_C, times, events)
        post = factor._posterior_from_inverse(np.linalg.inv(targets.prec), targets.h)
        if kappa is None:
            kappa = tune_kappa(targets, mh, tune_seed, post.mean[:, 0].copy(), post.cov[0])
        # one chain per sample, each with its own generator: (N, n_keep, d_z) draws
        rngs = [np.random.default_rng(ss) for ss in seed_root.spawn(1)[0].spawn(targets.N)]
        samples, _ = _metropolis(targets, post.mean.T, np.linalg.cholesky(kappa * post.cov),
                                 rngs, mh.burn_in, mh.n_keep)

        # Monte-Carlo posterior moments for the factor M-steps
        mean = samples.mean(axis=1).T  # (d_z, N)
        second = np.einsum("nsj,nsk->njk", samples, samples) / samples.shape[1]
        cov = second - np.einsum("jn,kn->njk", mean, mean)
        mc_post = LatentPosterior(mean=mean, cov=cov)

        params, states = factor._conditional_sweep(data, params, states, mc_post)
        heywood = heywood or factor._heywood(params, data)

        w_T = _hazard_mstep(w_T, samples, times, events)
        w_C = _hazard_mstep(w_C, samples, times, 1.0 - events)

    fa_out = FaModel(d_z=d_z, block_params=tuple(params),
                     variational=tuple(states), heywood_flag=heywood)
    return JointModel(fa=fa_out, w_T=w_T, w_C=w_C,
                      kappa_used=kappa, fit_mode=FIT_MODES["full"])


def fit_fast(dataset: Dataset, d_z: int, seed: int = 0) -> JointModel:
    """Decoupled approximation: fit the factor model to convergence, then fit
    the hazards on the posterior means as covariates. The fit is
    deterministic; ``seed`` is accepted, and unused, so that every fitter
    takes the same arguments."""
    _require_positive_times(dataset.survival)
    fa_model, post = factor.fit_fa(dataset, d_z)
    w_T, w_C = fit_ecph(post.mean, dataset.survival)
    return JointModel(fa=fa_model, w_T=w_T, w_C=w_C,
                      kappa_used=None, fit_mode=FIT_MODES["fast"])


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def averaged_variational(model: FaModel) -> tuple[tuple[np.ndarray, float | None] | None, ...]:
    """Learning-set averages of the variational parameters, broadcastable to
    any number of prediction samples (one shared column per feature)."""
    out = []
    for state in model.variational:
        if state is None:
            out.append(None)
            continue
        xi_bar = state.xi.mean(axis=1)
        alpha_bar = None if state.alpha is None else float(state.alpha.mean())
        out.append((xi_bar, alpha_bar))
    return tuple(out)


def _prediction_posterior(model: JointModel, blocks) -> LatentPosterior:
    """Factor-only posterior of ``blocks`` under one shared column of averaged
    variational parameters and C-ordered loadings: the state that
    ``serialize.model_from_dict`` rebuilds, so a fitted model and its saved
    copy run the same arithmetic."""
    params = [replace(p, W=np.ascontiguousarray(p.W)) for p in model.fa.block_params]
    states = [None if avg is None
              else VariationalState(xi=avg[0][:, None],
                                    alpha=None if avg[1] is None else np.array([avg[1]]))
              for avg in averaged_variational(model.fa)]
    return factor.diverse_estep(params, states, blocks)


def joint_predict(model: JointModel, blocks) -> np.ndarray:
    """Expected event time per sample: the analytic latent integral of the
    exponential mean under the factor-only posterior with averaged variational
    parameters. Returns a length-N vector."""
    post = _prediction_posterior(model, blocks)
    beta = model.w_T.beta
    quad = 0.5 * np.einsum("j,njk,k->n", beta, post.cov, beta)
    lin = post.mean.T @ beta
    return np.exp(-model.w_T.log_baseline + quad - lin)
