"""Shared builders for synthetic datasets, and oracles, used across the test suite."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from latentsurv.data import CovariateBlock, Dataset, Survival
from latentsurv.factor import _FitBlock, diverse_estep
from latentsurv.joint import _metropolis, effective_sample_size, split_rhat
from latentsurv.simulate import SimScenario


def make_survival(times, events):
    return Survival(time=times, event=events)


def normal_block(rng, d_x, N, name="norm", W=None, mu=None, psi=None, d_z=2):
    W = rng.normal(size=(d_x, d_z)) if W is None else W
    mu = rng.normal(size=d_x) if mu is None else mu
    psi = rng.uniform(0.5, 1.5, size=d_x) if psi is None else psi
    Z = rng.standard_normal((W.shape[1], N))
    X = W @ Z + mu[:, None] + rng.standard_normal((d_x, N)) * np.sqrt(psi)[:, None]
    return CovariateBlock(name=name, kind="normal", b=1, values=X,
                          feature_names=tuple(f"{name}_{i}" for i in range(d_x)))


def binomial_block(rng, d_x, N, name="bin", b=1, d_z=2, scale=1.0):
    from scipy.special import expit
    W = rng.normal(scale=scale, size=(d_x, d_z))
    Z = rng.standard_normal((d_z, N))
    X = rng.binomial(b, expit(W @ Z)).astype(float)
    return CovariateBlock(name=name, kind="binomial", b=b, values=X,
                          feature_names=tuple(f"{name}_{i}" for i in range(d_x)))


def multinomial_block(rng, d_x, N, name="mult", b=1, d_z=2, scale=1.0):
    from scipy.special import softmax
    W = rng.normal(scale=scale, size=(d_x, d_z))
    W[-1] = 0.0
    Z = rng.standard_normal((d_z, N))
    probs = softmax(W @ Z, axis=0)
    X = np.empty((d_x, N))
    for n in range(N):
        X[:, n] = rng.multinomial(b, probs[:, n])
    return CovariateBlock(name=name, kind="multinomial", b=b, values=X,
                          feature_names=tuple(f"{name}_{i}" for i in range(d_x)))


def make_dataset(rng, N=40, d_z=2, with_binomial=False, with_multinomial=False,
                 d_x_normal=8):
    blocks = [normal_block(rng, d_x_normal, N, d_z=d_z)]
    if with_binomial:
        blocks.append(binomial_block(rng, 6, N, d_z=d_z))
    if with_multinomial:
        blocks.append(multinomial_block(rng, 3, N, d_z=d_z))
    times = rng.exponential(1.0, size=N)
    events = rng.random(N) < 0.6
    return Dataset(blocks=tuple(blocks), survival=make_survival(times, events),
                   sample_ids=tuple(f"s{j}" for j in range(N)))


def _fields_dict(obj) -> dict:
    """A dataclass's fields by name, with arrays and tuples as lists."""
    return {field.name: value.tolist() if isinstance(value, np.ndarray)
            else list(value) if isinstance(value, tuple) else value
            for field in dataclasses.fields(obj) for value in [getattr(obj, field.name)]}


def scenario_to_dict(scenario: SimScenario) -> dict:
    """The scenario document ``serialize.load_scenario`` reads back."""
    return {**_fields_dict(scenario), "blocks": [_fields_dict(s) for s in scenario.blocks]}


def gaussian_log_likelihood(params, X) -> float:
    """Exact marginal log-density of a normal block: N(mu, W W^T + Psi)."""
    X = np.asarray(X, dtype=float)
    d_x, N = X.shape
    cov = params.W @ params.W.T + np.diag(params.psi)
    Xc = X - params.mu[:, None]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise FloatingPointError("marginal covariance not positive definite")
    sol = np.linalg.solve(cov, Xc)
    quad = np.einsum("in,in->", Xc, sol)
    return float(-0.5 * (N * (d_x * math.log(2 * math.pi) + logdet) + quad))


def count_fit_block(X, b=1) -> _FitBlock:
    """A count block's values as the M-step and E-step read them, without the
    data-only term."""
    X = np.asarray(X, dtype=float)
    return _FitBlock(X, b, None, X - b / 2.0)


def single_block_estep(params, state, X, b=1):
    """Posterior given one block: normal without a state, multinomial when the
    state carries alpha, binomial otherwise."""
    return diverse_estep([params], [state], [count_fit_block(X, b)])


def metropolis_chains(targets, n, kappa, config, rngs):
    """Chains of sample n from its posterior mean with proposal N(z, kappa C_n),
    one per generator, run by ``joint._metropolis`` as ``tune_kappa`` runs a rung: the
    kept draws (M, n_keep, d_z), the mean acceptance rate, and the n_eff and
    R-hat of |z|^2."""
    kept, rates = _metropolis(targets.rows([n] * len(rngs)), kappa, rngs, config)
    stat = np.einsum("msj,msj->ms", kept, kept)
    return kept, float(np.mean(rates)), effective_sample_size(stat), max(split_rhat(stat), 1.0)


def l1_support(params, tol=1e-10) -> set[int]:
    """Indices (>= 1) of a hazard's effect sizes with magnitude above ``tol``."""
    return {int(i) for i in np.flatnonzero(np.abs(params.w) > tol) if i >= 1}


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns a one-item list holding its call count."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
