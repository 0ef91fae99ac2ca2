"""Shared builders for synthetic datasets used across the test suite."""

import numpy as np
import pytest

from latentsurv.data import CovariateBlock, Dataset, Survival


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
