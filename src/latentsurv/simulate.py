"""Generative sampling from the joint latent-factor survival model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, softmax

from .data import CovariateBlock, Dataset, Survival
from .joint import JointModel


@dataclass(frozen=True)
class BlockSpec:
    name: str
    kind: str
    d_x: int
    b: int = 1
    # explicit parameters; if W is None a random recipe is drawn
    W: np.ndarray | None = None
    mu: np.ndarray | None = None
    psi: np.ndarray | None = None
    w_scale: float = 1.0
    psi_range: tuple[float, float] = (0.5, 1.5)


@dataclass(frozen=True)
class SimScenario:
    d_z: int
    blocks: tuple[BlockSpec, ...]
    w_T: np.ndarray
    w_C: np.ndarray
    n_train: int
    n_test: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "w_T", np.asarray(self.w_T, dtype=float).ravel())
        object.__setattr__(self, "w_C", np.asarray(self.w_C, dtype=float).ravel())
        if self.w_T.size != self.d_z + 1 or self.w_C.size != self.d_z + 1:
            raise ValueError("hazard parameters must have length d_z + 1")
        for spec in self.blocks:
            if spec.W is not None and np.shape(spec.W) != (spec.d_x, self.d_z):
                raise ValueError(f"block {spec.name!r}: W shape mismatch")


def _realize_params(spec: BlockSpec, d_z: int, rng: np.random.Generator):
    if spec.W is not None:
        W = np.asarray(spec.W, dtype=float)
        mu = np.zeros(spec.d_x) if spec.mu is None else np.asarray(spec.mu, dtype=float)
        psi = np.ones(spec.d_x) if spec.psi is None else np.asarray(spec.psi, dtype=float)
    else:
        W = rng.normal(scale=spec.w_scale, size=(spec.d_x, d_z))
        mu = np.zeros(spec.d_x)
        psi = rng.uniform(*spec.psi_range, size=spec.d_x)
    if spec.kind == "multinomial":
        W = W.copy()
        mu = mu.copy()
        W[-1, :] = 0.0
        mu[-1] = 0.0
    return W, mu, psi


def _sample_block(spec: BlockSpec, W, mu, psi, Z: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    lin = W @ Z + mu[:, None]
    if spec.kind == "normal":
        return lin + rng.standard_normal(lin.shape) * np.sqrt(psi)[:, None]
    if spec.kind == "binomial":
        return rng.binomial(spec.b, expit(lin)).astype(float)
    return rng.multinomial(spec.b, softmax(lin, axis=0).T).T.astype(float)


def simulate_dataset(scenario: SimScenario):
    """Draw (train, test) datasets. Training samples carry censoring via the
    competing censoring hazard; test samples observe the event directly.
    Returns (train, test, true_latents) with latents keyed 'train'/'test'."""
    rng = np.random.default_rng(scenario.seed)
    d_z = scenario.d_z
    param_rng = np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(1)[0])
    realized = [_realize_params(spec, d_z, param_rng) for spec in scenario.blocks]

    def draw(n: int, censored: bool, tag: str):
        Z = rng.standard_normal((d_z, n))
        Zt = np.vstack([np.ones(n), Z])
        blocks = tuple(
            CovariateBlock(
                name=spec.name, kind=spec.kind, b=spec.b,
                values=_sample_block(spec, W, mu, psi, Z, rng),
                feature_names=tuple(f"{spec.name}_{i}" for i in range(spec.d_x)))
            for spec, (W, mu, psi) in zip(scenario.blocks, realized)
        )
        rate_T = np.exp(scenario.w_T @ Zt)
        t = rng.exponential(1.0 / rate_T)
        if censored:
            rate_C = np.exp(scenario.w_C @ Zt)
            c = rng.exponential(1.0 / rate_C)
            tt = np.minimum(t, c)
            delta = t <= c
        else:
            tt = t
            delta = np.ones(n, dtype=bool)
        ids = tuple(f"{tag}{j:05d}" for j in range(n))
        return Dataset(blocks=blocks, survival=Survival(time=tt, event=delta), sample_ids=ids), Z

    train, z_train = draw(scenario.n_train, censored=True, tag="tr")
    test, z_test = draw(scenario.n_test, censored=False, tag="te")
    return train, test, {"train": z_train, "test": z_test}


def scenario_from_model(model: JointModel, blocks, n_train: int, n_test: int,
                        seed: int) -> SimScenario:
    """Scenario carrying a fitted model's parameters verbatim; ``blocks`` gives
    the kinds/trial counts matching the fitted block parameters."""
    specs = []
    for block, params in zip(blocks, model.fa.block_params):
        specs.append(BlockSpec(
            name=block.name, kind=block.kind, d_x=params.d_x, b=block.b,
            W=params.W.copy(), mu=params.mu.copy(),
            psi=None if params.psi is None else params.psi.copy()))
    return SimScenario(d_z=model.fa.d_z, blocks=tuple(specs),
                       w_T=model.w_T.w.copy(), w_C=model.w_C.w.copy(),
                       n_train=n_train, n_test=n_test, seed=seed)
