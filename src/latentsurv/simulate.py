"""Generative sampling from the joint latent-factor survival model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BLOCK_KINDS, CovariateBlock, Dataset, Survival


@dataclass(frozen=True)
class BlockSpec:
    name: str
    kind: str
    d_x: int
    b: int = 1
    # explicit parameters, used whenever given; _realize_params fills the rest
    W: np.ndarray | None = None
    mu: np.ndarray | None = None
    psi: np.ndarray | None = None
    w_scale: float = 1.0
    psi_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        for name, kind in (("d_x", int), ("b", int), ("w_scale", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "psi_range", tuple(map(float, self.psi_range)))
        for name in ("W", "mu", "psi"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"block {self.name!r}: unknown block kind {self.kind!r}")
        if self.d_x < 1 or self.b < 1:
            raise ValueError(f"block {self.name!r}: d_x and b must be at least 1")
        lo, hi = self.psi_range
        if not 0 < lo <= hi:
            raise ValueError(f"block {self.name!r}: psi_range must satisfy 0 < lo <= hi")
        if any(a is not None and a.shape != (self.d_x,) for a in (self.mu, self.psi)):
            raise ValueError(f"block {self.name!r}: mu and psi must have d_x entries")
        if self.psi is not None and not np.all(self.psi > 0):
            raise ValueError(f"block {self.name!r}: psi entries must be positive")


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
        for name in ("d_z", "n_train", "n_test", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.d_z < 0 or self.n_train < 1 or self.n_test < 0 or self.seed < 0:
            raise ValueError("need d_z >= 0, n_train >= 1, n_test >= 0 and seed >= 0")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "w_T", np.asarray(self.w_T, dtype=float).ravel())
        object.__setattr__(self, "w_C", np.asarray(self.w_C, dtype=float).ravel())
        if self.w_T.size != self.d_z + 1 or self.w_C.size != self.d_z + 1:
            raise ValueError("hazard parameters must have length d_z + 1")
        for spec in self.blocks:
            if spec.W is not None and np.shape(spec.W) != (spec.d_x, self.d_z):
                raise ValueError(f"block {spec.name!r}: W shape mismatch")


def _realize_params(spec: BlockSpec, d_z: int, rng: np.random.Generator):
    """The spec's W, mu and psi where given. Otherwise W is drawn at w_scale,
    mu is zeros, and psi is ones beside an explicit W, else drawn from psi_range."""
    W = rng.normal(scale=spec.w_scale, size=(spec.d_x, d_z)) if spec.W is None else spec.W
    mu = np.zeros(spec.d_x) if spec.mu is None else spec.mu
    if spec.psi is not None:
        psi = spec.psi
    elif spec.W is not None:
        psi = np.ones(spec.d_x)
    else:
        psi = rng.uniform(*spec.psi_range, size=spec.d_x)
    if spec.kind == "multinomial":
        W = W.copy()
        mu = mu.copy()
        W[-1, :] = 0.0
        mu[-1] = 0.0
    return W, mu, psi


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)), from exp(-|x|) so that no x overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x: np.ndarray) -> np.ndarray:
    """The softmax over axis 0, shifted by each column's maximum."""
    e = np.exp(x - x.max(axis=0))
    return e / e.sum(axis=0)


def _sample_block(spec: BlockSpec, W, mu, psi, Z: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    lin = W @ Z + mu[:, None]
    if spec.kind == "normal":
        return lin + rng.standard_normal(lin.shape) * np.sqrt(psi)[:, None]
    if spec.kind == "binomial":
        return rng.binomial(spec.b, _expit(lin)).astype(float)
    return rng.multinomial(spec.b, _softmax(lin).T).T.astype(float)


def _rate(w: np.ndarray, Zt: np.ndarray, hazard: str) -> np.ndarray:
    """Each sample's hazard rate exp(w · z̃); a rate that overflows is refused,
    since it would draw a time of 0."""
    with np.errstate(over="ignore"):
        rate = np.exp(w @ Zt)
    if np.isinf(rate).any():
        raise ValueError(f"the {hazard} hazard rate exp(w · z) overflows")
    return rate


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
        # a rate that underflows to 0 draws an infinite time, which Survival
        # refuses as an observed time
        with np.errstate(divide="ignore"):
            t = rng.exponential(1.0 / _rate(scenario.w_T, Zt, "event"))
            if censored:
                c = rng.exponential(1.0 / _rate(scenario.w_C, Zt, "censoring"))
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

