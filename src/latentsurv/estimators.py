"""Thin scikit-learn-style estimator wrappers over the functional core.

Each estimator's ``fit`` takes a :class:`~latentsurv.data.Dataset` (covariate
blocks carry structure a flat ``X`` matrix cannot), returns ``self``, and
exposes fitted attributes with trailing underscores. ``get_params`` /
``set_params`` follow the scikit-learn contract so the wrappers compose with
generic hyperparameter tooling.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import evaluate, hazard, joint
from .data import Dataset
from .hazard import PenaltyConfig


class _BaseEstimator:
    """Hyperparameters are the dataclass fields of the estimator."""

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self.get_params():
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self


@dataclasses.dataclass(eq=False)
class LatentSurvival(_BaseEstimator):
    """Latent-factor exponential-hazard survival model.

    ``fit_mode='fast'`` fits the factor model first and regresses hazards on
    posterior means; ``'full'`` runs Monte Carlo EM on the joint likelihood.
    ``fit`` goes through ``evaluate.fit_candidate``, as the CLI does.
    """

    d_z: int = 2
    fit_mode: str = "fast"
    gem_iters: int = 10
    seed: int = 0

    def fit(self, dataset: Dataset):
        candidate = evaluate.ModelCandidate(
            kind="fa_ecph_c", d_z=self.d_z, gem_iters=self.gem_iters,
            fit_mode=joint.FIT_MODES.get(self.fit_mode, self.fit_mode))
        self.model_ = evaluate.fit_candidate(candidate, dataset, self.seed)
        self.heywood_flag_ = self.model_.fa.heywood_flag
        return self

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Expected event times for new samples (larger = lower risk)."""
        return joint.joint_predict(self.model_, dataset.blocks)


@dataclasses.dataclass(eq=False)
class L1ExponentialHazard(_BaseEstimator):
    """L1-penalized exponential hazard regression on stacked covariates."""

    gamma: float = 1.0
    penalize_intercept: bool = True

    def fit(self, dataset: Dataset):
        penalty = PenaltyConfig(gamma_T=self.gamma, gamma_C=self.gamma,
                                penalize_intercept=self.penalize_intercept)
        self.params_T_, self.params_C_ = hazard.fit_ecph(
            dataset.stacked_values(), dataset.survival, penalty=penalty)
        return self

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Expected event times 1/rate under the fitted event-hazard model."""
        return hazard.ecph_predict(self.params_T_, dataset.stacked_values())
