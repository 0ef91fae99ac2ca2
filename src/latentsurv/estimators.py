"""Thin scikit-learn-style estimators. Each fits a ``ModelCandidate`` on a ``Dataset``
(blocks carry structure a flat ``X`` cannot) by ``evaluate.fit_candidate`` into
``model_`` and predicts by ``evaluate.predict_candidate``; ``get_params`` and
``set_params`` follow the scikit-learn contract for hyperparameter tooling."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import evaluate
from .data import Dataset


class _BaseEstimator:
    """Hyperparameters are the dataclass fields; ``_candidate`` makes them a candidate."""

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self.get_params():
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def fit(self, dataset: Dataset):
        self.model_ = evaluate.fit_candidate(self._candidate(), dataset, getattr(self, "seed", 0))
        return self

    def predict(self, dataset: Dataset) -> np.ndarray:
        """Expected event times for new samples (larger = lower risk)."""
        return evaluate.predict_candidate(self._candidate(), self.model_, dataset)


@dataclasses.dataclass(eq=False)
class LatentSurvival(_BaseEstimator):
    """Latent-factor exponential-hazard survival model; ``model_`` is its ``JointModel``.
    ``fit_mode='fast'`` fits the factor model first and regresses hazards on
    posterior means; ``'full'`` runs Monte Carlo EM on the joint likelihood."""

    d_z: int = 2
    fit_mode: str = "fast"
    gem_iters: int = 10
    seed: int = 0

    def _candidate(self):
        return evaluate.ModelCandidate(kind="fa_ecph_c", d_z=self.d_z, gem_iters=self.gem_iters,
                                       fit_mode=self.fit_mode)

    @property
    def heywood_flag_(self) -> bool:
        return self.model_.fa.heywood_flag


@dataclasses.dataclass(eq=False)
class L1ExponentialHazard(_BaseEstimator):
    """L1-penalized exponential hazard regression on stacked covariates; it
    fits the event part only, and ``model_`` is that part's ``HazardParams``."""

    gamma: float = 1.0

    def _candidate(self):
        return evaluate.ModelCandidate(kind="ecph_c_l1", gamma=self.gamma)
