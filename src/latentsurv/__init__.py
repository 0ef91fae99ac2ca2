"""Latent-factor survival modeling with informative censoring.

Ingest multi-block covariate data, fit a shared latent factor model across
Gaussian/binomial/multinomial blocks, couple the latent space to exponential
event and censoring hazards, and select between latent-factor and L1-penalized
baselines by cross-validated concordance.
"""

from .data import (
    CovariateBlock,
    Dataset,
    ParseError,
    SplitPlan,
    Survival,
    adjust_zero_times,
    impute_missing,
    load_dataset,
    make_split,
    variance_filter,
    zscore_block,
)
from .evaluate import (
    CvReport,
    ModelCandidate,
    UndefinedCIndexError,
    c_index,
    run_cv,
    select_model,
)
from .factor import BlockParams, FaModel, LatentPosterior, VariationalState, fit_fa
from .hazard import HazardParams, PenaltyConfig, ecph_log_likelihood, ecph_predict, fit_ecph
from .joint import JointModel, fit_fast, fit_joint, joint_predict
from .simulate import BlockSpec, SimScenario, simulate_dataset

__all__ = [
    "BlockParams",
    "BlockSpec",
    "CovariateBlock",
    "CvReport",
    "Dataset",
    "FaModel",
    "HazardParams",
    "JointModel",
    "LatentPosterior",
    "ModelCandidate",
    "ParseError",
    "PenaltyConfig",
    "SimScenario",
    "SplitPlan",
    "Survival",
    "UndefinedCIndexError",
    "VariationalState",
    "adjust_zero_times",
    "c_index",
    "ecph_log_likelihood",
    "ecph_predict",
    "fit_ecph",
    "fit_fa",
    "fit_fast",
    "fit_joint",
    "impute_missing",
    "joint_predict",
    "load_dataset",
    "make_split",
    "run_cv",
    "select_model",
    "simulate_dataset",
    "variance_filter",
    "zscore_block",
]

__version__ = "0.1.0"
