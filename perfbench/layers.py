"""Per-layer metrics derived from the spans of a traced run.

Every metric is reported on every workload; a layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

import spans as sp

# factor-layer conditional M-step updates, counted once even when nested
MSTEP_FUNCTIONS = ("gaussian_mstep", "update_xi", "update_alpha", "update_W", "update_mu",
                   "binomial_mstep", "multinomial_mstep")

# Span attributes the metrics need, taken from a call's bound arguments and result.
ANNOTATORS = {
    "factor.fit_fa": lambda a, r: {"n": a["dataset"].n_samples, "max_iters": a["max_iters"]},
    "evaluate.c_index": lambda a, r: {"n": len(a["t_true"])},
    "joint.joint_predict": lambda a, r: {"n": len(r)},
    "data.load_dataset": lambda a, r: {"cells": sum(b.values.size for b in r.blocks)},
}

# (name, unit): the per_layer list of BENCHMARK.json, in the same order
PER_LAYER = [
    ("factor.fit_fa.calls", "count"), ("factor.fit_fa.s", "s"), ("factor.fit_fa.self_s", "s"),
    ("factor.diverse_estep.calls", "count"), ("factor.diverse_estep.s", "s"),
    ("factor.variational_log_marginal.calls", "count"),
    ("factor.variational_log_marginal.s", "s"),
    ("factor.mstep.s", "s"), ("factor.iters_per_fit", "count"), ("factor.capped_frac", "ratio"),
    ("factor.sample_iters_per_s", "1/s"), ("factor.ridge_warnings", "count"),
    ("hazard.fit_ecph.calls", "count"), ("hazard.fit_ecph.s", "s"),
    ("hazard.l1_fit_s.g0.5", "s"), ("hazard.l1_fit_s.g2", "s"), ("hazard.l1_fit_s.g8", "s"),
    ("hazard.cd_unconverged", "count"), ("hazard.cd_subproblems", "count"),
    ("hazard.l1_loglik_gain_min", "nats"), ("hazard.l1_test_cindex", "1"),
    ("joint.fit_joint.calls", "count"), ("joint.fit_joint.s", "s"), ("joint.mh_estep_s", "s"),
    ("joint.tune_kappa.calls", "count"), ("joint.tune_kappa.s", "s"),
    ("joint.kappa_rungs", "count"),
    ("joint.newton_mstep_w.calls", "count"), ("joint.newton_mstep_w.s", "s"),
    ("joint.fit_fast.calls", "count"), ("joint.fit_fast.s", "s"),
    ("joint.joint_predict.calls", "count"), ("joint.joint_predict.s", "s"),
    ("joint.predict_samples_per_s", "1/s"), ("joint.fast_full_gap_max", "1"),
    ("joint.warnings", "count"),
    ("evaluate.c_index.calls", "count"), ("evaluate.c_index.s", "s"),
    ("evaluate.c_index.pairs_per_s", "1/s"), ("evaluate.cv_folds.s", "s"),
    ("evaluate.fit_candidate.calls", "count"), ("evaluate.fit_candidate.s", "s"),
    ("evaluate.error_folds", "count"),
    ("data.load_dataset.calls", "count"), ("data.load_dataset.s", "s"),
    ("data.cells_per_s", "1/s"), ("data.subset.calls", "count"), ("data.subset.s", "s"),
    ("data.times.calls", "count"), ("data.times.s", "s"),
    ("serialize.write_dataset.s", "s"), ("serialize.save_model.s", "s"),
    ("serialize.load_model.s", "s"), ("serialize.block_manifest_hash.s", "s"),
    ("serialize.roundtrip_max_ulp", "count"),
    ("simulate.simulate_dataset.s", "s"),
    ("cli.predict.s", "s"),
    ("trace.overhead_s", "s"),
]
UNITS = dict(PER_LAYER)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, summary: dict, warnings: sp.WarningCounter, facts: dict,
                  overhead_s: float) -> dict:
    """All PER_LAYER values from one traced run's spans (and their ``summarize``),
    warning counts and the workload's own facts."""
    selfs = sp.self_times(spans)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("s", 0.0)

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in spans if s.name == name)

    m = {}
    for name in ("factor.fit_fa", "factor.diverse_estep", "factor.variational_log_marginal",
                 "hazard.fit_ecph", "joint.fit_joint", "joint.tune_kappa",
                 "joint.newton_mstep_w", "joint.fit_fast", "joint.joint_predict",
                 "evaluate.c_index", "evaluate.fit_candidate", "data.load_dataset",
                 "data.subset"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)

    fits = [i for i, s in enumerate(spans) if s.name == "factor.fit_fa"]
    iters = {i: 0 for i in fits}
    for s in spans:
        if s.name == "factor.variational_log_marginal" and s.parent in iters:
            iters[s.parent] += 1
    capped = sum(1 for i in fits
                 if spans[i].attrs and iters[i] >= spans[i].attrs["max_iters"])
    m["factor.fit_fa.self_s"] = sum(selfs[i] for i in fits)
    m["factor.mstep.s"] = sum(spans[i].duration for i in
                              sp.outermost(spans, [f"factor.{f}" for f in MSTEP_FUNCTIONS]))
    m["factor.iters_per_fit"] = _ratio(sum(iters.values()), len(fits))
    m["factor.capped_frac"] = _ratio(capped, len(fits))
    m["factor.sample_iters_per_s"] = _ratio(
        sum((spans[i].attrs or {}).get("n", 0) * iters[i] for i in fits), secs("factor.fit_fa"))
    m["factor.ridge_warnings"] = warnings.matching("factor", "ridge")

    for g in ("0.5", "2", "8"):
        m[f"hazard.l1_fit_s.g{g}"] = secs(f"hazard.l1_fit.g{g}")
    m["hazard.cd_unconverged"] = warnings.matching("hazard", "did not reach the gap tolerance")
    m["hazard.cd_subproblems"] = calls("hazard._lasso_cd")
    for key in ("l1_loglik_gain_min", "l1_test_cindex"):
        m[f"hazard.{key}"] = facts.get(key, 0.0)

    m["joint.mh_estep_s"] = sum(selfs[i] for i, s in enumerate(spans)
                                if s.name == "joint.fit_joint")
    m["joint.kappa_rungs"] = facts.get("kappa_rungs", 0.0)
    m["joint.predict_samples_per_s"] = _ratio(attr_sum("joint.joint_predict", "n"),
                                              secs("joint.joint_predict"))
    m["joint.fast_full_gap_max"] = facts.get("fast_full_gap_max", 0.0)
    m["joint.warnings"] = warnings.counts.get("joint", 0)

    pairs = sum(n * (n - 1) for n in ((s.attrs or {}).get("n", 0) for s in spans
                                      if s.name == "evaluate.c_index"))
    m["evaluate.c_index.pairs_per_s"] = _ratio(pairs, secs("evaluate.c_index"))
    m["evaluate.cv_folds.s"] = secs("evaluate.cv_fold")
    m["evaluate.error_folds"] = facts.get("error_folds", 0)

    m["data.cells_per_s"] = _ratio(attr_sum("data.load_dataset", "cells"),
                                   secs("data.load_dataset"))
    m["data.times.calls"] = calls("data.times") + calls("data.events")
    m["data.times.s"] = secs("data.times") + secs("data.events")

    for name in ("serialize.write_dataset", "serialize.save_model", "serialize.load_model",
                 "serialize.block_manifest_hash", "simulate.simulate_dataset", "cli.predict"):
        m[f"{name}.s"] = secs(name)
    m["serialize.roundtrip_max_ulp"] = facts.get("roundtrip_max_ulp", 0.0)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name, _ in PER_LAYER}
