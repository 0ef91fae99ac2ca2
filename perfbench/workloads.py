"""The three benchmark workloads.

Each workload makes its inputs from the workload seed in ``setup`` (simulation
only; the program sees the generated datasets), runs one round in ``run``,
timing each operation on its own, and checks every output. All of them build
on the criterion-1 generator of the acceptance tests.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from latentsurv import cli, data, evaluate, factor, hazard, joint, serialize, simulate
from latentsurv.simulate import BlockSpec, SimScenario


class RoundAborted(Exception):
    """An operation raised, so the rest of the round has no input."""


class Clock:
    """Times labelled calls. A label names the same work in every repetition
    of a round or set-up, so the run can compare each call with itself."""

    def __init__(self):
        self.times: dict[str, float] = {}

    def call(self, label, fn, *args, **kwargs):
        if label in self.times:
            raise ValueError(f"label {label!r} used twice in one repetition")
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[label] = time.perf_counter() - start


@dataclass
class Outcome:
    """What one round produced: end-to-end quality numbers, facts the layer
    metrics need, the operation count with every failed check, and the time
    of each operation."""

    quality: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    clock: Clock = field(default_factory=Clock)

    def op(self, label, fn, *args, check=None, **kwargs):
        """Run one fit, predict or score call, timed on its own, and apply its
        output check outside the timing."""
        self.attempted += 1
        try:
            out = self.clock.call(label, fn, *args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal to the run
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            raise RoundAborted(label, self) from exc
        problem = check(out) if check is not None else None
        if problem:
            self.failures.append(f"{label}: {problem}")
        return out

    def require(self, label, ok: bool, problem: str):
        if not ok:
            self.failures.append(f"{label}: {problem}")


# ---------------------------------------------------------------------------
# output checks; each returns a problem string or None
# ---------------------------------------------------------------------------

def check_predictions(pred):
    pred = np.asarray(pred, dtype=float)
    if not np.all(np.isfinite(pred)):
        return "non-finite prediction"
    if not np.all(pred > 0):
        return "prediction not above 0"
    return None


def check_cindex(c):
    if not (math.isfinite(c) and 0.0 <= c <= 1.0):
        return f"c-index {c!r} outside [0, 1]"
    return None


def _all_finite(*arrays) -> bool:
    return all(a is None or bool(np.all(np.isfinite(a))) for a in arrays)


def check_joint_model(model):
    fa = model.fa
    if not _all_finite(model.w_T.w, model.w_C.w,
                       *(a for p in fa.block_params for a in (p.W, p.mu, p.psi))):
        return "non-finite model parameter"
    return None


def check_hazards(pair):
    if not _all_finite(pair[0].w, pair[1].w):
        return "non-finite hazard parameter"
    return None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def criterion1_scenario(n_train, n_test, seed, d_x=(200, 50, 4)) -> SimScenario:
    """The criterion-1 generator: d_z = 3, w_T from default_rng(202) scaled to
    norm 3, w_C = (-0.8, 0, 0, 0); normal, binomial and multinomial blocks."""
    rng = np.random.default_rng(202)
    beta = rng.standard_normal(3)
    beta *= 3.0 / np.linalg.norm(beta)
    blocks = (BlockSpec(name="expr", kind="normal", d_x=d_x[0], w_scale=0.8),
              BlockSpec(name="mut", kind="binomial", d_x=d_x[1], b=1, w_scale=1.2),
              BlockSpec(name="subtype", kind="multinomial", d_x=d_x[2], b=1, w_scale=1.2))
    return SimScenario(d_z=3, blocks=blocks, w_T=np.concatenate([[0.0], beta]),
                       w_C=np.array([-0.8, 0.0, 0.0, 0.0]),
                       n_train=n_train, n_test=n_test, seed=seed)


def fa_neg_bound(model, dataset) -> float:
    """Minus the factor model's tracked bound per training sample (positive);
    the training objective of the latent workloads."""
    return -factor.fa_objective(model.fa, dataset) / dataset.n_samples


def same_parameters(a, b) -> bool:
    """Bit-for-bit equality of everything prediction reads from a model."""
    def arrays(model):
        out = [model.w_T.w, model.w_C.w]
        for p in model.fa.block_params:
            out += [p.W, p.mu, p.psi]
        for avg in joint.averaged_variational(model.fa):
            out += [None, None] if avg is None else list(avg)
        return out

    return all(x is None and y is None or x is not None and y is not None
               and np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b), strict=True))


def c_ordered(model):
    """The same model with its loadings in C order, the layout a loaded model has."""
    params = tuple(replace(p, W=np.ascontiguousarray(p.W)) for p in model.fa.block_params)
    return replace(model, fa=replace(model.fa, block_params=params))


def run_cli(args):
    """Invoke the command line in-process; a non-zero exit is a failed operation."""
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"latentsurv {args[0]} exited with {exc.code}") from exc


class Workload:
    # a warm-up round and at least three more for each operation's quantile
    min_rounds = 4

    def verify(self, inputs, outcome):
        """Checks that run outside the timed region."""


def cv_fold(candidate, dataset, split, fold, seed):
    """One pass of the fold loop of ``evaluate.run_cv``: fit on the fold's
    complement, predict and score the fold. Returns the fold's c-index,
    whether the factor fit hit a near-zero noise variance, the fitted model
    and the learning set."""
    learn = dataset.subset(split.learning_indices(fold))
    valid = dataset.subset(split.folds[fold])
    fitted = evaluate.fit_candidate(candidate, learn, seed)
    heywood = candidate.kind == "fa_ecph_c" and bool(fitted.fa.heywood_flag)
    preds = evaluate.predict_candidate(candidate, fitted, valid)
    return evaluate.c_index(valid.times(), valid.events(), preds), heywood, fitted, learn


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class SelectFast(Workload):
    """3-fold CV over fast candidates, selection, refit and held-out scoring;
    then a fast and a full (Monte-Carlo EM) fit at the generating d_z, both
    scored, as criterion 2 compares them.

    The folds run the loop of ``evaluate.run_cv`` one fold per operation, so
    that each fold's fit is timed on its own; the reports are built as
    ``run_cv`` builds them.
    """

    n_train: int = 100
    n_test: int = 150
    d_x: tuple = (40, 10, 4)
    d_zs: tuple = (2, 3, 4, 5)
    folds: int = 3
    pair_d_z: int = 3
    gem_iters: int = 10
    default_seed: int = 77

    def setup(self, seed, workdir):
        train, test, _ = simulate.simulate_dataset(
            criterion1_scenario(self.n_train, self.n_test, seed, self.d_x))
        return {"train": train, "test": test}

    def run(self, inputs, tracer) -> Outcome:
        train, test = inputs["train"], inputs["test"]
        out = Outcome()
        candidates = [evaluate.ModelCandidate(kind="fa_ecph_c", d_z=d) for d in self.d_zs]
        split = out.clock.call("make_split", data.make_split, train.n_samples,
                               test_fraction=0.0, n_folds=self.folds, seed=0)
        reports, bounds, error_folds = [], [], 0
        for cand in candidates:
            cs, errors, heywood = [], [], False
            for v in range(self.folds):
                try:
                    with tracer.span("evaluate.cv_fold"):
                        c, hw, model, learn = out.op(
                            f"cv {cand.candidate_id} fold {v}", cv_fold, cand, train, split, v,
                            0, check=lambda r: check_cindex(r[0]))
                except RoundAborted:
                    errors.append(v)  # as run_cv: the fold is left out, and counted failed
                    continue
                cs.append(c)
                heywood = heywood or hw
                bounds.append(fa_neg_bound(model, learn))
            error_folds += len(errors)
            reports.append(evaluate.CvReport.from_folds(cand.candidate_id, cs,
                                                        heywood_excluded=heywood,
                                                        error_folds=errors))
        out.facts["error_folds"] = error_folds
        grid = {c.candidate_id for c in candidates}
        selected = out.op("select_model", evaluate.select_model, reports, candidates,
                          check=lambda s: None if s in grid else f"selected {s!r} not in grid")
        chosen = next(c for c in candidates if c.candidate_id == selected)
        model = out.op("refit", evaluate.fit_candidate, chosen, train, seed=0,
                       check=check_joint_model)
        bounds.append(fa_neg_bound(model, train))
        pred = out.op("predict", evaluate.predict_candidate, chosen, model, test,
                      check=check_predictions)
        c = out.op("c_index", evaluate.c_index, test.times(), test.events(), pred,
                   check=check_cindex)
        fast = out.op("pair fit_fast", joint.fit_fast, train, self.pair_d_z, seed=0,
                      check=check_joint_model)
        full = out.op("pair fit_joint", joint.fit_joint, train, self.pair_d_z,
                      gem_iters=self.gem_iters, seed=0, check=check_joint_model)
        cs = []
        for tag, pair_model in (("fast", fast), ("full", full)):
            pair_pred = out.op(f"pair {tag} predict", joint.joint_predict, pair_model,
                               test.blocks, check=check_predictions)
            cs.append(out.op(f"pair {tag} c_index", evaluate.c_index, test.times(),
                             test.events(), pair_pred, check=check_cindex))
        out.quality = {"test_cindex": c, "train_objective": float(np.mean(bounds))}
        out.facts.update(
            selected=selected, full_test_cindex=cs[1], fast_full_gap_max=abs(cs[1] - cs[0]),
            kappa_rungs=float(joint.MhConfig().kappa_ladder.index(full.kappa_used) + 1))
        return out


def check_finite(x):
    return None if math.isfinite(x) else f"non-finite {x!r}"


@dataclass
class L1Path(Workload):
    """The L1 baseline over the gamma path on the stacked raw features.

    The training draw is fixed (criterion-1 generator, simulation seed 77):
    with the coordinate-descent fitter the lasso's cost and objective change
    tenfold and more between draws. The workload seed permutes the training
    samples and picks the held-out samples from a larger draw of the same
    population.
    """

    n_train: int = 150
    n_test: int = 300
    test_pool: int = 1500
    d_x: tuple = (12, 4, 4)
    gammas: tuple = (0.5, 2.0, 8.0)
    train_seed: int = 77
    default_seed: int = 77

    def setup(self, seed, workdir):
        train, pool, _ = simulate.simulate_dataset(
            criterion1_scenario(self.n_train, self.test_pool, self.train_seed, self.d_x))
        rng = np.random.default_rng(seed)
        train = train.subset(rng.permutation(train.n_samples))
        test = pool.subset(np.sort(rng.choice(pool.n_samples, self.n_test, replace=False)))
        return {"train": train, "test": test}

    def run(self, inputs, tracer) -> Outcome:
        train, test = inputs["train"], inputs["test"]
        out = Outcome()
        X = out.clock.call("stack train", train.stacked_values)
        X_test = out.clock.call("stack test", test.stacked_values)
        t, d = train.times(), train.events()
        # intercept-only log-likelihood of both parts, the floor a sane fit clears
        base = sum(n * (math.log(n / t.sum()) - 1.0) for n in (d.sum(), (1 - d).sum()) if n)
        pen_nll, gains, cs = 0.0, [], []
        for gamma in self.gammas:
            label = f"l1 gamma={gamma:g}"
            with tracer.span(f"hazard.l1_fit.g{gamma:g}"):
                pT, pC = out.op(label, hazard.fit_ecph, X, train.survival,
                                penalty=hazard.PenaltyConfig(gamma_T=gamma, gamma_C=gamma),
                                check=check_hazards)
            loglik = out.op(f"{label} loglik", hazard.ecph_log_likelihood, pT, pC, X,
                            train.survival, check=check_finite)
            pen_nll += -loglik + gamma * (np.abs(pT.w).sum() + np.abs(pC.w).sum())
            gains.append(loglik - base)
            pred = out.op(f"{label} predict", hazard.ecph_predict, pT, X_test,
                          check=check_predictions)
            cs.append(out.op(f"{label} c_index", evaluate.c_index, test.times(),
                             test.events(), pred, check=check_cindex))
        out.require("l1_pen_nll", math.isfinite(pen_nll), f"non-finite {pen_nll!r}")
        out.quality = {"test_cindex": float(np.mean(cs)),
                       "train_objective": float(pen_nll) / train.n_samples}
        out.facts.update(l1_loglik_gain_min=min(gains), l1_test_cindex=float(np.mean(cs)),
                         l1_pen_nll=float(pen_nll), l1_test_cindex_by_gamma=cs)
        return out


@dataclass
class ScoreLarge(Workload):
    """The read side: ``latentsurv predict`` on a large CSV dataset, then the
    c-index over all of it. Set-up fits and saves the model and writes the CSV."""

    n_train: int = 300
    n_test: int = 3000
    d_x: tuple = (200, 50, 4)
    d_z: int = 3
    default_seed: int = 77

    def setup(self, seed, workdir):
        train, test, _ = simulate.simulate_dataset(
            criterion1_scenario(self.n_train, self.n_test, seed, self.d_x))
        model = joint.fit_fast(train, self.d_z, seed=0)
        work = Path(tempfile.mkdtemp(dir=workdir))
        serialize.save_model(model, train.blocks, work / "model.json")
        manifest = serialize.write_dataset(test, work, "test")
        return {"train": train, "test": test, "model": model, "work": work,
                "manifest": manifest}

    def run(self, inputs, tracer) -> Outcome:
        test, work = inputs["test"], inputs["work"]
        out = Outcome()
        pred_path = work / "pred.csv"
        out.op("cli predict", run_cli, ["predict", "--model", str(work / "model.json"),
                                        "--data", str(inputs["manifest"]),
                                        "--out", str(pred_path)])
        rows = [line.split(",") for line in pred_path.read_text().splitlines()[1:]]
        pred = np.array([float(p) for _, p in rows])
        out.require("predict", [sid for sid, _ in rows] == list(test.sample_ids),
                    "prediction rows out of sample order")
        out.require("predict", check_predictions(pred) is None, "bad prediction")
        c = out.op("c_index", evaluate.c_index, test.times(), test.events(), pred,
                   check=check_cindex)
        out.quality = {"test_cindex": c,
                       "train_objective": fa_neg_bound(inputs["model"], inputs["train"])}
        out.facts["pred"] = pred
        return out

    def verify(self, inputs, outcome):
        """Checks outside the timed region: the manifest hash, an exact round
        trip of every parameter, and bit-identical predictions of the loaded
        model and the in-memory one."""
        model = inputs["model"]
        loaded, stored = serialize.load_model(inputs["work"] / "model.json")
        outcome.require("manifest", stored == serialize.block_manifest_hash(inputs["test"].blocks),
                        "manifest hash mismatch")
        outcome.require("saved model", same_parameters(model, loaded),
                        "parameters changed in the save/load round trip")
        pred = outcome.facts.pop("pred")
        outcome.require("saved model",
                        np.array_equal(joint.joint_predict(c_ordered(model), inputs["test"].blocks),
                                       pred),
                        "loaded model predictions differ from the in-memory model")
        # The fitted loadings of normal blocks are Fortran-ordered and BLAS rounds
        # them differently in the last places; kept as a number, not a failure.
        direct = joint.joint_predict(model, inputs["test"].blocks)
        outcome.facts["roundtrip_max_ulp"] = float(
            np.max(np.abs(direct - pred) / np.spacing(np.abs(direct))))


WORKLOADS = {
    "select_fast": SelectFast,
    "l1_path": L1Path,
    "score_large": ScoreLarge,
}
