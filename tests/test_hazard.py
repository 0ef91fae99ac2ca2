import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from latentsurv import hazard
from latentsurv.data import make_split
from latentsurv.hazard import (
    PATH_RATIO,
    HazardParams,
    PenaltyConfig,
    _intercept_start,
    _lasso_cd,
    _newton_fit,
    ecph_log_likelihood,
    ecph_predict,
    fit_ecph,
)
from latentsurv.simulate import simulate_dataset
from perfbench.workloads import criterion1_scenario
from tests.conftest import l1_support, make_survival


def oracle_log_likelihood(w_T, w_C, X, times, events):
    """Term-by-term re-derivation: density f(t) = rho exp(-rho t), survivor
    S(t) = exp(-rho t); each sample contributes log f_T S_C (event) or
    log f_C S_T (censored)."""
    total = 0.0
    for n in range(len(times)):
        xt = np.concatenate([[1.0], np.atleast_2d(X)[:, n]]) if np.size(X) else np.array([1.0])
        rho_T = math.exp(float(w_T @ xt))
        rho_C = math.exp(float(w_C @ xt))
        t = times[n]
        if events[n]:
            total += math.log(rho_T) - rho_T * t - rho_C * t
        else:
            total += math.log(rho_C) - rho_C * t - rho_T * t
    return total


def aliased_instance(rng, N=24, p_normal=15, groups=4):
    """Normal features plus a one-hot block whose columns sum to the
    intercept, so the design is rank-deficient and p + 1 is close to N."""
    X = np.vstack([3.0 * rng.standard_normal((p_normal, N)),
                   np.eye(groups)[rng.integers(groups, size=N)].T])
    Xt = np.vstack([np.ones(N), X])
    w_T = np.concatenate([[0.2], rng.normal(scale=0.8, size=X.shape[0])])
    t = rng.exponential(np.exp(-w_T @ Xt))
    c = rng.exponential(np.exp(0.3), size=N)
    return X, make_survival(np.minimum(t, c), t <= c)


def assert_kkt(params, X, survival, event_part, gamma):
    """Subgradient conditions of -loglik + gamma * ||w||_1 at params."""
    w = params.w
    g = nll_gradient(w, X, survival, event_part)
    on = w != 0
    assert np.all(np.abs(g[~on]) <= gamma + 1e-6)
    np.testing.assert_allclose(g[on], -gamma * np.sign(w[on]), rtol=0, atol=1e-6)


def lasso_relative_gap(A, y, gamma, w):
    """Duality gap of 0.5*||y - A w||^2 + gamma * ||w||_1 at w, at the dual
    point that scales the residual into the feasible set, relative to the
    primal objective."""
    r = y - A @ w
    primal = 0.5 * r @ r + gamma * np.abs(w).sum()
    corr = np.abs(A.T @ r).max()
    nu = min(1.0, gamma / corr) * r
    return (primal - (nu @ y - 0.5 * nu @ nu)) / primal


def penalized_objective(w, Xt, t, d, gamma):
    eta = w @ Xt
    return -np.sum(d * eta - t * np.exp(eta)) + gamma * np.abs(w).sum()


def step_runs(records):
    """The (step, size, objective) args of the Newton step records, one list
    per Newton run."""
    runs = []
    for k, size, f in (r.args for r in records if r.msg.startswith("hazard fit step")):
        if k == 1:
            runs.append([])
        runs[-1].append((k, size, f))
    return runs


def nll_gradient(w, X, survival, event_part=True):
    """Gradient of the negative log-likelihood of one part at w."""
    Xt = np.vstack([np.ones(X.shape[1]), X])
    t = survival.time
    d = survival.event if event_part else 1.0 - survival.event
    return Xt @ (t * np.exp(w @ Xt) - d)


def simulate_instance(rng, p=2, N=30, beta_scale=0.8):
    X = rng.standard_normal((p, N))
    w_T = np.concatenate([[0.2], rng.normal(scale=beta_scale, size=p)])
    w_C = np.concatenate([[-0.3], rng.normal(scale=beta_scale, size=p)])
    Xt = np.vstack([np.ones(N), X])
    t = rng.exponential(np.exp(-w_T @ Xt))
    c = rng.exponential(np.exp(-w_C @ Xt))
    times = np.minimum(t, c)
    events = t <= c
    return X, make_survival(times, events), times, events


class TestLogLikelihood:
    def test_single_sample_closed_form(self):
        params = HazardParams([0.0])
        surv = make_survival([1.0], [1])
        X = np.empty((0, 1))
        assert ecph_log_likelihood(params, params, X, surv) == pytest.approx(-2.0)

    def test_duplication_doubles(self, rng):
        X, surv, times, events = simulate_instance(rng)
        w_T = HazardParams(rng.normal(size=3))
        w_C = HazardParams(rng.normal(size=3))
        one = ecph_log_likelihood(w_T, w_C, X, surv)
        twice = make_survival(np.tile(times, 2), np.tile(events, 2))
        two = ecph_log_likelihood(w_T, w_C, np.hstack([X, X]), twice)
        assert two == pytest.approx(2 * one)

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(5):
            X, surv, times, events = simulate_instance(rng)
            w_T = HazardParams(rng.normal(size=3))
            w_C = HazardParams(rng.normal(size=3))
            got = ecph_log_likelihood(w_T, w_C, X, surv)
            want = oracle_log_likelihood(w_T.w, w_C.w, X, times, events)
            assert got == pytest.approx(want, rel=1e-12)

    def test_additive_factorization(self, rng):
        """ll(w_T, w_C) - ll(w_T, w0) is independent of w_T."""
        X, surv, *_ = simulate_instance(rng)
        w0 = HazardParams(np.zeros(3))
        wa = HazardParams(rng.normal(size=3))
        wb = HazardParams(rng.normal(size=3))
        wc = HazardParams(rng.normal(size=3))
        diff1 = (ecph_log_likelihood(wa, wc, X, surv)
                 - ecph_log_likelihood(wa, w0, X, surv))
        diff2 = (ecph_log_likelihood(wb, wc, X, surv)
                 - ecph_log_likelihood(wb, w0, X, surv))
        assert diff1 == pytest.approx(diff2, rel=1e-12)


class TestFitEcph:
    def test_intercept_only_all_events(self):
        surv = make_survival([1, 2, 3], [1, 1, 1])
        w_T, _ = fit_ecph(np.empty((0, 3)), surv)
        assert w_T.w[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_intercept_only_mixed(self):
        surv = make_survival([1, 2], [1, 0])
        w_T, w_C = fit_ecph(np.empty((0, 2)), surv)
        assert w_T.w[0] == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert w_C.w[0] == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_matches_numeric_optimizer(self, rng):
        X, surv, times, events = simulate_instance(rng, p=2, N=30)
        w_T, w_C = fit_ecph(X, surv)
        Xt = np.vstack([np.ones(30), X])

        def neg_T(w):
            eta = w @ Xt
            return -(np.sum(events * eta - times * np.exp(eta)))

        opt = minimize(neg_T, np.zeros(3), method="BFGS", tol=1e-12)
        np.testing.assert_allclose(w_T.w, opt.x, atol=1e-3)

    def test_score_vanishes_at_optimum(self, rng):
        X, surv, *_ = simulate_instance(rng, p=3, N=50, beta_scale=0.4)
        w_T, w_C = fit_ecph(X, surv)
        h = 1e-5
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            up = ecph_log_likelihood(HazardParams(w_T.w + e), w_C, X, surv)
            dn = ecph_log_likelihood(HazardParams(w_T.w - e), w_C, X, surv)
            assert abs((up - dn) / (2 * h)) <= 1e-4

    def test_strong_effect_converges(self, rng, caplog):
        """Full Newton steps overshoot on strong effects; the fit still runs
        to the maximum-likelihood estimate of both parts."""
        N = 60
        X = rng.standard_normal((3, N))
        beta = rng.standard_normal(3)
        beta *= 3.0 / np.linalg.norm(beta)
        t = rng.exponential(np.exp(-beta @ X))
        c = rng.exponential(np.exp(0.8), size=N)
        surv = make_survival(np.minimum(t, c), t <= c)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w_T, w_C = fit_ecph(X, surv)
        assert not caplog.records
        assert np.abs(nll_gradient(w_T.w, X, surv, True)).max() <= 1e-8
        assert np.abs(nll_gradient(w_C.w, X, surv, False)).max() <= 1e-8

    def test_more_features_than_samples_finite(self, caplog):
        """Raw stacked features of the criterion-1 generator at N = 40, p = 54.
        The design has rank N and both parts have censored samples, so no MLE
        exists, and each part says so."""
        train, _, _ = simulate_dataset(criterion1_scenario(40, 0, 77, d_x=(40, 10, 4)))
        with warnings.catch_warnings(), caplog.at_level("WARNING", logger="latentsurv.hazard"):
            warnings.simplefilter("error", RuntimeWarning)
            w_T, w_C = fit_ecph(train.stacked_values(), train.survival)
        assert np.isfinite(w_T.w).all() and np.isfinite(w_C.w).all()
        assert 0 < train.events().sum() < train.n_samples
        no_mle = [r for r in caplog.records if "no maximum-likelihood estimate" in r.message]
        assert len(no_mle) == 2

    def test_no_mle_warning_needs_rank_n(self, rng, caplog):
        """p + 1 >= N alone does not warn: repeated features leave rank 2 < N."""
        N = 10
        X = np.tile(rng.standard_normal(N), (12, 1))
        surv = make_survival(rng.exponential(size=N), np.arange(N) % 2)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            fit_ecph(X, surv)
        assert not any("no maximum-likelihood" in r.message for r in caplog.records)

    def test_degenerate_class_floor(self, caplog):
        surv = make_survival([1, 2, 3], [1, 1, 1])  # no censoring
        with caplog.at_level("WARNING"):
            _, w_C = fit_ecph(np.empty((0, 3)), surv)
        assert w_C.w[0] == pytest.approx(math.log(1e-8 / 6))
        assert any("outcome class" in r.message for r in caplog.records)

    def test_zero_exposure_rejected(self):
        with pytest.raises(ValueError):
            fit_ecph(np.empty((0, 1)), make_survival([0.0], [1]))

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError, match="sample 0 has time 0.*adjust_zero_times"):
            fit_ecph(np.empty((0, 4)), make_survival([0.0, 2.0, 3.0, 4.0], [1, 0, 1, 1]))

    def test_gamma_zero_matches_unpenalized(self, rng):
        X, surv, *_ = simulate_instance(rng)
        plain_T, plain_C = fit_ecph(X, surv)
        pen_T, pen_C = fit_ecph(X, surv, penalty=PenaltyConfig(0.0, 0.0))
        np.testing.assert_allclose(pen_T.w, plain_T.w, atol=1e-6)
        np.testing.assert_allclose(pen_C.w, plain_C.w, atol=1e-6)

    def test_large_gamma_zeroes_effects(self, rng):
        """Every weight, the intercept included, is 0 just above gamma_max, the
        largest gradient entry at 0, and not just below it."""
        X, surv, *_ = simulate_instance(rng)
        gamma_max = np.abs(nll_gradient(np.zeros(X.shape[0] + 1), X, surv)).max()
        above, _ = fit_ecph(X, surv, penalty=PenaltyConfig(gamma_max * 1.01, gamma_max * 1.01))
        assert np.all(above.w == 0.0)
        below, _ = fit_ecph(X, surv, penalty=PenaltyConfig(gamma_max * 0.99, gamma_max * 0.99))
        assert np.any(below.w != 0.0)

    def test_penalized_intercept_default_shrinks_all(self, rng):
        X, surv, *_ = simulate_instance(rng)
        huge = PenaltyConfig(gamma_T=1e6, gamma_C=1e6)
        w_T, _ = fit_ecph(X, surv, penalty=huge)
        np.testing.assert_allclose(w_T.w, 0.0, atol=1e-10)

    def test_penalty_reduces_support(self, rng):
        X, surv, *_ = simulate_instance(rng, p=6, N=60)
        w_plain, _ = fit_ecph(X, surv)
        w_pen, _ = fit_ecph(X, surv, penalty=PenaltyConfig(5.0, 5.0))
        assert len(l1_support(w_pen)) <= len(l1_support(w_plain))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_strength_refused(self, gamma):
        for penalty in ((gamma, 0.0), (0.0, gamma), (gamma, gamma)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                PenaltyConfig(*penalty)


class TestPenalizedFit:
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
    def test_kkt_on_aliased_design(self, rng, gamma, caplog):
        X, surv = aliased_instance(rng)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w_T, w_C = fit_ecph(X, surv, penalty=PenaltyConfig(gamma, gamma))
        assert not caplog.records
        assert_kkt(w_T, X, surv, True, gamma)
        assert_kkt(w_C, X, surv, False, gamma)

    def test_objective_never_rises(self, rng, caplog):
        """The L1 event part walks a path of Newton runs and the unpenalized
        censoring part makes one; no run raises its objective, and each part's
        last run ends at the objective of the weights it returns."""
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        t = surv.time
        events = surv.event
        with caplog.at_level("DEBUG", logger="latentsurv.hazard"):
            fitted = fit_ecph(X, surv, penalty=PenaltyConfig(0.5, 0.0))
        runs = step_runs(caplog.records)
        assert len(runs) > 2, "expected a path of runs for the event part"
        for steps in runs:
            assert [k for k, _, _ in steps] == list(range(1, len(steps) + 1))
            objectives = [f for _, _, f in steps]
            assert all(b <= a for a, b in zip(objectives, objectives[1:]))
            assert all(0 < size <= 1 for _, size, _ in steps)
        for params, d, gamma, last in zip(fitted, (events, 1.0 - events), (0.5, 0.0),
                                          (runs[-2], runs[-1])):
            assert (penalized_objective(params.w, Xt, t, d, gamma)
                    == pytest.approx(last[-1][2], rel=1e-12))

    def test_cold_start_backtracks(self, rng, caplog):
        """From the intercept-only start, the event part's first proximal
        Newton steps overshoot; Armijo backtracking keeps the objective from
        rising."""
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        t, d = surv.time, surv.event
        w0 = _intercept_start(t, d, Xt.shape[0])
        with caplog.at_level("DEBUG", logger="latentsurv.hazard"):
            w = _newton_fit(Xt, t, d, w0, 0.5)
        [steps] = step_runs(caplog.records)
        objectives = [penalized_objective(w0, Xt, t, d, 0.5)] + [f for _, _, f in steps]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))
        assert penalized_objective(w, Xt, t, d, 0.5) == pytest.approx(objectives[-1], rel=1e-12)
        assert min(size for _, size, _ in steps) < 1

    def test_intermediate_strengths_take_one_step(self, rng, caplog):
        """The event part takes one proximal Newton step at each strength
        gamma_max * PATH_RATIO^k above its gamma and runs Newton to
        convergence only at its gamma, ending at the objective of the weights
        it returns."""
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        with caplog.at_level("DEBUG", logger="latentsurv.hazard"):
            w_T, _ = fit_ecph(X, surv, penalty=PenaltyConfig(0.5, 0.0))
        *event_runs, _ = step_runs(caplog.records)  # the censoring part's run is last
        level = np.abs(nll_gradient(np.zeros(Xt.shape[0]), X, surv)).max()
        intermediate = 0
        while (level := level * PATH_RATIO) > 0.5:
            intermediate += 1
        assert intermediate > 1
        assert [len(steps) for steps in event_runs[:-1]] == [1] * intermediate
        assert (penalized_objective(w_T.w, Xt, surv.time, surv.event, 0.5)
                == pytest.approx(event_runs[-1][-1][2], rel=1e-12))

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
    def test_path_matches_cold_fit(self, rng, gamma):
        """The path reaches the optimum a cold proximal Newton fit from the
        intercept-only start reaches."""
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        t = surv.time
        fitted = fit_ecph(X, surv, penalty=PenaltyConfig(gamma, gamma))
        for params, d in zip(fitted, (surv.event, 1.0 - surv.event)):
            cold = _newton_fit(Xt, t, d, _intercept_start(t, d, Xt.shape[0]), gamma)
            assert (penalized_objective(params.w, Xt, t, d, gamma)
                    == pytest.approx(penalized_objective(cold, Xt, t, d, gamma), rel=1e-12))

    def test_paper_size_fold_within_sweep_cap(self, caplog):
        """Criterion-1 draw (N = 300, p = 254), learning set of fold 2 of its
        5-fold split, gamma = 0.5: a cold proximal Newton fit ran its first
        lasso to the sweep cap here; the path reaches the optimum."""
        train, _, _ = simulate_dataset(criterion1_scenario(300, 0, 77))
        split = make_split(train.n_samples, test_fraction=0.0, n_folds=5, seed=0)
        fold = train.subset(split.learning_indices(2))
        X = fold.stacked_values()
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w_T, w_C = fit_ecph(X, fold.survival, penalty=PenaltyConfig(0.5, 0.5))
        assert not caplog.records
        assert_kkt(w_T, X, fold.survival, True, 0.5)
        assert_kkt(w_C, X, fold.survival, False, 0.5)


class TestNonConvergenceReports:
    """Each fitter that stops short of its tolerance says so, and returns finite
    weights no worse than where it started; the caps are lowered for the test."""

    def test_lasso_sweep_cap_warns(self, rng, monkeypatch, caplog):
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        w0 = _intercept_start(surv.time, surv.event, Xt.shape[0])
        A, y, _ = hazard._working_response(w0, Xt, surv.time, surv.event)
        monkeypatch.setattr(hazard, "LASSO_MAX_SWEEPS", 1)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w = _lasso_cd(A, y, 0.5, w0)
        assert [r.getMessage() for r in caplog.records] == [
            "lasso coordinate descent did not reach the gap tolerance"]
        assert np.isfinite(w).all()

        def model(v):
            return 0.5 * np.sum((y - A @ v) ** 2) + 0.5 * np.abs(v).sum()

        assert model(w) <= model(w0)
        assert lasso_relative_gap(A, y, 0.5, w) > hazard.LASSO_GAP_TOL

    def test_newton_step_cap_warns(self, rng, monkeypatch, caplog):
        X, surv = aliased_instance(rng)
        Xt = np.vstack([np.ones(X.shape[1]), X])
        t, d = surv.time, surv.event
        w0 = _intercept_start(t, d, Xt.shape[0])
        monkeypatch.setattr(hazard, "MAX_NEWTON_STEPS", 1)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w = _newton_fit(Xt, t, d, w0, 0.5)
        assert [r.getMessage() for r in caplog.records] == [
            "hazard fit did not converge in 1 steps"]
        assert np.isfinite(w).all()
        assert penalized_objective(w, Xt, t, d, 0.5) <= penalized_objective(w0, Xt, t, d, 0.5)

    def test_newton_step_without_decrease_warns_and_keeps_its_start(self, monkeypatch, caplog):
        """From an intercept far below its optimum the Newton step overshoots
        so far that no step down to MIN_STEP (raised to 1 here, so one halving
        is tried) passes the Armijo test."""
        t = np.linspace(0.5, 2.0, 8)
        d = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        Xt = np.ones((1, t.size))
        w0 = np.array([-10.0])
        monkeypatch.setattr(hazard, "MIN_STEP", 1.0)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w, done = hazard._newton_step(Xt, t, d, w0, 0.0)
        assert [r.getMessage() for r in caplog.records] == [
            "hazard fit did not converge: no step decreases the objective"]
        assert done
        np.testing.assert_array_equal(w, w0)
        assert penalized_objective(w, Xt, t, d, 0.0) <= penalized_objective(w0, Xt, t, d, 0.0)


class TestLassoCd:
    def test_matches_generic_optimizer(self, rng):
        n, p = 20, 6
        A = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        gamma = 0.7
        w = _lasso_cd(A, y, gamma, np.zeros(p))

        def objective(v):
            return 0.5 * np.sum((y - A @ v) ** 2) + gamma * np.abs(v).sum()

        opt = minimize(objective, np.zeros(p), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 50_000})
        assert objective(w) <= objective(opt.x) + 1e-7

    def test_duality_gap_certificate(self, rng):
        n, p = 15, 4
        A = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        w = _lasso_cd(A, y, 0.5, np.zeros(p))
        r = y - A @ w
        # subgradient optimality: |A_j' r| <= gamma, equality on the support
        corr = A.T @ r
        assert np.all(np.abs(corr) <= 0.5 + 1e-6)
        active = np.abs(w) > 1e-12
        np.testing.assert_allclose(np.abs(corr[active]), 0.5, atol=1e-6)

    def test_rank_deficient_meets_relative_gap(self, caplog):
        rng = np.random.default_rng(0)
        n = 30
        onehot = np.eye(4)[rng.integers(4, size=n)]
        normal = rng.standard_normal((n, 3))
        # the one-hot columns sum to the intercept; the last column nearly
        # repeats another, which plain coordinate descent crawls along
        A = np.column_stack([np.ones(n), onehot, normal,
                             normal[:, 0] + 1e-3 * rng.standard_normal(n)])
        assert np.linalg.matrix_rank(A) < A.shape[1]
        y = 1e3 * (A[:, 1:6] @ rng.normal(size=5) + rng.standard_normal(n))
        gamma = 50.0
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w = _lasso_cd(A, y, gamma, np.zeros(A.shape[1]))
        assert not caplog.records
        assert lasso_relative_gap(A, y, gamma, w) <= 1e-8

    @pytest.mark.parametrize("design", ["wide", "one-hot", "near-duplicate"])
    def test_feature_sign_solve_meets_relative_gap(self, design, monkeypatch, caplog):
        """The feature-sign step solves by Cholesky and falls back to least
        squares where the active Gram block is singular: an active set larger
        than N, or a full one-hot block beside the intercept. Where the
        sign-held right-hand side leaves the block's range, as on the wide
        design once the support outgrows N, the step follows the block's null
        space; the minimum-norm solution alone ran that design to the sweep
        cap. On a nearly singular block Cholesky succeeds where least squares
        would truncate the smallest singular value."""
        rng = np.random.default_rng(0)
        if design == "wide":
            n = 12
            A = np.column_stack([np.ones(n), rng.standard_normal((n, 29))])
            y = 10.0 * rng.standard_normal(n)
            gamma = 1.0
        elif design == "one-hot":
            n = 40
            A = np.column_stack([np.ones(n), np.eye(4)[rng.integers(4, size=n)],
                                 rng.standard_normal((n, 3))])
            y = 5.0 * A[:, 1:] @ rng.normal(size=7) + rng.standard_normal(n)
            gamma = 0.1
        else:
            n = 30
            normal = rng.standard_normal((n, 4))
            A = np.column_stack([np.ones(n), normal,
                                 normal[:, 0] + 3e-8 * rng.standard_normal(n)])
            y = 5.0 * normal @ rng.normal(size=4) + rng.standard_normal(n)
            gamma = 1e-3
            s = np.linalg.svd(A.T @ A, compute_uv=False)
            assert s[-1] < s[0] * A.shape[1] * np.finfo(float).eps
        lstsq = np.linalg.lstsq
        solved = []  # (size, singular) of each block least squares solved

        def spy(a, b, rcond=None):
            solved.append((a.shape[0], np.linalg.matrix_rank(a) < a.shape[0]))
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        with caplog.at_level("WARNING", logger="latentsurv.hazard"):
            w = _lasso_cd(A, y, gamma, np.zeros(A.shape[1]))
        assert not caplog.records
        assert lasso_relative_gap(A, y, gamma, w) <= 1e-8
        if design == "near-duplicate":
            assert not solved
        else:
            assert solved and all(singular for _, singular in solved)
        if design == "wide":
            assert max(size for size, _ in solved) > n


class TestPredict:
    def test_zero_params(self):
        assert ecph_predict(HazardParams([0.0, 0.0]), np.array([[3.0]])).tolist() == [1.0]

    def test_baseline_only(self):
        got = ecph_predict(HazardParams([math.log(2), 0.0]), np.array([[9.0]]))
        assert got.tolist() == [pytest.approx(0.5)]

    def test_unit_effect(self):
        got = ecph_predict(HazardParams([0.0, 1.0]), np.array([[1.0]]))
        assert got.tolist() == [pytest.approx(math.exp(-1), rel=1e-12)]

    def test_matrix_input(self, rng):
        params = HazardParams(rng.normal(size=4))
        X = rng.standard_normal((3, 7))
        out = ecph_predict(params, X)
        assert out.shape == (7,)
        assert np.all(out > 0)
        assert out[2] == pytest.approx(ecph_predict(params, X[:, [2]])[0])

    def test_vector_is_one_feature_as_fit_ecph_reads_it(self, rng):
        """A 1-d covariate array is one feature across N samples, in the fit
        and in the prediction: N predictions, those of x[None, :]."""
        x = rng.standard_normal(30)
        survival = make_survival(rng.exponential(1.0, 30), rng.random(30) < 0.7)
        w_T, _ = fit_ecph(x, survival)
        got = ecph_predict(w_T, x)
        assert got.shape == (30,)
        np.testing.assert_array_equal(got, ecph_predict(w_T, x[None, :]))


class TestL1Support:
    def test_thresholding(self):
        assert l1_support(HazardParams([0.5, 0.0, 0.3, 0.0])) == {2}

    def test_dense(self):
        assert l1_support(HazardParams([0.1, 1.0, -2.0])) == {1, 2}

    def test_empty(self):
        assert l1_support(HazardParams([0.1, 0.0, 0.0])) == set()
