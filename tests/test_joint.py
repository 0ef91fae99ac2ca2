import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from latentsurv import factor
from latentsurv.data import Dataset
from latentsurv.evaluate import ModelCandidate, fit_candidate
from latentsurv.factor import BlockParams, FaModel, LatentPosterior, fit_fa
from latentsurv.hazard import HazardParams
from latentsurv import joint
from latentsurv.joint import (
    JointModel,
    _hazard_mstep,
    _metropolis,
    MhConfig,
    SampleTargets,
    effective_sample_size,
    fit_fast,
    fit_joint,
    joint_predict,
    split_rhat,
    tune_kappa,
)
from latentsurv.simulate import BlockSpec, SimScenario, simulate_dataset
from tests.conftest import (count_calls, make_dataset, make_survival, metropolis_chains,
                            normal_block)

FAST_MH = MhConfig(burn_in=100, n_keep=100)


@pytest.fixture
def fast_mh(monkeypatch):
    """Full fits in the test sample with FAST_MH."""
    monkeypatch.setattr(joint, "_MH", FAST_MH)


def gaussian_only_setup(rng, N=12, d_z=2, beta=0.0):
    ds = make_dataset(rng, N=N, d_z=d_z)
    model, post = fit_fa(ds, d_z)
    w = np.zeros(d_z + 1)
    w[0] = -0.1
    w[1:] = beta
    targets = SampleTargets(model.block_params, model.variational, ds.blocks,
                            HazardParams(w), HazardParams(w * 0.5), ds.survival)
    return ds, model, post, targets


class TestConditionalLogDensity:
    def test_zero_beta_is_fa_posterior_plus_constant(self, rng):
        ds, model, post, _ = gaussian_only_setup(rng)
        w0 = np.array([0.3, 0.0, 0.0])
        n = 3
        row = SampleTargets(model.block_params, model.variational, ds.blocks,
                            HazardParams(w0), HazardParams(w0), ds.survival).rows([n])
        C = post.cov[n]
        m = post.mean[:, n]
        prec = np.linalg.inv(C)

        def fa_logpdf(z):
            diff = z - m
            return -0.5 * diff @ prec @ diff

        z1, z2 = rng.standard_normal(2 * 2).reshape(2, 2)
        d1 = row.logp_all(z1[None, :])[0] - fa_logpdf(z1)
        d2 = row.logp_all(z2[None, :])[0] - fa_logpdf(z2)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        ds, model, post, targets = gaussian_only_setup(rng, beta=0.7)
        Z = rng.standard_normal((targets.N, 2))
        # analytic gradient of each sample's target at its own row of Z
        eta_T = targets.w_T[0] + Z @ targets.w_T[1:]
        eta_C = targets.w_C[0] + Z @ targets.w_C[1:]
        grad = (-np.einsum("njk,nk->nj", targets.prec, Z) + targets.h.T
                + np.outer(targets.d, targets.w_T[1:])
                + np.outer(1 - targets.d, targets.w_C[1:])
                - targets.t[:, None] * (np.outer(np.exp(eta_T), targets.w_T[1:])
                                        + np.outer(np.exp(eta_C), targets.w_C[1:])))
        h = 1e-6
        for k in range(2):
            E = np.zeros_like(Z)
            E[:, k] = h
            fd = (targets.logp_all(Z + E) - targets.logp_all(Z - E)) / (2 * h)
            np.testing.assert_allclose(fd, grad[:, k], rtol=0, atol=1e-5)


class TestLockstepRunner:
    def test_chain_alone_equals_chain_beside_other_rows(self, rng):
        ds = make_dataset(rng, N=15, with_binomial=True, with_multinomial=True)
        model, _ = fit_fa(ds, 2)
        w = np.array([-0.1, 0.7, -0.4])
        targets = SampleTargets(model.block_params, model.variational, ds.blocks,
                                HazardParams(w), HazardParams(w * 0.5), ds.survival)
        mh = MhConfig(burn_in=50, n_keep=50)
        seeds = np.random.SeedSequence(11).spawn(targets.N)
        kept, rates = _metropolis(targets, 2.0, [np.random.default_rng(ss) for ss in seeds], mh)
        assert 0.0 < rates.min() and rates.max() < 1.0
        for n in (0, 7, targets.N - 1):
            alone, rate = _metropolis(targets.rows([n]), 2.0, [np.random.default_rng(seeds[n])],
                                      mh)
            np.testing.assert_array_equal(alone[0], kept[n])
            assert rate[0] == rates[n]

    def test_mh_sample_matches_one_proposal_at_a_time(self, rng):
        ds, model, post, targets = gaussian_only_setup(rng, beta=0.7)
        n, kappa, z0, C_n = 1, 2.0, post.mean[:, 1].copy(), post.cov[1]
        kept, acceptance, _, _ = metropolis_chains(targets, n, kappa, FAST_MH,
                                                   [np.random.default_rng(5)])
        samples = kept[0].T
        # reference: the plain per-sample loop over the same generator stream
        gen = np.random.default_rng(5)
        chol = np.linalg.cholesky(kappa * C_n)
        steps = FAST_MH.burn_in + FAST_MH.n_keep
        eps = gen.standard_normal((steps, 2))
        logu = np.log(gen.random(steps))
        row = targets.rows([n])
        z, lp, kept, accepted = z0, row.logp_all(z0[None, :])[0], [], 0
        for s in range(steps):
            prop = z + chol @ eps[s]
            lp_prop = row.logp_all(prop[None, :])[0]
            if logu[s] < lp_prop - lp:
                z, lp, accepted = prop, lp_prop, accepted + 1
            if s >= FAST_MH.burn_in:
                kept.append(z)
        np.testing.assert_allclose(samples, np.array(kept).T, rtol=0, atol=1e-12)
        assert acceptance == accepted / steps


class TestDiagnostics:
    def test_rhat_one_for_identical_chains(self, rng):
        x = rng.standard_normal(200)
        chains = np.vstack([x, x])
        assert split_rhat(chains) == pytest.approx(1.0, abs=0.05)

    def test_rhat_large_for_separated_chains(self, rng):
        chains = np.vstack([rng.standard_normal(100),
                            rng.standard_normal(100) + 10])
        assert split_rhat(chains) > 2.0

    def test_ess_iid_near_n(self, rng):
        chains = rng.standard_normal((2, 500))
        ess = effective_sample_size(chains)
        assert 500 <= ess <= 1000 or ess > 300  # iid draws: close to m*n

    def test_ess_correlated_small(self, rng):
        x = np.cumsum(rng.standard_normal(500))  # random walk, high autocorrelation
        ess = effective_sample_size(x[None, :])
        assert ess < 100

    def test_ess_capped(self, rng):
        chains = rng.standard_normal((2, 50))
        assert effective_sample_size(chains) <= 100 + 1e-9

    @staticmethod
    def _ess_lag_loop(chains):
        """Reference estimator: one lag at a time, pairs from lag 1, each
        pair capped by the one before, stopped at the first negative pair."""
        m, n = chains.shape
        W = chains.var(axis=1, ddof=1).mean()
        means = chains.mean(axis=1)
        B = n * means.var(ddof=1) if m > 1 else 0.0
        var_plus = (n - 1) / n * W + B / n
        if var_plus <= 0:
            return float(m * n)
        centered = chains - means[:, None]
        rho_sum = 0.0
        prev_pair = None
        t = 1
        while t + 1 < n:
            acov_t = np.mean([(c[:-t] * c[t:]).mean() for c in centered])
            acov_t1 = np.mean([(c[:-(t + 1)] * c[(t + 1):]).mean() for c in centered])
            rho_t = 1.0 - (W - acov_t) / var_plus
            rho_t1 = 1.0 - (W - acov_t1) / var_plus
            pair = rho_t + rho_t1
            if pair < 0:
                break
            if prev_pair is not None:
                pair = min(pair, prev_pair)
            rho_sum += pair
            prev_pair = pair
            t += 2
        return float(min(m * n / (1.0 + 2.0 * rho_sum), m * n))

    def test_ess_matches_lag_loop(self, rng):
        """The FFT estimator equals the lag-by-lag one on AR(1) chains."""
        for n in [2, 3, 4, 5, 7, 10, 31, 64, 150, 301, 600]:
            for m in (1, 2, 3):
                for phi in (-0.5, 0.0, 0.5, 0.9, 0.99):
                    eps = rng.standard_normal((m, n))
                    x = np.empty((m, n))
                    x[:, 0] = eps[:, 0]
                    for s in range(1, n):
                        x[:, s] = phi * x[:, s - 1] + eps[:, s]
                    want = self._ess_lag_loop(x)
                    assert effective_sample_size(x) == pytest.approx(want, rel=1e-12, abs=0)


class TestMhSample:
    def test_determinism(self, rng):
        ds, model, post, targets = gaussian_only_setup(rng)
        s1, *d1 = metropolis_chains(targets, 0, 2.0, FAST_MH, [np.random.default_rng(5)])
        s2, *d2 = metropolis_chains(targets, 0, 2.0, FAST_MH, [np.random.default_rng(5)])
        np.testing.assert_array_equal(s1, s2)
        assert d1 == d2

    def test_diagnostics_bounds(self, rng):
        ds, model, post, targets = gaussian_only_setup(rng)
        _, acceptance, n_eff, rhat = metropolis_chains(
            targets, 0, 2.0, FAST_MH, [np.random.default_rng(5)])
        assert 0.0 <= acceptance <= 1.0
        assert rhat >= 1.0 - 1e-9
        assert n_eff <= FAST_MH.n_keep

    def test_null_target_matches_analytic_posterior(self, rng):
        """beta = 0: the conditional is exactly the factor posterior; pooled
        draws must match its moments within 3 Monte-Carlo standard errors."""
        ds, model, post, targets = gaussian_only_setup(rng, beta=0.0)
        cfg = MhConfig(burn_in=500, n_keep=4000)
        n = 0
        kept, _, chain_n_eff, _ = metropolis_chains(targets, n, 2.5, cfg,
                                                    [np.random.default_rng(9)])
        samples = kept[0].T
        n_eff = max(chain_n_eff, 10.0)
        for j in range(2):
            se = math.sqrt(post.cov[n][j, j] / n_eff)
            assert abs(samples[j].mean() - post.mean[j, n]) <= 3 * se
        emp_cov = np.cov(samples)
        scale = math.sqrt(2.0 / n_eff)
        for j in range(2):
            assert abs(emp_cov[j, j] - post.cov[n][j, j]) <= \
                3 * scale * post.cov[n][j, j] + 0.05


class TestTuneKappa:
    def test_easy_target_first_passing_entry(self, rng):
        ds, model, post, targets = gaussian_only_setup(rng)
        cfg = MhConfig(burn_in=200, n_keep=400)
        kappa = tune_kappa(targets, cfg, seed=3)
        assert kappa in cfg.kappa_ladder
        # re-run the returned entry's run and confirm it passes the thresholds
        idx = cfg.kappa_ladder.index(kappa)
        rngs = [np.random.default_rng(ss)
                for ss in np.random.SeedSequence(3 + idx).spawn(joint.TUNING_CHAINS)]
        _, acceptance, n_eff, rhat = metropolis_chains(targets, 0, kappa, cfg, rngs)
        assert joint.ACCEPT_LO <= acceptance <= joint.ACCEPT_HI
        assert n_eff >= joint.MIN_N_EFF
        assert rhat <= joint.MAX_RHAT

    def test_all_fail_falls_back_with_warning(self, rng, caplog):
        # a ladder of absurdly large proposals rejects nearly everything; with
        # beta != 0 the proposals overflow the hazard, which must stay silent
        cfg = MhConfig(kappa_ladder=(1e8, 1e7, 1e6), burn_in=50, n_keep=50)
        for beta in (0.0, 1.0):
            ds, model, post, targets = gaussian_only_setup(rng, beta=beta)
            caplog.clear()
            with caplog.at_level("WARNING"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                kappa = tune_kappa(targets, cfg, seed=3)
            assert kappa in cfg.kappa_ladder
            assert any("composite" in r.message for r in caplog.records)


class TestNewtonMstep:
    def test_point_mass_at_zero_converges_to_intercept_mle(self, rng):
        times = rng.exponential(1.0, 20)
        events = (rng.random(20) < 0.5).astype(float)
        samples = np.zeros((20, 30, 1))  # all draws at z = 0
        w = HazardParams(np.array([0.0, 0.0]))
        for _ in range(30):
            w = _hazard_mstep(w, samples, times, events)
        assert w.w[0] == pytest.approx(math.log(events.sum() / times.sum()), abs=1e-10)
        assert w.w[1] == pytest.approx(0.0, abs=1e-10)

    def test_fixed_point_when_gradient_zero(self, rng):
        times = rng.exponential(1.0, 15)
        events = np.ones(15)
        samples = np.zeros((15, 10, 1))
        w0 = math.log(events.sum() / times.sum())
        w = _hazard_mstep(HazardParams(np.array([w0, 0.0])), samples, times, events)
        assert w.w[0] == pytest.approx(w0, abs=1e-14)

    def test_matches_finite_difference_newton_step(self, rng):
        """Point-mass draws make the MC moments exact; the update must equal
        a Newton step computed from finite-difference gradient and Hessian of
        the complete-data log-likelihood. With spread draws it must equal the
        Newton step on the Monte-Carlo Q, the mean over draws: the stacked
        draws carry Q's gradient and Hessian."""
        N, d_z, S = 12, 2, 5
        Z = rng.standard_normal((N, d_z))
        times = rng.exponential(1.0, N)
        events = (rng.random(N) < 0.6).astype(float)
        w = rng.normal(scale=0.3, size=d_z + 1)
        spread = Z[:, None, :] + 0.3 * rng.standard_normal((N, S, d_z))
        for samples in (np.repeat(Z[:, None, :], S, axis=1), spread):
            got = _hazard_mstep(HazardParams(w), samples, times, events)
            Zt = np.concatenate([np.ones((N, S, 1)), samples], axis=2)

            def ll(v):
                eta = Zt @ v  # (N, S)
                return np.sum(events[:, None] * eta - times[:, None] * np.exp(eta)) / S

            h = 1e-5
            dim = d_z + 1
            g = np.zeros(dim)
            H = np.zeros((dim, dim))
            for i in range(dim):
                ei = np.zeros(dim)
                ei[i] = h
                g[i] = (ll(w + ei) - ll(w - ei)) / (2 * h)
                for j in range(dim):
                    ej = np.zeros(dim)
                    ej[j] = h
                    H[i, j] = (ll(w + ei + ej) - ll(w + ei - ej)
                               - ll(w - ei + ej) + ll(w - ei - ej)) / (4 * h * h)
            want = w + np.linalg.solve(-H, g)
            np.testing.assert_allclose(got.w, want, atol=1e-6)

    def test_no_mstep_lowers_monte_carlo_q(self, monkeypatch):
        """GEM: no hazard M-step of a full fit on the select_fast seed-77 draw
        (d_z = 3) lowers its part's Monte-Carlo Q. An undamped Newton step
        lowers the event part's Q there at the first GEM iteration."""
        from perfbench.workloads import SelectFast  # the draw is the benchmark's own
        workload = SelectFast()
        train = workload.setup(77, None)["train"]

        def q(w, samples, times, events):
            eta = w.w[0] + samples @ w.beta  # (N, S)
            return np.sum(events[:, None] * eta - times[:, None] * np.exp(eta)) / eta.shape[1]

        steps = []

        def recorded(w, samples, times, events):
            new = _hazard_mstep(w, samples, times, events)
            steps.append((q(w, samples, times, events), q(new, samples, times, events)))
            return new

        monkeypatch.setattr(joint, "_hazard_mstep", recorded)
        fit_joint(train, workload.pair_d_z, gem_iters=workload.gem_iters, seed=0)
        assert len(steps) == 2 * workload.gem_iters
        for before, after in steps:
            assert after >= before - 1e-12 * abs(before), (before, after)


@pytest.mark.usefixtures("fast_mh")
class TestFitJoint:
    def test_zero_gem_iters_is_decoupled_initialization(self, rng):
        ds = make_dataset(rng, N=25)
        model = fit_joint(ds, 2, gem_iters=0, seed=0)
        t_sum = ds.times().sum()
        n_ev = ds.events().sum()
        assert model.w_T.w[0] == pytest.approx(math.log(n_ev / t_sum))
        np.testing.assert_array_equal(model.w_T.beta, 0.0)
        assert model.fit_mode == "full_mcem"

    def test_negative_gem_iters_refused(self, rng, monkeypatch):
        """A negative iteration count is refused before the factor fit, also
        on the candidate path, instead of returning the initialization."""
        ds = make_dataset(rng, N=20)
        calls = count_calls(monkeypatch, factor, "fit_fa")
        with pytest.raises(ValueError, match="gem_iters=-3 must be non-negative"):
            fit_joint(ds, 2, gem_iters=-3, seed=0)
        with pytest.raises(ValueError, match="gem_iters=-3 must be non-negative"):
            fit_candidate(ModelCandidate(kind="fa_ecph_c", d_z=2, fit_mode="full",
                                         gem_iters=-3), ds, seed=0)
        assert calls[0] == 0

    def test_samples_with_the_module_settings(self, rng, monkeypatch):
        """Every chain of a full fit, tuning and E-step, runs with the
        settings in ``joint._MH`` at the time of the call; the fit takes no
        settings argument, and the package exports no ``MhConfig``."""
        settings = MhConfig(kappa_ladder=(3.0, 1.0), burn_in=20, n_keep=30)
        monkeypatch.setattr(joint, "_MH", settings)
        configs = []
        metropolis = joint._metropolis

        def recorded(targets, kappa, rngs, mh):
            configs.append(mh)
            return metropolis(targets, kappa, rngs, mh)

        monkeypatch.setattr(joint, "_metropolis", recorded)
        ds = make_dataset(rng, N=15)
        model = fit_joint(ds, 2, gem_iters=2, seed=0)
        assert len(configs) >= 3 and all(mh is settings for mh in configs)
        assert model.kappa_used in settings.kappa_ladder
        with pytest.raises(TypeError):
            fit_joint(ds, 2, gem_iters=2, mh=settings, seed=0)
        with pytest.raises(ImportError):
            from latentsurv import MhConfig as exported  # noqa: F401

    def test_reproducible(self, rng):
        ds = make_dataset(rng, N=20)
        m1 = fit_joint(ds, 2, gem_iters=2, seed=11)
        m2 = fit_joint(ds, 2, gem_iters=2, seed=11)
        np.testing.assert_array_equal(m1.w_T.w, m2.w_T.w)
        np.testing.assert_array_equal(m1.w_C.w, m2.w_C.w)
        assert m1.kappa_used == m2.kappa_used

    def test_one_accumulation_per_gem_iteration(self, rng, monkeypatch):
        """Each GEM iteration's proposal posterior comes from the targets it
        builds, so only those accumulate beyond the initial fit_fa."""
        ds = make_dataset(rng, N=20, with_binomial=True)
        calls = count_calls(monkeypatch, factor, "_accumulate")
        fit_fa(ds, 2)
        fa_calls = calls[0]
        fit_joint(ds, 2, gem_iters=3, seed=0)
        assert calls[0] - 2 * fa_calls == 3

    def test_zero_time_refused_before_the_factor_fit(self, rng, monkeypatch):
        """Both modes refuse a zero time as ``fit_ecph`` does, and spend no
        factor fit on it."""
        ds = make_dataset(rng, N=20)
        times = ds.times().copy()
        times[3] = 0.0
        ds = Dataset(blocks=ds.blocks, survival=make_survival(times, ds.events()),
                     sample_ids=ds.sample_ids)
        calls = count_calls(monkeypatch, factor, "fit_fa")
        with pytest.raises(ValueError, match="sample 3 has time 0.*adjust_zero_times"):
            fit_joint(ds, 2, gem_iters=1, seed=0)
        with pytest.raises(ValueError, match="sample 3 has time 0.*adjust_zero_times"):
            fit_fast(ds, 2)
        assert calls[0] == 0

    def test_null_simulation_beta_near_zero(self):
        scn = SimScenario(
            d_z=1,
            blocks=(BlockSpec(name="x", kind="normal", d_x=10),),
            w_T=np.array([0.0, 0.0]),
            w_C=np.array([0.0, 0.0]),
            n_train=300, n_test=0, seed=21)
        train, _, _ = simulate_dataset(scn)
        model = fit_joint(train, 1, gem_iters=3, seed=2)
        # survival carries no latent signal; fitted effects stay near zero
        assert abs(model.w_T.beta[0]) < 0.25


class TestFitFast:
    def test_null_beta_near_zero(self):
        scn = SimScenario(
            d_z=1,
            blocks=(BlockSpec(name="x", kind="normal", d_x=10),),
            w_T=np.array([0.0, 0.0]),
            w_C=np.array([0.0, 0.0]),
            n_train=400, n_test=0, seed=5)
        train, _, _ = simulate_dataset(scn)
        model = fit_fast(train, 1, seed=0)
        assert abs(model.w_T.beta[0]) < 0.2
        assert model.fit_mode == "fast_decoupled"

    def test_faster_than_full(self):
        scn = SimScenario(
            d_z=2,
            blocks=(BlockSpec(name="x", kind="normal", d_x=15),),
            w_T=np.array([0.0, 0.6, -0.6]),
            w_C=np.array([-0.4, 0.0, 0.0]),
            n_train=100, n_test=0, seed=8)
        train, _, _ = simulate_dataset(scn)
        t0 = time.perf_counter()
        fit_fast(train, 2, seed=0)
        fast_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        fit_joint(train, 2, gem_iters=10, seed=0)
        full_t = time.perf_counter() - t0
        assert full_t >= 2 * fast_t


class TestBlocksNotFittingTheModel:
    @pytest.mark.parametrize("cut", ["dropped_block", "one_feature_each"])
    def test_predict_and_objective_refuse(self, rng, cut):
        """Blocks whose feature counts are not the model's [8, 6] are refused,
        not broadcast against its parameters."""
        ds = make_dataset(rng, N=30, with_binomial=True)
        model = fit_fast(ds, 2)
        blocks = (ds.blocks[:1] if cut == "dropped_block" else
                  tuple(replace(b, values=b.values[:1], feature_names=b.feature_names[:1])
                        for b in ds.blocks))
        with pytest.raises(ValueError, match=r"\[8, 6\]"):
            joint_predict(model, blocks)
        with pytest.raises(ValueError, match=r"\[8, 6\]"):
            factor.fa_objective(model.fa, replace(ds, blocks=blocks))


class TestJointPredict:
    def _model_with(self, rng, w_T, d_z=2, N=15):
        ds = make_dataset(rng, N=N, d_z=d_z)
        fa, _ = fit_fa(ds, d_z)
        model = JointModel(fa=fa, w_T=HazardParams(w_T),
                           w_C=HazardParams(np.zeros(d_z + 1)),
                           kappa_used=None, fit_mode="fast_decoupled")
        return ds, model

    def test_zero_beta_constant(self, rng):
        lam = 2.0
        w = np.array([math.log(lam), 0.0, 0.0])
        ds, model = self._model_with(rng, w)
        preds = joint_predict(model, ds.blocks)
        np.testing.assert_allclose(preds, 1 / lam, rtol=1e-12)

    def test_closed_form_value(self):
        # d_z = 1, lambda = 1, beta = 1, C = 0.5, mean = 0 -> exp(0.25)
        beta = np.array([1.0])
        C = np.array([[0.5]])
        quad_term = 0.5 * beta @ C @ beta
        assert math.exp(quad_term) == pytest.approx(1.2840254166877414)

    def test_matches_gauss_hermite(self, rng):
        from numpy.polynomial.hermite_e import hermegauss
        for d_z in (1, 2):
            ds, model = self._model_with(
                rng, np.concatenate([[0.3], rng.normal(scale=0.6, size=d_z)]),
                d_z=d_z, N=12)
            preds = joint_predict(model, ds.blocks)
            from latentsurv.joint import _prediction_posterior
            post = _prediction_posterior(model, ds.blocks)
            nodes, weights = hermegauss(40)
            beta = model.w_T.beta
            lam = math.exp(model.w_T.log_baseline)
            for n in range(3):
                L = np.linalg.cholesky(post.cov[n])
                m = post.mean[:, n]
                if d_z == 1:
                    zs = m[0] + L[0, 0] * nodes
                    val = np.sum(weights * np.exp(-beta[0] * zs)) / math.sqrt(2 * math.pi)
                else:
                    total = 0.0
                    for a, wa in zip(nodes, weights):
                        for b_, wb in zip(nodes, weights):
                            z = m + L @ np.array([a, b_])
                            total += wa * wb * math.exp(-beta @ z)
                    val = total / (2 * math.pi)
                want = val / lam
                assert preds[n] == pytest.approx(want, rel=1e-6)

    def test_monotone_in_risk_score(self, rng):
        ds, model = self._model_with(rng, np.array([0.0, 1.0, -0.5]))
        from latentsurv.joint import _prediction_posterior
        post = _prediction_posterior(model, ds.blocks)
        preds = joint_predict(model, ds.blocks)
        score = post.mean.T @ model.w_T.beta
        order = np.argsort(score)
        # identical covariance across samples here, so prediction is a strictly
        # decreasing function of the risk score
        assert np.all(np.diff(preds[order]) <= 0)
