import math

import numpy as np
import pytest
from scipy.special import expit, softmax

from latentsurv import simulate
from latentsurv.factor import fit_fa
from latentsurv.hazard import HazardParams
from latentsurv.joint import JointModel
from latentsurv.simulate import BlockSpec, SimScenario, simulate_dataset
from tests.conftest import make_dataset


def null_scenario(n_train=4000, seed=0, d_z=1):
    """Unit baseline hazards with no latent effect: observed time is the
    minimum of two independent Exp(1) draws, so E[t] = 1/2 and P(event) = 1/2."""
    w = np.zeros(d_z + 1)
    return SimScenario(d_z=d_z,
                       blocks=(BlockSpec(name="x", kind="normal", d_x=4),),
                       w_T=w, w_C=w, n_train=n_train, n_test=100, seed=seed)


class TestScenarioValidation:
    def test_hazard_length_mismatch(self):
        with pytest.raises(ValueError):
            SimScenario(d_z=2, blocks=(BlockSpec(name="x", kind="normal", d_x=3),),
                        w_T=np.zeros(2), w_C=np.zeros(3), n_train=5, n_test=0, seed=0)

    def test_explicit_W_shape_mismatch(self):
        with pytest.raises(ValueError):
            SimScenario(d_z=2,
                        blocks=(BlockSpec(name="x", kind="normal", d_x=3,
                                          W=np.zeros((3, 1))),),
                        w_T=np.zeros(3), w_C=np.zeros(3), n_train=5, n_test=0, seed=0)


class TestLogisticKernels:
    def test_expit_matches_scipy_without_overflow(self):
        """Within 1e-15 of scipy's expit on |x| <= 700; beyond +-709, where
        exp(-x) would overflow, it still returns a probability."""
        x = np.linspace(-700.0, 700.0, 200001)
        np.testing.assert_allclose(simulate._expit(x), expit(x), rtol=1e-15, atol=0.0)
        with np.errstate(over="raise", invalid="raise"):
            far = simulate._expit(np.array([-1e4, -800.0, -710.0, 710.0, 800.0, 1e4]))
        np.testing.assert_array_equal(far[[0, 1, 3, 4, 5]], [0.0, 0.0, 1.0, 1.0, 1.0])
        assert 0.0 < far[2] < 1e-300

    def test_softmax_equals_scipy_bit_for_bit(self, rng):
        lin = rng.normal(scale=30.0, size=(5, 400))
        assert simulate._softmax(lin).tobytes() == softmax(lin, axis=0).tobytes()


class TestNullScenarioMoments:
    def test_time_and_event_moments(self):
        train, _, _ = simulate_dataset(null_scenario())
        t = train.times()
        d = train.events()
        N = t.size
        # min of two Exp(1): mean 1/2, variance 1/4
        se_t = 0.5 / math.sqrt(N)
        assert abs(t.mean() - 0.5) <= 3 * se_t
        se_d = 0.5 / math.sqrt(N)
        assert abs(d.mean() - 0.5) <= 3 * se_d

    def test_test_set_uncensored_unit_mean(self):
        scn = null_scenario(n_train=10, seed=3)
        _, test, _ = simulate_dataset(scn)
        assert test.events().all()
        assert abs(test.times().mean() - 1.0) <= 3 / math.sqrt(100)


class TestCensoringControl:
    def test_tiny_censoring_hazard_gives_all_events(self):
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="x", kind="normal", d_x=3),),
                          w_T=np.array([0.0, 0.0]), w_C=np.array([-20.0, 0.0]),
                          n_train=500, n_test=0, seed=1)
        train, _, _ = simulate_dataset(scn)
        assert train.events().all()

    def test_censoring_fraction_matches_direct_monte_carlo(self):
        """P(delta=1) = E[lam_T / (lam_T + lam_C)] under competing exponentials;
        compare the simulator's event rate with a direct draw of that ratio."""
        w_T = np.array([0.1, 0.8])
        w_C = np.array([0.4, -0.5])
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="x", kind="normal", d_x=3),),
                          w_T=w_T, w_C=w_C, n_train=6000, n_test=0, seed=7)
        train, _, _ = simulate_dataset(scn)
        rng = np.random.default_rng(99)
        z = rng.standard_normal(200_000)
        lam_T = np.exp(w_T[0] + w_T[1] * z)
        lam_C = np.exp(w_C[0] + w_C[1] * z)
        want = (lam_T / (lam_T + lam_C)).mean()
        got = train.events().mean()
        se = math.sqrt(want * (1 - want) / 6000)
        assert abs(got - want) <= 3.5 * se


class TestBlockSampling:
    def test_multinomial_columns_sum_to_trials(self):
        scn = SimScenario(d_z=2,
                          blocks=(BlockSpec(name="m", kind="multinomial", d_x=4, b=3),),
                          w_T=np.zeros(3), w_C=np.zeros(3),
                          n_train=50, n_test=20, seed=2)
        train, test, _ = simulate_dataset(scn)
        np.testing.assert_array_equal(train.blocks[0].values.sum(axis=0), 3.0)
        np.testing.assert_array_equal(test.blocks[0].values.sum(axis=0), 3.0)

    def test_binomial_range(self):
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="b", kind="binomial", d_x=5, b=2),),
                          w_T=np.zeros(2), w_C=np.zeros(2),
                          n_train=50, n_test=0, seed=2)
        train, _, _ = simulate_dataset(scn)
        v = train.blocks[0].values
        assert v.min() >= 0 and v.max() <= 2
        assert np.all(v == np.round(v))

    def test_gaussian_marginal_covariance(self):
        """x = Wz + mu + noise has marginal covariance WW^T + diag(psi)."""
        rng = np.random.default_rng(0)
        d_x, d_z, N = 6, 2, 5000
        W = rng.normal(size=(d_x, d_z))
        mu = rng.normal(size=d_x)
        psi = rng.uniform(0.5, 1.5, d_x)
        scn = SimScenario(d_z=d_z,
                          blocks=(BlockSpec(name="g", kind="normal", d_x=d_x,
                                            W=W, mu=mu, psi=psi),),
                          w_T=np.zeros(3), w_C=np.zeros(3),
                          n_train=N, n_test=0, seed=4)
        train, _, _ = simulate_dataset(scn)
        emp = np.cov(train.blocks[0].values)
        want = W @ W.T + np.diag(psi)
        rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert rel < 0.10
        np.testing.assert_allclose(train.blocks[0].values.mean(axis=1), mu,
                                   atol=5 / math.sqrt(N) * 3)

    def test_given_mu_and_psi_used_with_drawn_W(self):
        """With W drawn, a regression of each row on the true latents recovers
        the given mu as its intercept and the given psi as its residual variance."""
        mu = np.array([100.0, 200.0, 300.0])
        psi = np.array([0.01, 0.25, 4.0])
        N = 2000
        scn = SimScenario(d_z=2,
                          blocks=(BlockSpec(name="g", kind="normal", d_x=3, mu=mu, psi=psi),),
                          w_T=np.zeros(3), w_C=np.zeros(3), n_train=N, n_test=0, seed=6)
        train, _, lat = simulate_dataset(scn)
        design = np.vstack([np.ones(N), lat["train"]]).T
        X = train.blocks[0].values
        coef, *_ = np.linalg.lstsq(design, X.T, rcond=None)
        resid = X.T - design @ coef
        np.testing.assert_allclose(coef[0], mu, atol=0.3)
        np.testing.assert_allclose(resid.var(axis=0), psi, rtol=0.15)

    def test_latents_drive_block(self):
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="g", kind="normal", d_x=3,
                                            W=np.full((3, 1), 2.0),
                                            psi=np.full(3, 0.1)),),
                          w_T=np.zeros(2), w_C=np.zeros(2),
                          n_train=400, n_test=0, seed=5)
        train, _, lat = simulate_dataset(scn)
        z = lat["train"][0]
        x0 = train.blocks[0].values[0]
        corr = np.corrcoef(z, x0)[0, 1]
        assert corr > 0.95


class TestHazardLink:
    def test_binned_event_rates_match_risk_score(self):
        """Group training samples by their true linear predictor; within a bin
        the observed time is approximately Exp(lam_T + lam_C) so the bin's mean
        time must match 1/(lam_T + lam_C) at the bin centre."""
        w_T = np.array([0.0, 1.0])
        w_C = np.array([-0.5, 0.0])
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="x", kind="normal", d_x=3),),
                          w_T=w_T, w_C=w_C, n_train=20_000, n_test=0, seed=11)
        train, _, lat = simulate_dataset(scn)
        z = lat["train"][0]
        t = train.times()
        # narrow bins across the bulk of the latent distribution
        edges = np.linspace(-1.5, 1.5, 7)
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (z >= lo) & (z < hi)
            if sel.sum() < 200:
                continue
            zc = z[sel]
            rate = np.exp(w_T[0] + w_T[1] * zc) + np.exp(w_C[0] + w_C[1] * zc)
            want = (1.0 / rate).mean()
            got = t[sel].mean()
            se = t[sel].std() / math.sqrt(sel.sum())
            assert abs(got - want) <= 4 * se

    def test_events_concentrate_on_high_risk(self):
        w_T = np.array([0.0, 1.5])
        w_C = np.array([0.0, 0.0])
        scn = SimScenario(d_z=1,
                          blocks=(BlockSpec(name="x", kind="normal", d_x=3),),
                          w_T=w_T, w_C=w_C, n_train=4000, n_test=0, seed=13)
        train, _, lat = simulate_dataset(scn)
        z = lat["train"][0]
        d = train.events()
        assert z[d > 0].mean() > z[d == 0].mean()


class TestDeterminism:
    def test_same_seed_identical(self):
        scn = null_scenario(n_train=50, seed=42)
        a_train, a_test, a_lat = simulate_dataset(scn)
        b_train, b_test, b_lat = simulate_dataset(scn)
        np.testing.assert_array_equal(a_train.blocks[0].values,
                                      b_train.blocks[0].values)
        np.testing.assert_array_equal(a_train.times(), b_train.times())
        np.testing.assert_array_equal(a_lat["train"], b_lat["train"])
        assert a_train.sample_ids == b_train.sample_ids

    def test_different_seed_differs(self):
        a, _, _ = simulate_dataset(null_scenario(n_train=50, seed=1))
        b, _, _ = simulate_dataset(null_scenario(n_train=50, seed=2))
        assert not np.array_equal(a.blocks[0].values, b.blocks[0].values)

    def test_empty_test_set(self):
        scn = null_scenario(n_train=20, seed=0)
        scn = SimScenario(d_z=scn.d_z, blocks=scn.blocks, w_T=scn.w_T,
                          w_C=scn.w_C, n_train=20, n_test=0, seed=0)
        _, test, lat = simulate_dataset(scn)
        assert test.sample_ids == ()
        assert lat["test"].shape == (1, 0)


def scenario_of(model, blocks, **sizes):
    """A scenario carrying a fitted model's parameters verbatim; ``blocks``
    gives the kinds and trial counts of the fitted block parameters."""
    specs = tuple(BlockSpec(name=block.name, kind=block.kind, d_x=params.d_x, b=block.b,
                            W=params.W, mu=params.mu, psi=params.psi)
                  for block, params in zip(blocks, model.fa.block_params))
    return SimScenario(d_z=model.fa.d_z, blocks=specs, w_T=model.w_T.w, w_C=model.w_C.w,
                       **sizes)


class TestScenarioFromModel:
    def test_parameters_carried_verbatim(self, rng):
        ds = make_dataset(rng, N=30)
        fa, _ = fit_fa(ds, 2)
        model = JointModel(fa=fa, w_T=HazardParams(np.array([0.1, 0.5, -0.5])),
                           w_C=HazardParams(np.array([-0.2, 0.0, 0.0])),
                           kappa_used=None, fit_mode="fast_decoupled")
        scn = scenario_of(model, ds.blocks, n_train=40, n_test=10, seed=3)
        assert scn.d_z == 2
        np.testing.assert_array_equal(scn.w_T, model.w_T.w)
        np.testing.assert_array_equal(scn.w_C, model.w_C.w)
        spec = scn.blocks[0]
        np.testing.assert_array_equal(spec.W, fa.block_params[0].W)
        np.testing.assert_array_equal(spec.mu, fa.block_params[0].mu)
        np.testing.assert_array_equal(spec.psi, fa.block_params[0].psi)

    def test_roundtrip_simulates(self, rng):
        ds = make_dataset(rng, N=30)
        fa, _ = fit_fa(ds, 2)
        model = JointModel(fa=fa, w_T=HazardParams(np.array([0.0, 0.3, 0.0])),
                           w_C=HazardParams(np.array([0.0, 0.0, 0.0])),
                           kappa_used=None, fit_mode="fast_decoupled")
        scn = scenario_of(model, ds.blocks, n_train=25, n_test=5, seed=8)
        train, test, lat = simulate_dataset(scn)
        assert len(train.sample_ids) == 25
        assert len(test.sample_ids) == 5
        assert train.blocks[0].values.shape == ds.blocks[0].values.shape[:1] + (25,)
