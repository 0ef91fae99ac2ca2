import numpy as np
import pytest

from latentsurv.estimators import L1ExponentialHazard, LatentSurvival
from latentsurv.hazard import ecph_predict, fit_ecph
from latentsurv.joint import fit_fast, joint_predict
from tests.conftest import make_dataset


class TestParamsProtocol:
    def test_get_params_defaults(self):
        est = LatentSurvival()
        params = est.get_params()
        assert params["d_z"] == 2
        assert params["fit_mode"] == "fast"

    def test_set_params_returns_self_and_updates(self):
        est = LatentSurvival()
        out = est.set_params(d_z=4, seed=3)
        assert out is est
        assert est.d_z == 4 and est.seed == 3

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            LatentSurvival().set_params(nonsense=1)

    def test_repr_shows_params(self):
        r = repr(L1ExponentialHazard(gamma=0.25))
        assert "L1ExponentialHazard" in r and "gamma=0.25" in r

    def test_clone_by_params(self):
        est = LatentSurvival(d_z=3, seed=9)
        clone = LatentSurvival(**est.get_params())
        assert clone.get_params() == est.get_params()


class TestLatentSurvival:
    def test_fit_predict_matches_functional_core(self, rng):
        ds = make_dataset(rng, N=30)
        est = LatentSurvival(d_z=2, seed=0).fit(ds)
        want = joint_predict(fit_fast(ds, 2, seed=0), ds.blocks)
        np.testing.assert_array_equal(est.predict(ds), want)
        assert isinstance(est.heywood_flag_, bool)

    def test_predict_before_fit_raises(self, rng):
        ds = make_dataset(rng, N=10)
        with pytest.raises(AttributeError):
            LatentSurvival().predict(ds)

    def test_full_mode(self, rng):
        ds = make_dataset(rng, N=20)
        est = LatentSurvival(d_z=2, fit_mode="full", gem_iters=1, seed=0).fit(ds)
        assert est.model_.fit_mode == "full_mcem"
        assert np.all(est.predict(ds) > 0)

    def test_bad_fit_mode(self, rng):
        ds = make_dataset(rng, N=10)
        with pytest.raises(ValueError):
            LatentSurvival(fit_mode="bogus").fit(ds)


class TestL1ExponentialHazard:
    def test_fit_predict_matches_functional_core(self, rng):
        ds = make_dataset(rng, N=30)
        est = L1ExponentialHazard(gamma=0.5).fit(ds)
        from latentsurv.hazard import PenaltyConfig
        w_T, w_C = fit_ecph(ds.stacked_values(), ds.survival,
                            penalty=PenaltyConfig(gamma_T=0.5, gamma_C=0.5))
        np.testing.assert_array_equal(est.params_T_.w, w_T.w)
        np.testing.assert_array_equal(est.params_C_.w, w_C.w)
        np.testing.assert_array_equal(
            est.predict(ds), ecph_predict(w_T, ds.stacked_values()))

    def test_large_penalty_constant_predictions(self, rng):
        ds = make_dataset(rng, N=25)
        est = L1ExponentialHazard(gamma=1e6).fit(ds)
        preds = est.predict(ds)
        assert np.allclose(preds, preds[0])
