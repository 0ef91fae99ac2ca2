import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, gammaln, log_expit

from latentsurv import factor
from latentsurv.data import CovariateBlock, Dataset, make_split
from latentsurv.factor import (
    XI_LIMIT,
    BlockParams,
    FaModel,
    LatentPosterior,
    VariationalState,
    diverse_estep,
    fa_objective,
    fit_fa,
    gaussian_mstep,
    lambda_of_xi,
    ppca_init,
    update_alpha,
    update_mu,
    update_W,
    update_xi,
    variational_log_marginal,
)
from latentsurv.simulate import simulate_dataset
from tests.conftest import (
    count_calls,
    count_fit_block,
    fit_fa_with,
    gaussian_log_likelihood,
    make_dataset,
    make_survival,
    normal_block,
    single_block_estep,
)


def sigmoid_bound(x, xi):
    lam = lambda_of_xi(xi)
    return expit(xi) * np.exp(0.5 * (x - xi) - lam * (x**2 - xi**2))


def const_posterior(mean, cov):
    mean = np.atleast_2d(mean)
    N = mean.shape[1]
    return LatentPosterior(mean=mean,
                           cov=np.broadcast_to(cov, (N,) + np.shape(cov)).copy())


def masked_lambda_of_xi(xi):
    """lambda(xi) by mask indexing: the oracle of the library's np.where form."""
    xi = np.asarray(xi, dtype=float)
    out = np.full(xi.shape, 0.125)
    big = np.abs(xi) > XI_LIMIT
    out[big] = np.tanh(0.5 * xi[big]) / (4.0 * xi[big])
    return out


class TestLambdaOfXi:
    def test_limit_at_zero(self):
        assert lambda_of_xi(0.0) == 0.125

    def test_where_form_equals_mask_form_bit_for_bit(self):
        edge = np.array([0.0, 1e-300, XI_LIMIT, np.nextafter(XI_LIMIT, 0.0),
                         np.nextafter(XI_LIMIT, 1.0), 700.0])
        grid = np.concatenate([edge, -edge, np.linspace(-40.0, 40.0, 1001),
                               np.geomspace(1e-12, 1e3, 500)])
        for xi in (grid, np.stack([grid, grid[::-1]])):
            assert lambda_of_xi(xi).tobytes() == masked_lambda_of_xi(xi).tobytes()

    def test_zero_raises_nothing(self):
        with np.errstate(all="raise"):
            assert lambda_of_xi(0.0) == 0.125
            np.testing.assert_array_equal(lambda_of_xi(np.zeros((3, 4))), 0.125)

    def test_state_never_carries_a_stale_lambda(self, rng):
        state = VariationalState(xi=rng.uniform(0.0, 3.0, (3, 4)), alpha=np.ones(4))
        np.testing.assert_array_equal(state.lam, lambda_of_xi(state.xi))  # now cached
        moved = replace(state, xi=2.0 * state.xi)
        np.testing.assert_array_equal(moved.lam, lambda_of_xi(moved.xi))
        realpha = state.with_alpha(np.zeros(4))  # same xi, so the same lambda
        assert realpha.lam is state.lam and np.array_equal(realpha.alpha, np.zeros(4))
        params = [BlockParams(W=rng.standard_normal((3, 2)), mu=rng.standard_normal(3))]
        x = factor._coords(params, [state])
        _, [extrapolated] = factor._from_coords(x - 0.5, params, [state])
        assert not np.array_equal(extrapolated.xi, state.xi)
        np.testing.assert_array_equal(extrapolated.lam, lambda_of_xi(extrapolated.xi))

    def test_at_one(self):
        assert lambda_of_xi(1.0) == pytest.approx((expit(1.0) - 0.5) / 2.0, rel=1e-14)

    def test_even_function(self, rng):
        a = rng.uniform(0.01, 10, size=20)
        np.testing.assert_allclose(lambda_of_xi(a), lambda_of_xi(-a), rtol=1e-14)

    def test_continuous_at_cutoff(self):
        assert lambda_of_xi(2e-8) == pytest.approx(0.125, abs=1e-8)

    def test_matches_the_logistic_form_from_1e_3(self):
        """Within 1e-12 of (sigma(xi) - 1/2) / (2 xi) by scipy's expit for
        1e-3 <= |xi| <= 700: the reference itself loses digits to the
        cancellation sigma(xi) - 1/2, about 3.6e-13 relative at xi = 1e-3."""
        xi = np.geomspace(1e-3, 700.0, 20001)
        xi = np.concatenate([xi, -xi])
        np.testing.assert_allclose(lambda_of_xi(xi), (expit(xi) - 0.5) / (2.0 * xi),
                                   rtol=1e-12, atol=0.0)

    def test_matches_the_series_below_1e_3(self):
        """Within 1e-14 of 1/8 - xi^2/96 between the cut-off and 1e-3: the
        series' next term, xi^4/960, is at most 8.4e-15 of 1/8 there."""
        xi = np.geomspace(np.nextafter(XI_LIMIT, 1.0), 1e-3, 20001)
        xi = np.concatenate([xi, -xi])
        np.testing.assert_allclose(lambda_of_xi(xi), 0.125 - xi**2 / 96.0,
                                   rtol=1e-14, atol=0.0)


class TestDataOnlyTerms:
    def test_log_sigmoid_matches_scipy(self):
        """A one-feature Bernoulli block at x = 0 and mu = 0 leaves
        log sigma(xi) - xi/2 + lambda(xi) xi^2 per sample; its log sigma(xi)
        (-log1p(exp(-xi)), finite for every xi >= 0) is within 1e-15 of
        scipy's log_expit over xi in {0} and [1e-12, 800]."""
        xi = np.concatenate([[0.0], np.geomspace(1e-12, 800.0, 5001)])[None, :]
        X = np.zeros_like(xi)
        block = factor._FitBlock(X, 1, np.zeros_like(xi), X - 0.5)
        params = BlockParams(W=np.zeros((1, 2)), mu=np.zeros(1))
        state = VariationalState(xi=xi)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = factor._block_constant(block, params, state)
        want = log_expit(xi[0]) - 0.5 * xi[0] + lambda_of_xi(xi[0]) * xi[0] ** 2
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kind, b", [("binomial", 1), ("binomial", 30),
                                         ("binomial", 500), ("multinomial", 1),
                                         ("multinomial", 40)])
    def test_log_coefficients_match_gammaln(self, rng, kind, b):
        """The log binomial/multinomial coefficient from the math.lgamma table
        is within 1e-15 * log b! of the gammaln form (the table's entries
        cancel from terms of that size), and a missing cell gives NaN."""
        d_x, N = 4, 50
        if kind == "binomial":
            X = rng.integers(0, b + 1, (d_x, N)).astype(float)
        else:
            X = rng.multinomial(b, np.full(d_x, 1.0 / d_x), N).T.astype(float)
        X[1, 3] = X[3, 0] = np.nan
        block = CovariateBlock(name="c", kind=kind, b=b, values=X,
                               feature_names=tuple(f"c{i}" for i in range(d_x)))
        term = factor._fit_block(block).term
        if kind == "binomial":
            want = gammaln(b + 1) - gammaln(X + 1) - gammaln(b - X + 1)
        else:
            want = gammaln(b + 1) / d_x - gammaln(X + 1)
        np.testing.assert_array_equal(np.isnan(term), np.isnan(X))
        np.testing.assert_allclose(term, want, rtol=0.0, atol=1e-15 * gammaln(b + 1))


class TestSigmoidBound:
    def test_grid_inequality_and_tightness(self):
        xs = np.linspace(-10, 10, 100)
        xis = np.linspace(-10, 10, 100)
        bound = sigmoid_bound(xs[:, None], xis[None, :])
        assert np.all(bound <= expit(xs)[:, None] + 1e-12)
        np.testing.assert_allclose(sigmoid_bound(xs, xs), expit(xs), atol=1e-12)


class TestSoftmaxBound:
    def test_random_draws(self, rng):
        for _ in range(200):
            eta = rng.normal(scale=3, size=rng.integers(2, 6))
            alpha = rng.normal(scale=3)
            lhs = np.log(np.exp(eta).sum())
            rhs = alpha + np.log1p(np.exp(eta - alpha)).sum()
            assert lhs <= rhs + 1e-12


class TestGemmKernels:
    """The factor kernels are GEMMs against the outer products of the loading
    rows; the einsums they replaced are their oracles. The draws are positive,
    so no sum cancels and the two summation orders agree to a few ulps."""

    @settings(max_examples=150, deadline=None)
    @given(d_x=st.integers(1, 7), N=st.integers(1, 7), d_z=st.integers(1, 5),
           b=st.integers(1, 3), multinomial=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_gemm_forms_match_einsums(self, d_x, N, d_z, b, multinomial, seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(0.0, 2.0, (d_x, d_z))
        params = BlockParams(W=W, mu=rng.standard_normal(d_x))
        state = VariationalState(xi=rng.uniform(0.0, 5.0, (d_x, N)),
                                 alpha=rng.standard_normal(N) if multinomial else None)
        L = rng.uniform(0.0, 1.0, (N, d_z, d_z))
        post = LatentPosterior(mean=rng.uniform(0.0, 2.0, (d_z, N)),
                               cov=L @ L.transpose(0, 2, 1) + np.eye(d_z))
        X = rng.integers(0, b + 1, (d_x, N)).astype(float)
        lam, ezz = state.lam, post.second_moments()

        prec, _ = factor._block_quadratic(count_fit_block(X, b), params, state)
        np.testing.assert_allclose(prec, 2.0 * b * np.einsum("in,ij,ik->njk", lam, W, W),
                                   rtol=1e-12)

        offset = params.mu[:, None]
        if multinomial:
            offset = offset - state.alpha[None, :]
        quad = np.einsum("ij,njk,ik->in", W, ezz, W)
        xi_sq = quad + 2.0 * (W @ post.mean) * offset + offset**2
        np.testing.assert_allclose(update_xi(params, post, alpha=state.alpha),
                                   np.sqrt(xi_sq), rtol=1e-12)

        np.testing.assert_allclose(factor._weighted_sum(lam, ezz.reshape(N, -1)),
                                   np.einsum("in,njk->ijk", lam, ezz), rtol=1e-12)

    def test_second_moments_computed_once(self, rng):
        post = const_posterior(rng.standard_normal((2, 3)), np.eye(2))
        assert post.second_moments() is post.second_moments()


class TestGaussianEstep:
    def test_zero_loadings_prior(self, rng):
        params = BlockParams(W=np.zeros((4, 2)), mu=rng.normal(size=4),
                             psi=np.ones(4))
        post = single_block_estep(params, None, rng.standard_normal((4, 3)))
        np.testing.assert_allclose(post.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(post.cov, np.broadcast_to(np.eye(2), (3, 2, 2)),
                                   atol=1e-14)

    def test_scalar_example(self):
        params = BlockParams(W=np.array([[1.0]]), mu=np.array([0.0]),
                             psi=np.array([1.0]))
        post = single_block_estep(params, None, np.array([[2.0]]))
        assert post.mean[0, 0] == pytest.approx(1.0)
        assert post.cov[0, 0, 0] == pytest.approx(0.5)

    def test_matches_conjugacy_oracle(self, rng):
        d_x, d_z, N = 5, 3, 7
        W = rng.standard_normal((d_x, d_z))
        mu = rng.normal(size=d_x)
        psi = rng.uniform(0.5, 2.0, size=d_x)
        X = rng.standard_normal((d_x, N))
        post = single_block_estep(BlockParams(W=W, mu=mu, psi=psi), None, X)
        # joint (z, x) Gaussian: cov_zz = I, cov_zx = W', cov_xx = WW' + Psi
        cov_xx = W @ W.T + np.diag(psi)
        gain = np.linalg.solve(cov_xx, W).T  # cov_zx cov_xx^{-1}
        want_mean = gain @ (X - mu[:, None])
        want_cov = np.eye(d_z) - gain @ W
        np.testing.assert_allclose(post.mean, want_mean, atol=1e-10)
        np.testing.assert_allclose(post.cov[0], want_cov, atol=1e-10)

    def test_posterior_identity_and_spd(self, rng):
        params = BlockParams(W=rng.standard_normal((6, 2)), mu=np.zeros(6),
                             psi=rng.uniform(0.5, 1.5, 6))
        post = single_block_estep(params, None, rng.standard_normal((6, 9)))
        ezz = post.second_moments()
        outer = np.einsum("jn,kn->njk", post.mean, post.mean)
        np.testing.assert_allclose(ezz - outer, post.cov, atol=1e-12)
        for C in post.cov:
            np.testing.assert_allclose(C, C.T, atol=1e-12)
            assert np.linalg.eigvalsh(C).min() > 0


class TestGaussianMstep:
    def test_mean_is_row_mean(self):
        X = np.array([[1.0, 3.0], [0.0, 0.0]])
        post = const_posterior(np.zeros((1, 2)), np.eye(1))
        params = gaussian_mstep(X, post)
        np.testing.assert_allclose(params.mu, [2.0, 0.0])

    def test_zero_posterior_gives_sample_variance(self, rng):
        X = rng.standard_normal((3, 10))
        N = 10
        post = LatentPosterior(mean=np.zeros((2, N)),
                               cov=np.broadcast_to(np.eye(2), (N, 2, 2)).copy())
        params = gaussian_mstep(X, post)
        np.testing.assert_allclose(params.W, 0.0, atol=1e-14)
        np.testing.assert_allclose(params.psi, X.var(axis=1), atol=1e-12)

    def test_em_iteration_monotone_from_warm_start(self, rng):
        X = normal_block(rng, 6, 60, d_z=2).values
        params = ppca_init(X, 2)
        before = gaussian_log_likelihood(params, X)
        post = single_block_estep(params, None, X)
        after = gaussian_log_likelihood(gaussian_mstep(X, post), X)
        assert after >= before - 1e-8 * abs(before)

    def test_psi_floor_clamps(self, rng):
        # noiseless rank-1 data forces psi toward 0
        u = rng.standard_normal(4)
        z = rng.standard_normal(30)
        X = np.outer(u, z)
        params = ppca_init(X, 1)
        for _ in range(20):
            post = single_block_estep(params, None, X)
            params = gaussian_mstep(X, post, psi_floor=1e-10)
        assert np.all(params.psi >= 1e-10)


class TestBinomialEstep:
    def test_zero_loadings_prior(self, rng):
        params = BlockParams(W=np.zeros((3, 2)), mu=np.zeros(3), psi=None)
        state = VariationalState(xi=np.ones((3, 4)))
        post = single_block_estep(params, state, rng.integers(0, 2, (3, 4)).astype(float))
        np.testing.assert_allclose(post.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(post.cov, np.broadcast_to(np.eye(2), (4, 2, 2)),
                                   atol=1e-14)

    def test_hand_example(self):
        params = BlockParams(W=np.array([[2.0]]), mu=np.array([0.0]), psi=None)
        state = VariationalState(xi=np.zeros((1, 1)))
        post = single_block_estep(params, state, np.array([[1.0]]), b=1)
        assert post.cov[0, 0, 0] == pytest.approx(0.5)
        assert post.mean[0, 0] == pytest.approx(0.5)

    def test_against_quadrature_posterior(self, rng):
        """1-D logistic model: converged-xi bound posterior within 5% of the
        exact posterior moments computed by numeric integration."""
        W = np.array([[1.0]])
        mu = np.array([0.0])
        params = BlockParams(W=W, mu=mu, psi=None)
        x = np.array([[1.0]])
        state = VariationalState(xi=np.ones((1, 1)))
        post = single_block_estep(params, state, x, b=1)
        for _ in range(200):  # iterate xi to convergence at fixed params
            state = VariationalState(xi=update_xi(params, post))
            post = single_block_estep(params, state, x, b=1)

        def unnorm(z):
            return expit(W[0, 0] * z + mu[0]) * math.exp(-0.5 * z * z)

        Z0 = quad(unnorm, -12, 12)[0]
        m1 = quad(lambda z: z * unnorm(z), -12, 12)[0] / Z0
        m2 = quad(lambda z: z * z * unnorm(z), -12, 12)[0] / Z0
        var = m2 - m1**2
        assert post.mean[0, 0] == pytest.approx(m1, rel=0.05)
        assert post.cov[0, 0, 0] == pytest.approx(var, rel=0.05)


class TestBinomialMstep:
    def test_symmetric_data_zero_mean(self, rng):
        # counts at b/2 with a symmetric posterior leave no mean signal
        params = BlockParams(W=np.zeros((2, 1)), mu=np.zeros(2), psi=None)
        X = np.full((2, 6), 1.0)  # b = 2, x = b/2
        post = const_posterior(np.zeros((1, 6)), np.eye(1))
        new, _ = factor._block_mstep(count_fit_block(X, 2), params,
                                     VariationalState(xi=np.ones((2, 6))), post)
        np.testing.assert_allclose(new.mu, 0.0, atol=1e-12)

    def test_xi_squared_reduces_to_mu_at_zero_loadings(self, rng):
        mu = rng.normal(size=3)
        params = BlockParams(W=np.zeros((3, 1)), mu=mu, psi=None)
        post = const_posterior(rng.standard_normal((1, 5)), np.eye(1))
        xi = update_xi(params, post)
        np.testing.assert_allclose(xi, np.abs(mu)[:, None] * np.ones((3, 5)),
                                   atol=1e-12)

    def test_substeps_monotone(self, rng):
        from tests.conftest import binomial_block
        block = binomial_block(rng, 4, 6, d_z=2)
        blocks = (block,)
        params = BlockParams(W=rng.normal(scale=0.3, size=(4, 2)),
                             mu=rng.normal(scale=0.3, size=4), psi=None)
        state = VariationalState(xi=np.ones((4, 6)))
        for _ in range(3):
            post = diverse_estep((params,), (state,), blocks)
            before = variational_log_marginal((params,), (state,), blocks)
            # xi sub-step
            state = VariationalState(xi=update_xi(params, post))
            mid1 = variational_log_marginal((params,), (state,), blocks)
            assert mid1 >= before - 1e-8 * abs(before)
            # W sub-step
            post = diverse_estep((params,), (state,), blocks)
            W = update_W(block.values - block.b / 2, block.b, params, post, state)
            params = BlockParams(W=W, mu=params.mu, psi=None)
            mid2 = variational_log_marginal((params,), (state,), blocks)
            assert mid2 >= mid1 - 1e-8 * abs(mid1)
            # mu sub-step
            post = diverse_estep((params,), (state,), blocks)
            mu = update_mu(block.values - block.b / 2, block.b, W, post, state)
            params = BlockParams(W=W, mu=mu, psi=None)
            after = variational_log_marginal((params,), (state,), blocks)
            assert after >= mid2 - 1e-8 * abs(mid2)

    def test_zero_second_moments_take_the_ridge(self, rng, caplog):
        """A posterior with zero mean and covariance makes every feature's
        accumulation zero, so the loading update warns and solves with a ridge."""
        from tests.conftest import binomial_block
        block = binomial_block(rng, 4, 6, d_z=2)
        params = BlockParams(W=rng.normal(scale=0.3, size=(4, 2)),
                             mu=rng.normal(scale=0.3, size=4), psi=None)
        post = LatentPosterior(mean=np.zeros((2, 6)), cov=np.zeros((6, 2, 2)))
        with caplog.at_level("WARNING", logger="latentsurv.factor"):
            W = update_W(block.values - block.b / 2, block.b, params, post,
                         VariationalState(xi=np.ones((4, 6))))
        assert [r.getMessage() for r in caplog.records] == [
            "semidefinite accumulation in loading update; adding ridge"]
        assert W.shape == (4, 2) and np.isfinite(W).all()


class TestMultinomialEstep:
    def test_zero_loadings_prior(self):
        params = BlockParams(W=np.zeros((3, 2)), mu=np.zeros(3), psi=None)
        state = VariationalState(xi=np.ones((3, 2)), alpha=np.zeros(2))
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        post = single_block_estep(params, state, X, b=1)
        np.testing.assert_allclose(post.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(post.cov, np.broadcast_to(np.eye(2), (2, 2, 2)),
                                   atol=1e-14)

    def test_alpha_equal_mu_cancels(self, rng):
        d_x, N = 3, 4
        W = rng.standard_normal((d_x, 1))
        m = 0.7
        X = np.zeros((d_x, N))
        X[0] = 1.0
        xi = rng.uniform(0.5, 2.0, size=(d_x, N))
        multi = single_block_estep(
            BlockParams(W=W, mu=np.full(d_x, m), psi=None),
            VariationalState(xi=xi, alpha=np.full(N, m)), X, b=1)
        bino = single_block_estep(
            BlockParams(W=W, mu=np.zeros(d_x), psi=None),
            VariationalState(xi=xi), X, b=1)
        np.testing.assert_allclose(multi.mean, bino.mean, atol=1e-12)
        np.testing.assert_allclose(multi.cov, bino.cov, atol=1e-12)

    def test_two_category_reduces_to_binomial(self, rng):
        """b = 1, two categories, last row zeroed, alpha = 0: category-1 count
        is conditionally binomial with matched parameters."""
        N = 5
        W = np.vstack([rng.standard_normal((1, 2)), np.zeros((1, 2))])
        mu = np.array([rng.normal(), 0.0])
        x1 = rng.integers(0, 2, N).astype(float)
        X = np.vstack([x1, 1 - x1])
        xi1 = rng.uniform(0.5, 2.0, size=(1, N))
        multi = single_block_estep(
            BlockParams(W=W, mu=mu, psi=None),
            VariationalState(xi=np.vstack([xi1, np.full((1, N), 1e-6)]),
                             alpha=np.zeros(N)),
            X, b=1)
        bino = single_block_estep(
            BlockParams(W=W[:1], mu=mu[:1], psi=None),
            VariationalState(xi=xi1), np.atleast_2d(x1), b=1)
        np.testing.assert_allclose(multi.mean, bino.mean, atol=1e-6)
        np.testing.assert_allclose(multi.cov, bino.cov, atol=1e-6)


class TestMultinomialMstep:
    def test_last_row_zeroed(self, rng):
        from tests.conftest import multinomial_block
        block = multinomial_block(rng, 4, 8, d_z=2)
        params = BlockParams(W=np.vstack([rng.standard_normal((3, 2)), np.zeros((1, 2))]),
                             mu=np.concatenate([rng.normal(size=3), [0.0]]), psi=None)
        state = VariationalState(xi=np.ones((4, 8)), alpha=np.ones(8))
        post = diverse_estep((params,), (state,), (block,))
        for _ in range(3):
            params, state = factor._block_mstep(count_fit_block(block.values, 1),
                                                params, state, post)
            post = diverse_estep((params,), (state,), (block,))
            np.testing.assert_array_equal(params.W[-1], 0.0)
            assert params.mu[-1] == 0.0

    def test_alpha_plugin_formula(self):
        d_x, N = 4, 3
        params = BlockParams(W=np.zeros((d_x, 2)), mu=np.zeros(d_x), psi=None)
        post = const_posterior(np.zeros((2, N)), np.eye(2))
        xi = np.full((d_x, N), 1.5)
        alpha = update_alpha(params, post, VariationalState(xi=xi))
        lam = lambda_of_xi(1.5)
        want = -(1 - d_x / 2) / (2 * d_x * lam)
        np.testing.assert_allclose(alpha, want, rtol=1e-12)

    def test_alpha_stationarity_finite_differences(self, rng):
        from tests.conftest import multinomial_block
        block = multinomial_block(rng, 4, 5, d_z=2)
        params = BlockParams(
            W=np.vstack([rng.normal(scale=0.5, size=(3, 2)), np.zeros((1, 2))]),
            mu=np.concatenate([rng.normal(scale=0.5, size=3), [0.0]]), psi=None)
        state = VariationalState(xi=rng.uniform(0.5, 2.0, (4, 5)), alpha=np.ones(5))
        # iterate the conditional update to its fixed point: the marginal-bound
        # gradient vanishes where the update reproduces itself under the
        # posterior refreshed at that alpha
        alpha = state.alpha
        for _ in range(200):
            state = VariationalState(xi=state.xi, alpha=alpha)
            post = diverse_estep((params,), (state,), (block,))
            alpha = update_alpha(params, post, state)
        h = 1e-6
        for n in range(5):
            def obj(a_n):
                a = alpha.copy()
                a[n] = a_n
                s = VariationalState(xi=state.xi, alpha=a)
                return variational_log_marginal((params,), (s,), (block,))
            grad = (obj(alpha[n] + h) - obj(alpha[n] - h)) / (2 * h)
            assert abs(grad) <= 1e-4


class TestDiverseEstep:
    def test_single_gaussian_reduction(self, rng):
        block = normal_block(rng, 5, 6, d_z=2)
        params = ppca_init(block.values, 2)
        joint = diverse_estep((params,), (None,), (block,))
        single = single_block_estep(params, None, block.values)
        np.testing.assert_allclose(joint.mean, single.mean, atol=1e-12)
        np.testing.assert_allclose(joint.cov, single.cov, atol=1e-12)

    def test_zero_block_contributes_nothing(self, rng):
        from tests.conftest import binomial_block
        block_n = normal_block(rng, 5, 6, d_z=2)
        block_b = binomial_block(rng, 3, 6, d_z=2)
        params_n = ppca_init(block_n.values, 2)
        params_b = BlockParams(W=np.zeros((3, 2)), mu=np.zeros(3), psi=None)
        state_b = VariationalState(xi=np.ones((3, 6)))
        joint = diverse_estep((params_n, params_b), (None, state_b),
                              (block_n, block_b))
        single = single_block_estep(params_n, None, block_n.values)
        np.testing.assert_allclose(joint.mean, single.mean, atol=1e-12)
        np.testing.assert_allclose(joint.cov, single.cov, atol=1e-12)

    def test_mixed_toy_against_quadrature(self, rng):
        """d_z = 1 Gaussian + Bernoulli sample: posterior within 5% of the
        exact mixed-model posterior from numeric integration at converged xi."""
        Wn = np.array([[0.9]])
        psi = np.array([0.8])
        Wb = np.array([[1.1]])
        xn = np.array([[0.7]])
        xb = np.array([[1.0]])
        block_n = CovariateBlock(name="n", kind="normal", b=1, values=xn,
                                 feature_names=("f",))
        block_b = CovariateBlock(name="b", kind="binomial", b=1, values=xb,
                                 feature_names=("g",))
        params_n = BlockParams(W=Wn, mu=np.zeros(1), psi=psi)
        params_b = BlockParams(W=Wb, mu=np.zeros(1), psi=None)
        state = VariationalState(xi=np.ones((1, 1)))
        post = diverse_estep((params_n, params_b), (None, state),
                             (block_n, block_b))
        for _ in range(200):
            state = VariationalState(xi=update_xi(params_b, post))
            post = diverse_estep((params_n, params_b), (None, state),
                                 (block_n, block_b))

        def unnorm(z):
            lik_n = math.exp(-0.5 * (xn[0, 0] - Wn[0, 0] * z) ** 2 / psi[0])
            lik_b = expit(Wb[0, 0] * z)
            return lik_n * lik_b * math.exp(-0.5 * z * z)

        Z0 = quad(unnorm, -12, 12)[0]
        m1 = quad(lambda z: z * unnorm(z), -12, 12)[0] / Z0
        m2 = quad(lambda z: z * z * unnorm(z), -12, 12)[0] / Z0
        assert post.mean[0, 0] == pytest.approx(m1, rel=0.05)
        assert post.cov[0, 0, 0] == pytest.approx(m2 - m1**2, rel=0.05)


class TestPpcaInit:
    def test_identical_columns_guarded(self):
        X = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        params = ppca_init(X, 1)
        np.testing.assert_allclose(params.psi, 1e-12)
        np.testing.assert_allclose(params.W, 0.0, atol=1e-12)

    def test_small_block_fallback_ones(self, rng):
        X = rng.standard_normal((1, 10))
        params = ppca_init(X, 2)
        np.testing.assert_array_equal(params.W, np.ones((1, 2)))

    def test_fewer_samples_than_latent_dims(self, rng):
        # N < d_z < d_x: the SVD has only N directions, so the loadings past
        # them stay zero and the first one follows the data
        X = rng.standard_normal((5, 2))
        params = ppca_init(X, 3)
        assert params.W.shape == (5, 3)
        np.testing.assert_array_equal(params.W[:, 2], 0.0)
        diff = X[:, 0] - X[:, 1]
        w = params.W[:, 0]
        assert abs(w @ diff) / (np.linalg.norm(w) * np.linalg.norm(diff)) == pytest.approx(1.0)
        np.testing.assert_allclose(params.psi, 1e-12)

    def test_reconstruction_correlates_with_sample_covariance(self, rng):
        d_x, d_z, N = 8, 2, 2000
        W = rng.standard_normal((d_x, d_z))
        psi = rng.uniform(0.5, 1.0, d_x)
        Z = rng.standard_normal((d_z, N))
        X = W @ Z + rng.standard_normal((d_x, N)) * np.sqrt(psi)[:, None]
        params = ppca_init(X, d_z)
        recon = (params.W @ params.W.T + np.diag(params.psi)).ravel()
        sample = np.cov(X).ravel()
        cosine = recon @ sample / (np.linalg.norm(recon) * np.linalg.norm(sample))
        assert cosine > 0.9


class TestFitFa:
    def test_recovers_gaussian_likelihood(self, rng):
        d_x, d_z, N = 10, 2, 1000
        W = rng.standard_normal((d_x, d_z))
        mu = rng.normal(size=d_x)
        psi = rng.uniform(0.5, 1.5, d_x)
        block = normal_block(rng, d_x, N, W=W, mu=mu, psi=psi, d_z=d_z)
        ds = Dataset(blocks=(block,),
                     survival=make_survival(np.ones(N), np.ones(N)),
                     sample_ids=tuple(f"s{j}" for j in range(N)))
        model, _ = fit_fa(ds, d_z)
        truth = gaussian_log_likelihood(BlockParams(W=W, mu=mu, psi=psi), block.values)
        fitted = gaussian_log_likelihood(model.block_params[0], block.values)
        assert fitted >= truth - 0.01 * abs(truth)

    def test_heywood_on_noiseless_rank_one(self, rng):
        u = rng.standard_normal(5)
        z = rng.standard_normal(50)
        X = np.outer(u, z)
        block = CovariateBlock(name="x", kind="normal", b=1, values=X,
                               feature_names=tuple(f"f{i}" for i in range(5)))
        ds = Dataset(blocks=(block,),
                     survival=make_survival(np.ones(50), np.ones(50)),
                     sample_ids=tuple(f"s{j}" for j in range(50)))
        model, _ = fit_fa(ds, 2)
        assert model.heywood_flag

    def test_dz_zero_rejected(self, rng):
        ds = make_dataset(rng, N=20)
        with pytest.raises(ValueError):
            fit_fa(ds, 0)

    def test_missing_cell_names_block_and_imputation(self, rng):
        ds = make_dataset(rng, N=20, with_binomial=True)
        values = ds.blocks[0].values.copy()
        values[2, 5] = np.nan
        block = CovariateBlock(name="expr", kind="normal", b=1, values=values,
                               feature_names=ds.blocks[0].feature_names)
        ds = Dataset(blocks=(block, ds.blocks[1]), survival=ds.survival,
                     sample_ids=ds.sample_ids)
        with pytest.raises(ValueError, match="block 'expr'.*data.impute_missing"):
            fit_fa(ds, 2)

    def test_mixed_objective_monotone_across_iterations(self, rng, monkeypatch):
        ds = make_dataset(rng, N=30, with_binomial=True, with_multinomial=True)
        # re-run the fit loop manually by tracking the objective each iteration
        objs = []
        for cycles in range(1, 6):
            model, _ = fit_fa_with(monkeypatch, ds, 2, max_sweeps=3 * cycles, rel_tol=0.0)
            objs.append(fa_objective(model, ds))
        diffs = np.diff(objs)
        assert np.all(diffs >= -1e-8 * np.abs(objs[:-1]))

    @pytest.mark.parametrize("draw", range(12))
    def test_plain_em_map_never_lowers_the_bound(self, draw):
        """The EM map under SQUAREM, one joint E-step and one sweep against
        that posterior, on criterion-1 draws with normal, binomial and
        multinomial blocks: 40 steps from the fit's own start, none of which
        lowers the bound beyond rounding."""
        from perfbench.workloads import criterion1_scenario  # the benchmark's generator
        train, _, _ = simulate_dataset(
            criterion1_scenario(40 + 5 * draw, 0, seed=draw, d_x=(15, 6, 4)))
        data = [factor._fit_block(block) for block in train.blocks]
        params, states = zip(*(factor._init_block(block, 2 + draw % 2)
                               for block in train.blocks))
        post, bound = factor._posterior_and_bound(params, states, data)
        for _ in range(40):
            params, states = factor._conditional_sweep(data, params, states, post)
            post, new = factor._posterior_and_bound(params, states, data)
            assert new >= bound - 1e-12 * abs(bound)
            bound = new

    def test_warns_at_iteration_cap(self, rng, caplog, monkeypatch):
        ds = make_dataset(rng, N=30, with_binomial=True)
        with caplog.at_level("WARNING", logger="latentsurv.factor"):
            fit_fa_with(monkeypatch, ds, 2, max_sweeps=2)
        [record] = caplog.records
        assert "stopped at its 2-sweep cap" in record.message
        assert "relative change below 1e-06" in record.message
        assert "last relative change" in record.message

    def test_converged_fit_is_silent(self, rng, caplog, monkeypatch):
        ds = make_dataset(rng, N=30, with_binomial=True)
        with caplog.at_level("WARNING", logger="latentsurv.factor"):
            fit_fa_with(monkeypatch, ds, 2, rel_tol=1e-3)
        assert not caplog.records

    def test_logs_convergence_at_info(self, rng, caplog, monkeypatch):
        ds = make_dataset(rng, N=30, with_binomial=True)
        with caplog.at_level("INFO", logger="latentsurv.factor"):
            fit_fa_with(monkeypatch, ds, 2, rel_tol=1e-3)
        [record] = caplog.records
        assert record.levelname == "INFO" and "converged after" in record.message

    @pytest.mark.parametrize("k", [0, 1, 3, 5, 15])
    def test_one_accumulation_per_iteration(self, rng, monkeypatch, k):
        """Normal + binomial data: the fit runs whole cycles of three sweeps;
        each sweep costs one accumulation (the posterior it runs against) and
        makes none itself, one more gives the first posterior and bound, and a
        cycle that falls back spends one on the bound of its two-step point."""
        ds = make_dataset(rng, N=30, with_binomial=True)
        accumulations = count_calls(monkeypatch, factor, "_accumulate")
        bounds = count_calls(monkeypatch, factor, "_posterior_and_bound")
        cycles = count_calls(monkeypatch, factor, "_step_length")
        inner = factor._conditional_sweep
        in_sweeps = []  # the accumulations each sweep makes itself

        def sweep(*args):
            before = accumulations[0]
            out = inner(*args)
            in_sweeps.append(accumulations[0] - before)
            return out

        monkeypatch.setattr(factor, "_conditional_sweep", sweep)
        fit_fa_with(monkeypatch, ds, 2, max_sweeps=k, rel_tol=0.0)
        sweeps = len(in_sweeps)
        # one bound per cycle, plus the first
        fallbacks = bounds[0] - 1 - cycles[0]
        assert sweeps % 3 == 0 and sweeps <= k
        assert sweeps == 3 * cycles[0] == k - k % 3
        assert in_sweeps == [0] * sweeps
        assert accumulations[0] == sweeps + 1 + fallbacks

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_sweeps_capped_by_max_iters(self, rng, monkeypatch, k):
        ds = make_dataset(rng, N=30, with_binomial=True, with_multinomial=True)
        sweeps = count_calls(monkeypatch, factor, "_conditional_sweep")
        fit_fa_with(monkeypatch, ds, 2, max_sweeps=k, rel_tol=0.0)
        assert sweeps[0] % 3 == 0 and sweeps[0] <= k
        assert sweeps[0] == k - k % 3  # the last whole cycle that fits

    def test_one_lambda_per_xi(self, rng, monkeypatch):
        """One sweep on normal + binomial + multinomial data computes lambda(xi)
        once per count block for the starting states and once after the xi
        update; the alpha update keeps xi, and so keeps lambda. A fit's cycle
        computes it once per count block for each of its three sweeps and for
        its extrapolated point."""
        ds = make_dataset(rng, N=40, with_binomial=True, with_multinomial=True)
        calls = count_calls(monkeypatch, factor, "lambda_of_xi")
        data = [factor._fit_block(block) for block in ds.blocks]
        params, states = zip(*(factor._init_block(block, 2) for block in ds.blocks))
        post, _ = factor._posterior_and_bound(params, states, data)
        params, states = factor._conditional_sweep(data, params, states, post)
        factor._posterior_and_bound(params, states, data)
        assert calls[0] == 4
        calls[0] = 0
        sweeps = count_calls(monkeypatch, factor, "_conditional_sweep")
        fit_fa_with(monkeypatch, ds, 2, max_sweeps=5)
        assert sweeps[0] == 3
        assert calls[0] == 2 * (1 + 3 + 1)

    def test_bound_never_falls_when_every_extrapolation_is_refused(self, rng, monkeypatch):
        """A step length of -1e6 throws each cycle far off, so every cycle
        falls back to its two plain EM steps, and the bound still never falls."""
        ds = make_dataset(rng, N=30, with_binomial=True, with_multinomial=True)
        monkeypatch.setattr(factor, "_step_length", lambda r, v: -1e6)
        objs = [fa_objective(fit_fa_with(monkeypatch, ds, 2, max_sweeps=3 * c, rel_tol=0.0)[0],
                             ds) for c in range(6)]
        assert np.all(np.diff(objs) >= -1e-10 * np.abs(objs[:-1]))
        # one refused cycle (three sweeps of the cap of five; its extrapolated
        # point raises before its sweep) is two plain EM steps, here taken by hand
        cycles = count_calls(monkeypatch, factor, "_step_length")
        cycle, post = fit_fa_with(monkeypatch, ds, 2, max_sweeps=5, rel_tol=0.0)
        assert cycles[0] == 1
        data = [factor._fit_block(block) for block in ds.blocks]
        params, states = zip(*(factor._init_block(block, 2) for block in ds.blocks))
        start, _ = factor._posterior_and_bound(params, states, data)
        params, states = factor._conditional_sweep(data, params, states, start)
        params, states = factor._conditional_sweep(data, params, states,
                                                   diverse_estep(params, states, data))
        plain_post, _ = factor._posterior_and_bound(params, states, data)
        for a, b in zip(cycle.block_params, params):
            np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(post.mean, plain_post.mean)

    def test_select_fast_draw_converges_under_the_default_cap(self, caplog):
        """The slowest fit of the benchmark's select_fast workload at its
        default seed (d_z = 5 on the learning set of fold 2) stops on the tolerance."""
        from perfbench.workloads import SelectFast  # the draw is the benchmark's own
        workload = SelectFast()
        train = workload.setup(workload.default_seed, None)["train"]
        split = make_split(train.n_samples, test_fraction=0.0, n_folds=workload.folds, seed=0)
        with caplog.at_level("INFO", logger="latentsurv.factor"):
            fit_fa(train.subset(split.learning_indices(2)), 5)
        [record] = caplog.records
        assert record.levelname == "INFO" and "converged after" in record.message

    def test_overflowing_cell_raises_without_runtime_warning(self, rng):
        ds = make_dataset(rng, N=20, with_binomial=True)
        values = ds.blocks[0].values.copy()
        values[2, 5] = 1e300
        block = CovariateBlock(name="expr", kind="normal", b=1, values=values,
                               feature_names=ds.blocks[0].feature_names)
        ds = Dataset(blocks=(block, ds.blocks[1]), survival=ds.survival,
                     sample_ids=ds.sample_ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                fit_fa(ds, 2)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_returned_posterior_is_estep_at_returned_parameters(self, rng, monkeypatch, k):
        ds = make_dataset(rng, N=30, with_binomial=True, with_multinomial=True)
        model, post = fit_fa_with(monkeypatch, ds, 2, max_sweeps=k, rel_tol=0.0)
        ref = diverse_estep(model.block_params, model.variational, ds.blocks)
        np.testing.assert_array_equal(post.mean, ref.mean)
        np.testing.assert_array_equal(post.cov, ref.cov)


@pytest.mark.parametrize("params, state", [
    (BlockParams(W=np.ones((3, 1)), mu=np.zeros(3), psi=np.ones(3)), None),
    (BlockParams(W=np.ones((2, 2)), mu=np.zeros(3), psi=np.ones(2)), None),
    (BlockParams(W=np.ones((3, 2)), mu=np.zeros(3), psi=np.ones(2)), None),
    (BlockParams(W=np.ones((3, 2)), mu=np.zeros(3)), VariationalState(xi=np.ones((2, 1)))),
    (BlockParams(W=np.ones((3, 2)), mu=np.zeros(3)), None),
    (BlockParams(W=np.ones((3, 2)), mu=np.zeros(3), psi=np.ones(3)),
     VariationalState(xi=np.ones((3, 1)))),
])
def test_fa_model_refuses_arrays_of_the_wrong_shape(params, state):
    """W must be d_x x d_z, mu, psi and the rows of xi must number d_x, and a
    block has either psi (normal) or a variational state."""
    with pytest.raises(ValueError, match="block 0"):
        FaModel(d_z=2, block_params=(params,), variational=(state,))


class TestFaObjective:
    def test_reduces_to_gaussian_density(self, rng):
        block = normal_block(rng, 4, 12, d_z=2)
        mu = block.values.mean(axis=1)
        psi = block.values.var(axis=1)
        params = BlockParams(W=np.zeros((4, 2)), mu=mu, psi=psi)
        ds = Dataset(blocks=(block,),
                     survival=make_survival(np.ones(12), np.ones(12)),
                     sample_ids=tuple(f"s{j}" for j in range(12)))
        model = FaModel(d_z=2, block_params=(params,), variational=(None,),
                        heywood_flag=False)
        got = fa_objective(model, ds)
        Xc = block.values - mu[:, None]
        want = -0.5 * (np.log(2 * np.pi * psi)[:, None] + Xc**2 / psi[:, None]).sum()
        assert got == pytest.approx(want, rel=1e-12)

    def test_bound_below_exact_marginal(self, rng):
        """1-D Bernoulli toy: bound <= exact marginal (by quadrature) for any xi."""
        W = np.array([[1.2]])
        x = np.array([[1.0]])
        block = CovariateBlock(name="b", kind="binomial", b=1, values=x,
                               feature_names=("g",))
        params = BlockParams(W=W, mu=np.array([0.3]), psi=None)
        exact = math.log(quad(
            lambda z: expit(W[0, 0] * z + 0.3) * math.exp(-0.5 * z * z)
            / math.sqrt(2 * math.pi), -12, 12)[0])
        for xi_val in (0.1, 0.7, 1.5, 4.0):
            state = VariationalState(xi=np.array([[xi_val]]))
            bound = variational_log_marginal((params,), (state,), (block,))
            assert bound <= exact + 1e-10

    def test_rotation_invariance(self, rng, monkeypatch):
        ds = make_dataset(rng, N=25, with_binomial=True)
        model, _ = fit_fa_with(monkeypatch, ds, 2, max_sweeps=10)
        theta = 0.7
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        rotated = FaModel(
            d_z=2,
            block_params=tuple(
                BlockParams(W=p.W @ Q, mu=p.mu, psi=p.psi)
                for p in model.block_params),
            variational=model.variational,
            heywood_flag=model.heywood_flag)
        assert fa_objective(rotated, ds) == pytest.approx(fa_objective(model, ds),
                                                          abs=1e-10)
