"""Likelihood evaluation and fitting for the shared-component model."""

import numpy as np
import pytest
from scipy import stats

import oracles
from cokrig import (
    ConditioningError,
    Design,
    DomainError,
    ExponentialCorrelogram,
    GeneralizedMarkov,
    NuggetCorrelogram,
    build_joint_covariance,
    equispaced,
    fit_mle,
    loglikelihood,
    simulate_observations,
)

TRUTH = dict(theta=17.12, sigma11=0.85, sigma22=0.94, rho=0.25)


def dense_loglik(design, z1, z2, theta, sigma11, sigma22, rho):
    # the fitted structure is the residual-nugget model, so the stacked
    # vector is exactly multivariate normal with that joint covariance
    model = GeneralizedMarkov(
        sigma11, sigma22, rho,
        ExponentialCorrelogram(theta), NuggetCorrelogram())
    cov = build_joint_covariance(model, design)
    mvn = stats.multivariate_normal(mean=np.zeros(2 * design.n), cov=cov)
    z1 = np.atleast_2d(z1)
    z2 = np.atleast_2d(z2)
    return float(sum(mvn.logpdf(np.concatenate([a, b]))
                     for a, b in zip(z1, z2)))


def test_loglikelihood_matches_dense_gaussian(rng, xi0):
    designs = [
        equispaced(5),
        xi0,
        Design(0.0, 2.5, (0.3, 1.1, 0.6, 0.5)),
    ]
    for design in designs:
        z1, z2 = simulate_observations(
            design, **TRUTH, replicates=3, seed=int(rng.integers(2**31)))
        for theta, s11, s22, rho in [
            (17.12, 0.85, 0.94, 0.25),
            (2.0, 1.0, 1.0, 0.0),
            (40.0, 0.3, 2.0, -0.7),
        ]:
            got = loglikelihood(design, z1, z2, theta, s11, s22, rho)
            want = dense_loglik(design, z1, z2, theta, s11, s22, rho)
            assert got == pytest.approx(want, abs=1e-8)


def test_replicates_add(rng):
    design = equispaced(6)
    z1, z2 = simulate_observations(design, **TRUTH, replicates=4, seed=7)
    total = loglikelihood(design, z1, z2, **TRUTH)
    parts = sum(loglikelihood(design, z1[i], z2[i], **TRUTH) for i in range(4))
    assert total == pytest.approx(parts, rel=1e-12)


def test_simulate_shapes_and_determinism():
    design = equispaced(8)
    z1, z2 = simulate_observations(design, **TRUTH, replicates=5, seed=11)
    assert z1.shape == (5, 8) and z2.shape == (5, 8)
    again1, again2 = simulate_observations(design, **TRUTH, replicates=5, seed=11)
    np.testing.assert_array_equal(z1, again1)
    np.testing.assert_array_equal(z2, again2)
    other1, _ = simulate_observations(design, **TRUTH, replicates=5, seed=12)
    assert not np.array_equal(z1, other1)


def test_simulate_moments():
    design = equispaced(4)
    z1, z2 = simulate_observations(design, **TRUTH, replicates=20_000, seed=3)
    assert float(z1.var()) == pytest.approx(TRUTH["sigma11"], rel=0.05)
    assert float(z2.var()) == pytest.approx(TRUTH["sigma22"], rel=0.05)
    # collocated cross-covariance is rho * sigma11
    c12 = float(np.mean(z1 * z2))
    assert c12 == pytest.approx(TRUTH["rho"] * TRUTH["sigma11"], abs=0.02)
    # lag-one correlation of the primary
    gap = design.gap_array()[0]
    r1 = float(np.mean(z1[:, :-1] * z1[:, 1:])) / float(z1.var())
    assert r1 == pytest.approx(np.exp(-TRUTH["theta"] * gap), abs=0.02)


def test_fit_recovers_truth(xi0):
    z1, z2 = simulate_observations(xi0, **TRUTH, replicates=200, seed=20240815)
    fit = fit_mle(xi0, z1, z2, standardize=False)
    assert fit.converged
    assert fit.stderr is not None
    for name, hat in [("theta", fit.theta_hat), ("sigma11", fit.sigma11_hat),
                      ("sigma22", fit.sigma22_hat), ("rho", fit.rho_hat)]:
        assert abs(hat - TRUTH[name]) <= 3.0 * fit.stderr[name], (
            f"{name}: hat={hat}, truth={TRUTH[name]}, se={fit.stderr[name]}")
    # the optimum cannot sit below the truth's own likelihood
    at_truth = loglikelihood(xi0, z1, z2, **TRUTH)
    assert fit.loglik >= at_truth - 1e-6


def test_standardize_is_affine_invariant(rng):
    design = equispaced(9)
    z1, z2 = simulate_observations(design, **TRUTH, replicates=40, seed=99)
    base = fit_mle(design, z1, z2, standardize=True)
    moved = fit_mle(design, 3.0 * z1 + 7.0, 0.5 * z2 - 2.0, standardize=True)
    assert moved.theta_hat == pytest.approx(base.theta_hat, rel=1e-4)
    assert moved.rho_hat == pytest.approx(base.rho_hat, abs=1e-4)
    assert moved.loglik == pytest.approx(base.loglik, abs=1e-5)


def test_validation_errors(xi0):
    z1, z2 = simulate_observations(xi0, **TRUTH, replicates=1, seed=1)
    with pytest.raises(DomainError, match="at least 4"):
        fit_mle(equispaced(3), np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        loglikelihood(xi0, z1[:, :5], z2, **TRUTH)
    with pytest.raises(DomainError):
        loglikelihood(xi0, z1, z2, theta=-1.0, sigma11=0.85,
                      sigma22=0.94, rho=0.25)
    with pytest.raises(DomainError, match="positive"):
        # rho^2 sigma11 >= sigma22 leaves no residual variance
        loglikelihood(xi0, z1, z2, theta=1.0, sigma11=1.0,
                      sigma22=0.5, rho=0.9)
    with pytest.raises(DomainError):
        simulate_observations(xi0, **TRUTH, replicates=0)
    with pytest.raises(DomainError, match="standardize"):
        fit_mle(equispaced(5), np.ones(5), np.arange(5.0))


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("c", [2.5, 0.3, 1 / 3, 7.1, -1.7])
def test_fit_blames_a_secondary_that_is_a_multiple_of_the_primary(c, standardize):
    design = equispaced(17)
    z1, _ = simulate_observations(design, **TRUTH, seed=5)
    with pytest.raises(DomainError, match="constant multiple of z1") as info:
        fit_mle(design, z1, c * z1, standardize=standardize)
    assert "invalid model" not in str(info.value)
    # relative noise of 1e-6 leaves a small but real residual variance
    noise = 1e-6 * abs(c) * z1.std() * np.random.default_rng(11).standard_normal(z1.shape)
    fit = fit_mle(design, z1, c * z1 + noise, standardize=standardize)
    assert np.isfinite(fit.loglik) and fit.sigma22_hat > fit.rho_hat**2 * fit.sigma11_hat


def test_simulate_applies_the_dense_cholesky_factor():
    # the AR(1) recursion must give the draws that the Cholesky factor of
    # the dense correlation matrix gives from the same seed
    rng = np.random.default_rng(5)
    gaps = rng.uniform(0.5, 1.5, 199)
    design = Design(0.0, 1.0, tuple(gaps / gaps.sum()))
    z1, z2 = simulate_observations(design, **TRUTH, replicates=3, seed=17)
    draws = np.random.default_rng(17)
    chol = np.linalg.cholesky(oracles.dense_corr(design.points, TRUTH["theta"]))
    want1 = np.sqrt(TRUTH["sigma11"]) * draws.standard_normal((3, design.n)) @ chol.T
    tau = TRUTH["sigma22"] - TRUTH["rho"] ** 2 * TRUTH["sigma11"]
    want2 = TRUTH["rho"] * want1 + np.sqrt(tau) * draws.standard_normal((3, design.n))
    np.testing.assert_allclose(z1, want1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(z2, want2, rtol=0, atol=1e-12)


def test_loglikelihood_refuses_coincident_sites():
    design = Design(0.0, 1.0, (1e-11, 0.5, 0.5 - 1e-11))
    z = np.zeros(4)
    with pytest.raises(ConditioningError):
        loglikelihood(design, z, z, theta=1.0, sigma11=1.0, sigma22=1.0, rho=0.0)


def _log_gradient(design, z1, z2, params, which=range(4), step=1e-5):
    """Central differences of ``dense_loglik`` in the log of each parameter."""
    out = []
    for i in which:
        up, down = list(params), list(params)
        up[i] *= 1.0 + step
        down[i] *= 1.0 - step
        out.append((dense_loglik(design, z1, z2, *up)
                    - dense_loglik(design, z1, z2, *down)) / (2.0 * step))
    return np.array(out)


def _transect(sites, seed):
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, sites - 1)
    return Design(0.0, 1.0, tuple(gaps / gaps.sum()))


@pytest.mark.parametrize("sites, replicates", [(17, 200), (300, 1)])
def test_fit_is_a_stationary_point_of_the_dense_likelihood(xi0, sites, replicates):
    design = xi0 if sites == 17 else _transect(sites, seed=300)
    z1, z2 = simulate_observations(design, **TRUTH, replicates=replicates, seed=300)
    fit = fit_mle(design, z1, z2, standardize=False)
    assert fit.converged
    params = [fit.theta_hat, fit.sigma11_hat, fit.sigma22_hat, fit.rho_hat]
    assert fit.loglik == pytest.approx(dense_loglik(design, z1, z2, *params), rel=1e-12)
    # the score in every log-parameter vanishes at the maximum (measured
    # at most 4e-5) ...
    assert np.max(np.abs(_log_gradient(design, z1, z2, params))) <= 1e-3
    # ... and not 1% away from it in theta (measured 1.4 and 7.1)
    params[0] *= 1.01
    assert abs(_log_gradient(design, z1, z2, params, which=[0])[0]) > 1e-1


def test_fit_flags_a_profile_that_peaks_at_the_bracket_edge():
    design = equispaced(17)
    rng = np.random.default_rng(2)
    # white noise whose neighbours correlate negatively: theta runs to
    # the top of the bracket, where the nearest sites are e^-20 apart
    noise = fit_mle(design, rng.standard_normal((3, 17)), rng.standard_normal((3, 17)))
    assert not noise.converged
    assert noise.theta_hat == pytest.approx(20.0 * 16, rel=1e-5)
    # a constant up to tiny noise: theta runs to the bottom, where it
    # spans the transect at 1e-2
    flat = 1.0 + 1e-6 * rng.standard_normal((1, 17))
    const = fit_mle(design, flat, rng.standard_normal((1, 17)), standardize=False)
    assert not const.converged
    assert const.theta_hat == pytest.approx(1e-2, rel=1e-5)


def test_fit_keeps_the_slope_inside_the_family():
    # unstandardized data with slope 2.5: the family needs only a positive
    # residual variance, so the slope's closed-form maximum stands, and it
    # is a stationary point of the dense likelihood of a valid model
    design = equispaced(17)
    z1, z2 = simulate_observations(design, theta=17.12, sigma11=1.0, sigma22=9.0,
                                   rho=2.5, replicates=50, seed=3)
    fit = fit_mle(design, z1, z2, standardize=False)
    assert fit.converged
    assert fit.rho_hat == pytest.approx(float(np.sum(z1 * z2) / np.sum(z1 * z1)), rel=1e-15)
    assert fit.rho_hat > 1.0
    model = GeneralizedMarkov(fit.sigma11_hat, fit.sigma22_hat, fit.rho_hat,
                              ExponentialCorrelogram(fit.theta_hat), NuggetCorrelogram())
    assert model.validity().ok
    assert np.linalg.eigvalsh(oracles.joint_blocks(model, design.points)).min() > 0
    params = [fit.theta_hat, fit.sigma11_hat, fit.sigma22_hat, fit.rho_hat]
    assert fit.loglik == pytest.approx(dense_loglik(design, z1, z2, *params), rel=1e-12)
    assert np.max(np.abs(_log_gradient(design, z1, z2, params))) <= 1e-3
    fit = fit_mle(design, z1, z2, standardize=True)
    assert fit.converged and abs(fit.rho_hat) < 1.0
