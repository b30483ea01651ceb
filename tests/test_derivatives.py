"""Exact derivatives in the gaps against mpmath, and the Schur-Ostrowski condition.

The optimizer takes its gradients (integrated criteria) and Jacobians
(per-interval terms of the supremum criteria) from ``kernel._interval_terms``
and ``criteria._risk``.  The references here differentiate the mpmath
criteria of ``test_stability`` numerically in high precision, so they share
no formula with the code under test.  Gradients are compared on the
simplex: the simple imspe value is evaluated as ``1 - (k - sum q) / theta``,
which uses ``sum d = 1``, so only directions tangent to the simplex (the
gradient with its mean removed) are defined by the criterion.
"""

import numpy as np
import pytest

from cokrig import ThetaPrior
from cokrig import criteria as crit
from cokrig import kernel as kern
from test_stability import WIDE_PRIORS, _mp_terms, _mp_value

mp = pytest.importorskip("mpmath")

MODELS = ("simple", "ordinary")


def _tangent(v):
    return v - v.mean()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
def test_fixed_rate_derivatives_match_mpmath(criterion, model):
    # theta * d sweeps 1e-6 to 1e3 over the designs' gaps; the imspe
    # gradient is compared with its mean removed, the smspe Jacobian whole,
    # each relative to the larger of its own size and the criterion's
    mp.mp.dps = 40
    rng = np.random.default_rng(20240816)
    worst, reach = 0.0, [np.inf, 0.0]
    for n in (3, 17):
        for theta in np.logspace(-4, 4.5, 8):
            gaps = rng.dirichlet(np.ones(n - 1))
            x = theta * gaps
            reach = [min(reach[0], x.min()), max(reach[1], x.max())]
            ds = [mp.mpf(d) for d in gaps]

            def moved(j, h):
                return ds[:j] + [ds[j] + h] + ds[j + 1:]

            per, value, got = kern._interval_terms(theta, gaps, criterion, model, grad=True)
            if criterion == "imspe":
                want = np.array([float(mp.diff(lambda h: mp.fsum(
                    _mp_terms(criterion, model, theta, moved(j, h))), 0)) for j in range(n - 1)])
                got, want = _tangent(got), _tangent(want)
                scale = max(np.abs(want).max(), float(value))
            else:
                want = np.array([[float(v) for v in mp.diff(lambda h: mp.matrix(
                    _mp_terms(criterion, model, theta, moved(j, h))), 0)]
                    for j in range(n - 1)]).T
                scale = max(np.abs(want).max(), float(per.max()))
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    assert reach[0] <= 1e-6 and reach[1] >= 1e3
    assert worst <= 1e-12


def _mp_risk(criterion, model, rates, densities, ds, row):
    """Bayes risk (``row`` None) or one averaged term, by mpmath quadrature
    of the mpmath criterion piece by piece over the density table."""
    total = mp.mpf(0)
    for t0, t1, r0, r1 in zip(rates[:-1], rates[1:], densities[:-1], densities[1:]):
        if r0 == 0 and r1 == 0:
            continue
        t0, t1, r0, r1 = (mp.mpf(v) for v in (t0, t1, r0, r1))
        if row is None:
            def fn(t):
                return _mp_value(criterion, model, t, ds)
        else:
            def fn(t):
                return _mp_terms(criterion, model, t, ds)[row]
        total += mp.quad(lambda t: fn(t) * (r0 + (r1 - r0) * (t - t0) / (t1 - t0)), [t0, t1])
    return total


def _risk_direction_error(criterion, model, prior, rates, densities, gaps, v):
    """Relative error of the risk's derivative along the tangent ``v``.
    For ``smspe`` the criterion is the widest gap's averaged term (see
    ``optimizer._objective``), so its Jacobian row is checked."""
    report, got = crit._risk(criterion, prior, gaps, model, terms=criterion == "smspe", grad=True)
    value, row = report.value, None
    if criterion == "smspe":
        row = int(np.argmax(gaps))
        value, got = value[row], got[row]
    ds = [mp.mpf(d) for d in gaps]
    want = float(mp.diff(lambda h: _mp_risk(
        criterion, model, rates, densities, [d + h * float(u) for d, u in zip(ds, v)], row), 0))
    scale = max(abs(float(value)), float(np.abs(got).max())) * float(np.abs(v).max())
    return abs(float(got @ v) - want) / scale


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
@pytest.mark.parametrize("prior_name", sorted(WIDE_PRIORS))
def test_risk_derivatives_match_mpmath_on_wide_and_kinked_priors(prior_name, criterion, model):
    # n = 3 has one tangent direction; the 17-site design checks one random
    # tangent on the kinked table, where quadrature and a zero-density
    # flat segment meet, since each direction costs two mpmath risks
    mp.mp.dps = 15
    rates, densities = WIDE_PRIORS[prior_name]
    if prior_name.startswith("uniform"):
        prior = ThetaPrior.uniform(rates[0], rates[-1])
    else:
        prior = ThetaPrior.tabulated(rates, densities)
    rng = np.random.default_rng(20240817)
    cases = [(rng.dirichlet(np.ones(2)), np.array([1.0, -1.0]))]
    if prior_name == "tabulated-kinked":
        cases.append((rng.dirichlet(np.ones(16)), _tangent(rng.normal(size=16))))
    for gaps, v in cases:
        assert _risk_direction_error(criterion, model, prior, rates, densities, gaps, v) <= 1e-10


@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
def test_narrow_prior_segments_match_mpmath(criterion):
    # ThetaPrior.uniform(lo, lo (1 + w)) at relative widths w of 1e-6 to
    # 1e-2: the log-theta rule's half-width must not lose the digits that
    # log(hi) - log(lo) would (2.6e-10 here); lo puts theta * d below the
    # series cutoff, near 1, and where sinh overflows.  Both models share
    # the rule, so the simple one stands for both
    model = "simple"
    mp.mp.dps = 20
    rng = np.random.default_rng(20240818)
    worst_value, worst_grad = 0.0, 0.0
    for lo in (0.05, 17.12, 2e4):
        for w in (1e-6, 1e-4, 1e-2):
            hi = lo * (1.0 + w)
            prior = ThetaPrior.uniform(lo, hi)
            rates, densities = (lo, hi), (prior.nodes[0][1],) * 2
            gaps = np.full(16, 1.0 / 16) if w == 1e-6 else rng.dirichlet(np.ones(16))
            got = crit._risk(criterion, prior, gaps, model).value
            want = _mp_risk(criterion, model, rates, densities, [mp.mpf(d) for d in gaps], None)
            worst_value = max(worst_value, abs(float((got - want) / want)))
            v = _tangent(rng.normal(size=16))
            worst_grad = max(worst_grad, _risk_direction_error(
                criterion, model, prior, rates, densities, gaps, v))
    assert worst_value <= 1e-13
    assert worst_grad <= 1e-10


def _schur_ostrowski_worst(gaps, grad):
    """Most negative ``(d_i - d_j)(g_i - g_j)`` over all pairs, relative to
    ``|d_i - d_j| max|g|``."""
    dd = gaps[:, None] - gaps[None, :]
    dg = grad[:, None] - grad[None, :]
    off = ~np.eye(gaps.size, dtype=bool)
    return float(np.min((dd * dg)[off] / (np.abs(dd)[off] * np.abs(grad).max())))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe", "risk_smspe", "risk_imspe"])
def test_schur_ostrowski_condition(criterion, model):
    # the paper's optimality argument: each criterion is Schur-convex in the
    # gap vector, so (d_i - d_j)(df/dd_i - df/dd_j) >= 0 everywhere; for the
    # supremum criteria f is the widest gap's term, whose Jacobian row is
    # df.  Checked on the exact derivatives, independently of the
    # majorization oracle; a risk takes the uniform prior on [theta / 2, 3 theta / 2]
    rng = np.random.default_rng(20240819)
    base = criterion.removeprefix("risk_")
    worst = np.inf
    for n in (3, 5, 9, 17):
        for theta in (0.5, 5.0, 17.12, 60.0):
            gaps = rng.dirichlet(np.ones(n - 1))
            if criterion.startswith("risk_"):
                prior = ThetaPrior.uniform(0.5 * theta, 1.5 * theta)
                _, grad = crit._risk(base, prior, gaps, model, terms=base == "smspe", grad=True)
            else:
                grad = kern._interval_terms(theta, gaps, base, model, grad=True)[2]
            if base == "smspe":
                grad = grad[int(np.argmax(gaps))]
            worst = min(worst, _schur_ostrowski_worst(gaps, grad))
    assert worst >= -1e-12
