"""Criteria, risks and the pointwise error against mpmath over the whole rate range.

The references are written from the textbook forms (``d coth(theta d) -
1 / theta``, ``1 - sigma0' P^{-1} sigma0`` by a dense solve, ...) and
evaluated in high-precision arithmetic, so cancellation at small
``theta * d`` cannot hide.  The rates sweep ``[1e-8, 1e4]`` and the
designs carry gaps down to ``1e-13``.
"""

import math

import numpy as np
import pytest

from cokrig import (
    ConditioningError,
    Design,
    ExponentialKernel,
    ThetaPrior,
    equispaced,
    imspe,
    mspe_closed_form,
    risk_imspe,
    risk_smspe,
    smspe,
)
from cokrig.kernel import MIN_THETA_GAP

mp = pytest.importorskip("mpmath")

SMALL_GAPS = (1e-13, 1e-9, 1e-5, 1e-2)
MODELS = ("simple", "ordinary")


def _design(small):
    return Design(0.0, 1.0, (small, 0.25, 0.3, 0.45 - small))


def _mp_terms(criterion, model, theta, gaps, counts=None):
    """Per-interval criterion terms at unit variance, in mpmath; with
    ``counts``, the terms of distinct gaps that occur that many times."""
    theta = mp.mpf(theta)
    ds = [mp.mpf(d) for d in gaps]
    counts = [1] * len(ds) if counts is None else counts
    q0 = 1 + mp.fsum(c * mp.tanh(theta * d / 2) for d, c in zip(ds, counts))
    terms = []
    for d in ds:
        if criterion == "smspe":
            v = mp.tanh(theta * d / 2)
            if model == "ordinary":
                v += (1 - mp.sech(theta * d / 2)) ** 2 / q0
        else:
            v = d * mp.coth(theta * d) - 1 / theta
            if model == "ordinary":
                e = mp.exp(-theta * d)
                v += (d - 4 * (1 - e) / (theta * (1 + e))
                      + ((1 - e * e) / theta + 2 * d * e) / (1 + e) ** 2) / q0
        terms.append(v)
    return terms


def _mp_value(criterion, model, theta, gaps, counts=None):
    terms = _mp_terms(criterion, model, theta, gaps, counts)
    if criterion == "smspe":
        return max(terms)
    return mp.fsum(terms if counts is None else (c * v for c, v in zip(counts, terms)))


def _rel(got, want):
    return float(abs((mp.mpf(got) - want) / want))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
def test_criteria_match_mpmath(criterion, model):
    mp.mp.dps = 120
    fn = smspe if criterion == "smspe" else imspe
    worst = 0.0
    for theta in np.logspace(-8, 4, 25):
        for small in SMALL_GAPS:
            design = _design(small)
            report = fn(ExponentialKernel(theta, sigma11=0.85), design, model)
            gaps = design.gap_array()
            worst = max(worst, _rel(report.value, 0.85 * _mp_value(criterion, model, theta, gaps)))
            for got, term in zip(report.per_interval, _mp_terms(criterion, model, theta, gaps)):
                worst = max(worst, _rel(got, 0.85 * term))
    assert worst <= 1e-13


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
def test_risks_match_mpmath(criterion, model):
    mp.mp.dps = 30
    fn = risk_smspe if criterion == "smspe" else risk_imspe
    worst = 0.0
    for theta in np.logspace(-8, 4, 7):
        for small in (1e-13, 1e-2):
            design = _design(small)
            gaps = design.gap_array()
            got = fn(ThetaPrior.uniform(theta, 2.0 * theta, e_sigma11=0.85), design, model)
            want = mp.quad(lambda t: _mp_value(criterion, model, t, gaps), [theta, 2.0 * theta])
            worst = max(worst, _rel(got, 0.85 * want / theta))
    assert worst <= 1e-12


# priors whose rates reach far from the paper's [12.12, 22.12], as the
# density's nodes (the uniforms' cut at each decade, where mpmath
# integrates piece by piece): uniforms over two to eleven decades, and a
# tabulated density with kinks inside its support and a zero-density
# first segment.  A Gauss-Legendre rule linear in theta stopped falsely on
# [1, 1e5] and [1, 1e6], and ran out of nodes on [1e-3, 1e8].
_KINKED_RATES = (1.0, 2.0, 10.0, 17.12, 30.0, 60.0)
_KINKED_SHAPE = np.array([0.0, 0.0, 1.0, 3.0, 0.5, 0.0])
_KINKED_DENSITIES = _KINKED_SHAPE / np.trapezoid(_KINKED_SHAPE, _KINKED_RATES)


def _decades(lo, hi):
    rates = (lo, *(10.0**k for k in range(math.floor(math.log10(lo)) + 1,
                                          math.ceil(math.log10(hi)))), hi)
    return rates, (1.0 / (hi - lo),) * len(rates)


WIDE_PRIORS = {
    "uniform-0.01-1000": _decades(0.01, 1000.0),
    "uniform-0.5-50": _decades(0.5, 50.0),
    "uniform-1-1e5": _decades(1.0, 1e5),
    "uniform-1-1e6": _decades(1.0, 1e6),
    "uniform-0.001-1e8": _decades(1e-3, 1e8),
    "tabulated-kinked": (_KINKED_RATES, tuple(_KINKED_DENSITIES)),
}


# 1e5-site designs, whose quadrature blocks hold one rate each: the
# equispaced one, and one whose gaps are 0.5 and 0.5 / 99998, so that from
# a rate of 1 up theta * d crosses the series cutoff and each block mixes
# the series and direct forms.  On [1, 1e6] the equispaced design's theta
# * d runs from 1e-5 to 10, past the cutoff, so its closed forms are
# checked too.  On these three priors they add about 5 s.
LARGE_N_DESIGNS = [equispaced(10**5),
                   Design(0.0, 1.0, np.append(np.full(10**5 - 2, 0.5 / (10**5 - 2)), 0.5))]
LARGE_N_PRIORS = ("uniform-0.5-50", "tabulated-kinked", "uniform-1-1e6")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
@pytest.mark.parametrize("prior_name", sorted(WIDE_PRIORS))
def test_risks_match_mpmath_on_wide_and_kinked_priors(prior_name, criterion, model):
    # the quadrature starts at 8 nodes and stops once two rules agree; an
    # early stop on a rule that is still off shows here.  20 digits keep
    # the reference within 1e-20 of a 40-digit one, and the eleven-decade
    # prior's 16-gap design affordable.
    mp.mp.dps = 20
    rates, densities = WIDE_PRIORS[prior_name]
    if prior_name.startswith("uniform"):
        prior = ThetaPrior.uniform(rates[0], rates[-1], e_sigma11=0.85)
    else:
        prior = ThetaPrior.tabulated(rates, densities, e_sigma11=0.85)
    fn = risk_smspe if criterion == "smspe" else risk_imspe
    rng = np.random.default_rng(20240815)
    # Dirichlet designs at n = 3 and 17; at n = 100 the equispaced one,
    # whose single distinct gap keeps mpmath cheap
    designs = [Design(0.0, 1.0, tuple(rng.dirichlet(np.ones(n - 1)))) for n in (3, 17)]
    designs.append(equispaced(100))
    if prior_name in LARGE_N_PRIORS:
        designs += LARGE_N_DESIGNS
    for design in designs:
        gaps, counts = np.unique(design.gap_array(), return_counts=True)
        counts = [int(c) for c in counts]
        want = mp.mpf(0)
        for t0, t1, r0, r1 in zip(rates[:-1], rates[1:], densities[:-1], densities[1:]):
            t0, t1, r0, r1 = (mp.mpf(v) for v in (t0, t1, r0, r1))
            want += mp.quad(lambda t: _mp_value(criterion, model, t, gaps, counts)
                            * (r0 + (r1 - r0) * (t - t0) / (t1 - t0)), [t0, t1])
        assert _rel(fn(prior, design, model), 0.85 * want) <= 1e-12


def _mp_mspe(points, theta, x0, model):
    """Kriging error at ``x0`` by a dense mpmath solve of the textbook system."""
    theta, x0 = mp.mpf(theta), mp.mpf(float(x0))
    pts = [mp.mpf(float(p)) for p in points]
    n = len(pts)
    corr = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            corr[i, j] = mp.exp(-theta * abs(pts[i] - pts[j]))
    sigma0 = mp.matrix([mp.exp(-theta * abs(p - x0)) for p in pts])
    ones = mp.matrix([1] * n)
    s = mp.lu_solve(corr, sigma0)
    out = 1 - sum(sigma0[i] * s[i] for i in range(n))
    if model == "ordinary":
        u = mp.lu_solve(corr, ones)
        out += (1 - sum(s)) ** 2 / sum(u)
    return out


@pytest.mark.parametrize("model", MODELS)
def test_mspe_closed_form_matches_mpmath(model):
    mp.mp.dps = 100
    worst, refused = 0.0, 0
    for theta in np.logspace(-8, 4, 13):
        for small in (1e-13, 1e-5):
            design = _design(small)
            pts = design.points
            targets = [p + f * (q - p) for p, q in zip(pts[:-1], pts[1:]) for f in (0.0, 0.3, 0.5)]
            for x0 in targets + [pts[-1]]:
                i = min(int(np.searchsorted(pts, x0, side="right")) - 1, design.n - 2)
                if theta * (pts[i + 1] - pts[i]) < MIN_THETA_GAP:
                    with pytest.raises(ConditioningError):
                        mspe_closed_form(ExponentialKernel(theta), design, x0, model)
                    refused += 1
                    continue
                got = mspe_closed_form(ExponentialKernel(theta), design, x0, model)
                want = _mp_mspe(pts, theta, x0, model)
                # zero at the sites, so relative beyond 1e-40
                worst = max(worst, float(abs(mp.mpf(got) - want) / (abs(want) + mp.mpf(1e-40))))
    assert refused > 0
    assert worst <= 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_risk_imspe_with_tiny_gap(model):
    # a 1e-13 gap next to 16 equal ones: the split-off site adds next to
    # nothing, and the quadrature must not stall on rounding noise
    prior = ThetaPrior.uniform(12.12, 22.12)
    base = (1.0 - 1e-13) / 16
    tiny = risk_imspe(prior, Design(0.0, 1.0, (1e-13,) + (base,) * 16), model)
    merged = risk_imspe(prior, Design(0.0, 1.0, (base + 1e-13,) + (base,) * 15), model)
    assert np.isfinite(tiny)
    assert abs(tiny - merged) <= 1e-9
