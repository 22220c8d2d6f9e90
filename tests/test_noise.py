"""Noise model densities, CDFs, Fisher information and sampling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from adaptquant.noise import STANDARD_SHAPES, Family, NoiseModel, gg, st

ALL_SHAPES = list(STANDARD_SHAPES) + [(Family.GG, 1.0)]  # plus Laplace
DELTAS = [0.5, 1.0, 2.0]


def fisher_quadrature(model):
    """Independent oracle: quadrature of (f'/f)^2 f over the real line."""
    h = 1e-6 * model.delta

    def integrand(x):
        f = model.pdf(x)
        if f == 0.0:
            return 0.0
        fp = (model.pdf(x + h) - model.pdf(x - h)) / (2.0 * h)
        return fp * fp / f

    total = 0.0
    # piecewise to help the adaptive rule near the peak and in the tails
    breaks = [0.0, 1.0, 5.0, 30.0, math.inf]
    for lo, hi in zip(breaks, breaks[1:]):
        total += quad(lambda x: integrand(x * model.delta) * model.delta,
                      lo, hi, limit=200)[0]
    return 2.0 * total  # even integrand


def test_pdf_anchor_values():
    assert gg(2.0).pdf(0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    assert st(1.0).pdf(0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("family,beta", ALL_SHAPES)
@pytest.mark.parametrize("delta", DELTAS)
def test_pdf_integrates_to_one(family, beta, delta):
    m = NoiseModel(family, beta, delta)
    total = 2.0 * quad(lambda x: m.pdf(x), 0.0, math.inf, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family,beta", ALL_SHAPES)
def test_pdf_even_and_strictly_decreasing(family, beta):
    m = NoiseModel(family, beta)
    x = np.linspace(1e-3, 12.0, 1000)
    np.testing.assert_allclose(m.pdf(x), m.pdf(-x), rtol=1e-13)
    vals = m.pdf(np.linspace(0.1, 8.0, 400))
    assert np.all(np.diff(vals) < 0.0)


def test_cdf_anchor_values():
    assert gg(2.0).cdf(0.0) == 0.5
    assert st(1.0).cdf(1.0) == pytest.approx(0.75, rel=1e-12)  # Cauchy quartile
    # frozen from the quadrature oracle over the beta=2 density on (-inf, 1]
    assert gg(2.0).cdf(1.0) == pytest.approx(0.9213503964748575, rel=1e-12)


@pytest.mark.parametrize("family,beta", ALL_SHAPES)
def test_cdf_symmetry_and_monotonicity(family, beta):
    m = NoiseModel(family, beta)
    xs = np.linspace(-8.0, 8.0, 81)
    cdf = m.cdf(xs)
    assert np.all(np.diff(cdf) >= 0.0)
    np.testing.assert_allclose(cdf + m.cdf(-xs), 1.0, atol=1e-14)
    assert m.cdf(0.0) == 0.5


@pytest.mark.parametrize("family,beta", ALL_SHAPES)
def test_cdf_matches_pdf_quadrature(family, beta):
    m = NoiseModel(family, beta)
    for x in [-2.0, -0.3, 0.7, 3.0]:
        target = 0.5 + quad(m.pdf, 0.0, abs(x))[0] * math.copysign(1.0, x)
        assert m.cdf(x) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("family,beta", ALL_SHAPES)
@pytest.mark.parametrize("delta", DELTAS)
def test_cdf_scale_law(family, beta, delta):
    m = NoiseModel(family, beta, delta)
    base = NoiseModel(family, beta, 1.0)
    for x in [-3.0, -0.5, 0.2, 1.7]:
        assert m.cdf(x) == pytest.approx(base.cdf(x / delta), abs=1e-12)
        assert m.pdf(x) == pytest.approx(base.pdf(x / delta) / delta, rel=1e-12)


def test_sf_complements_cdf_and_is_tail_accurate():
    m = gg(1.0)
    for x in [0.0, 0.5, 3.0]:
        assert m.sf(x) == pytest.approx(1.0 - m.cdf(x), abs=1e-14)
    # Laplace tail: sf(x) = exp(-x)/2 even where 1 - cdf underflows
    assert m.sf(100.0) == pytest.approx(0.5 * math.exp(-100.0), rel=1e-10)


@pytest.mark.parametrize("family,beta", ALL_SHAPES + [(Family.GG, 0.7)])
def test_cdf_sf_arrays_match_scalar_calls(family, beta):
    m = NoiseModel(family, beta, 1.3)
    x = np.concatenate([[-math.inf, -1e200, 0.0, -0.0, 1e200, math.inf],
                        np.geomspace(1e-8, 1e3, 60), -np.geomspace(1e-8, 1e3, 60)])
    for fn in (m.cdf, m.sf):
        got = fn(x.reshape(2, -1))
        assert got.shape == (2, len(x) // 2)
        # the array kernels differ from libm only in the last bits of
        # their exp/log/pow, which deep tails amplify by up to |x|^beta
        np.testing.assert_allclose(got.ravel(), [fn(float(v)) for v in x],
                                   rtol=1e-13, atol=0.0)


def test_fisher_anchor_values():
    assert gg(2.0).fisher_continuous() == pytest.approx(2.0, rel=1e-12)
    assert st(1.0).fisher_continuous() == pytest.approx(0.5, rel=1e-12)
    assert gg(2.0, delta=2.0).fisher_continuous() == pytest.approx(0.5, rel=1e-12)
    assert gg(1.0, delta=0.5).fisher_continuous() == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("family,beta", STANDARD_SHAPES)
@pytest.mark.parametrize("delta", DELTAS)
def test_fisher_matches_quadrature(family, beta, delta):
    m = NoiseModel(family, beta, delta)
    assert m.fisher_continuous() == pytest.approx(fisher_quadrature(m), rel=1e-6)


def test_fisher_nonfinite_for_heavy_gg():
    with pytest.raises(ValueError, match="not finite"):
        gg(0.8).fisher_continuous()


def test_score_anchor_values():
    m = gg(2.0)
    for x in [-1.5, 0.0, 0.4]:
        assert m.score(x) == pytest.approx(-2.0 * x, rel=1e-12, abs=1e-15)
    c = st(1.0)
    for x in [-2.0, 0.0, 1.0]:
        assert c.score(x) == pytest.approx(-2.0 * x / (1.0 + x * x),
                                           rel=1e-12, abs=1e-15)


def test_score_rejected_for_nondifferentiable_gg():
    with pytest.raises(ValueError):
        gg(1.0).score(0.5)


@pytest.mark.parametrize("family,beta", STANDARD_SHAPES)
def test_sampling_matches_cdf(family, beta, rng):
    m = NoiseModel(family, beta, delta=1.3)
    draws = m.sample(rng, 20_000)
    stat = kstest(draws, lambda x: m.cdf(x)).pvalue
    assert stat > 1e-4


def test_gg_sampling_variance(rng):
    # beta = 2 has variance delta^2 / 2
    m = gg(2.0, delta=2.0)
    draws = m.sample(rng, 100_000)
    var = draws.var()
    se = math.sqrt(2.0 / len(draws)) * 2.0  # var of sample variance, Gaussian
    assert abs(var - 2.0) < 3.0 * se


def test_symmetry_of_samples(rng):
    for m in [gg(2.0), st(1.0)]:
        draws = m.sample(rng, 50_000)
        assert abs(np.median(draws)) < 3.0 * 1.2533 / math.sqrt(len(draws)) * 2.0
        assert abs((draws > 0).mean() - 0.5) < 3.0 * 0.5 / math.sqrt(len(draws))


def test_validation():
    with pytest.raises(ValueError):
        NoiseModel(Family.GG, -1.0)
    with pytest.raises(ValueError):
        NoiseModel(Family.GG, 2.0, 0.0)
