"""Noise model densities, CDFs, Fisher information and sampling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import gennorm, kstest, t as student_t

from adaptquant.noise import (MIN_GG_BETA, SCRATCH_ELEMENTS, STANDARD_SHAPES,
                              Family, NoiseModel, gg, st)

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


def test_cdf_lower_tail_matches_closed_forms():
    # where 1 - P(|V| <= |x|) would cancel to 0 or lose digits; abs=0 as
    # the values are far below pytest.approx's default absolute tolerance
    for got, want in [(gg(1.0).cdf(-100.0), 0.5 * math.exp(-100.0)),
                      (gg(2.0).cdf(-10.0), 0.5 * math.erfc(10.0)),
                      (st(1.0).cdf(-1e8), math.atan(1e-8) / math.pi)]:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gg_tail_for_small_beta_beyond_1e150():
    # |x|**0.01 is about 30 at 1e150, so the tail is still 0.5 there; only
    # far out does it fall, to 3.0e-294 at 1e300
    m = gg(0.01)
    for x in [1e149, 1e151, 1e300]:
        want = 0.5 * gammaincc(100.0, x**0.01)
        assert m.sf(x) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert m.sf(np.array([x]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)
        assert m.cdf(-x) == m.sf(x)
    assert m.sf(math.inf) == 0.0


@pytest.mark.parametrize("family,beta",
                         ALL_SHAPES + [(Family.GG, 0.7), (Family.GG, 10.0)])
def test_cdf_sf_arrays_match_scalar_calls(family, beta):
    m = NoiseModel(family, beta, 1.3)
    # |x / delta|**beta overflows at 1e140 for GG beta = 2.5 and from
    # 1e110 on for beta >= 3
    x = np.concatenate([[-math.inf, -1e200, -1e140, -1e110, 0.0, -0.0,
                         1e110, 1e140, 1e200, math.inf],
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


def test_far_tail_values_raise_no_overflow_warning():
    """|x/delta|**beta and x*x overflow to inf far out; the values stay
    right and, under the suite's error::RuntimeWarning filter, quiet."""
    x = 1e200
    for m in (gg(2.0), gg(3.0), st(3.0), st(1.0)):
        assert m.pdf(x) == 0.0
        assert m.pdf(np.array([x, -x])).tolist() == [0.0, 0.0]
    assert gg(2.0).score(x) == -2.0 * x
    assert gg(3.0).score(np.array([x, -x])).tolist() == [-math.inf, math.inf]
    # the true ST score -(beta+1)/x is 4e-200 here
    tail = st(3.0).score(np.array([x, -x]))
    assert tail[0] <= 0.0 <= tail[1] and np.all(np.abs(tail) <= 1e-199)
    assert abs(st(3.0).score(x)) <= 1e-199


@pytest.mark.parametrize("x", [1e155, -1e155, 1e200, -1e200])
def test_student_t_score_beyond_the_square_overflow(x):
    """z*z overflows for |z| above about 1.34e154; the score there is
    -(beta+1)/z, not a signed zero."""
    m = st(3.0)
    assert m.score(x) == -4.0 / x
    assert m.score(np.array([x, -x])).tolist() == [-4.0 / x, 4.0 / x]


def test_student_t_score_keeps_its_bits_below_the_overflow():
    """Up to |z| = 1e150 the score is -(beta+1)*z/(beta+z*z), bit for bit."""
    z = np.concatenate([[0.0], np.logspace(-300, 150, 2001)])
    z = np.concatenate([z, -z])
    for beta in (1.0, 2.5, 3.0):
        for delta in (0.5, 1.0, 3.0):
            m, x = st(beta, delta), z * delta
            zn = x / delta
            want = -(beta + 1.0) * zn / (beta + zn * zn) / delta
            np.testing.assert_array_equal(m.score(x), want)
            assert [m.score(float(v)) for v in x[::37]] == want[::37].tolist()


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


def test_gg2_sampler_is_normal():
    """GG beta = 2 is N(0, delta^2/2), drawn as delta/sqrt(2) * normal
    (its variance is checked by test_gg_sampling_variance)."""
    delta = 1.7
    draws = gg(2.0, delta).sample(np.random.default_rng(2024), 50_000)
    assert kstest(draws, gennorm(2.0, scale=delta).cdf).pvalue > 1e-3
    again = delta / math.sqrt(2.0) * np.random.default_rng(2024).standard_normal(50_000)
    assert np.array_equal(draws, again)


@pytest.mark.parametrize("family,beta", [
    (Family.GG, 1.5), (Family.GG, 2.5), (Family.GG, 3.0),
    (Family.ST, 1.0), (Family.ST, 2.0), (Family.ST, 3.0),
])
def test_block_samples_match_scipy(family, beta):
    """KS test of the engine's draw pattern, one stream per row of a block,
    against scipy's generalized normal and Student's t."""
    m = NoiseModel(family, beta, delta=1.3)
    rngs = [np.random.default_rng([77, i]) for i in range(40)]
    draws = m.sample_block(rngs, np.empty((40, 500))).ravel()
    law = (gennorm(beta, scale=1.3) if family is Family.GG
           else student_t(beta, scale=1.3))
    assert kstest(draws, law.cdf).pvalue > 1e-3


class _Recorder:
    """A generator that records the names of the draws made from it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("model,draw", [
    (gg(2.0), "standard_normal"), (gg(1.5), "standard_gamma"),
    (gg(2.5), "standard_gamma"), (gg(1.0), "standard_gamma"),
    (st(2.0), "random"), (st(1.0), "random"), (st(3.0), "standard_t"),
])
def test_each_sampler_is_one_draw(model, draw):
    rec = _Recorder(7)
    model.sample(rec, 10)
    assert rec.calls == [draw]
    recs = [_Recorder(i) for i in range(3)]  # one row per GG scratch tile
    model.sample_block(recs, np.empty((len(recs), SCRATCH_ELEMENTS // 2 + 1)))
    assert all(r.calls == [draw] for r in recs)


@pytest.mark.parametrize("family,beta",
                         ALL_SHAPES + [(Family.GG, 0.7), (Family.GG, 10.0)])
def test_samples_do_not_depend_on_the_split(family, beta):
    """The Monte Carlo engine draws each replication's noise in time blocks,
    into its work matrix: ``out`` is filled and returned, with the bits of
    a plain draw.  Row i of a block is what ``sample`` draws from stream i,
    whole or in 7 + 13 pieces, over more than one scratch tile of rows,
    into a matrix of its own or into columns of a wider one as the engine
    does: the transforms (tan, arctanh, sinh, exp, power) give the same
    bits on a matrix as on one row."""
    m = NoiseModel(family, beta, 1.3)
    split = np.random.default_rng(31)
    whole = m.sample(np.random.default_rng(31), 20)
    assert np.array_equal(np.concatenate([m.sample(split, 7), m.sample(split, 13)]),
                          whole)

    def streams():
        return [np.random.default_rng([31, i])
                for i in range(SCRATCH_ELEMENTS // 20 + 5)]

    by_row = np.stack([m.sample(rng, 20) for rng in streams()])
    block = np.full(by_row.shape, np.nan)
    assert m.sample_block(streams(), block) is block
    assert np.array_equal(block, by_row)
    wide, rngs = np.full((len(by_row), 22), np.nan), streams()
    m.sample_block(rngs, wide[:, 1:8])
    m.sample_block(rngs, wide[:, 8:21])
    assert np.array_equal(wide[:, 1:21], by_row)
    for row, rng in zip(by_row, streams()):
        assert np.array_equal(np.concatenate([m.sample(rng, 7), m.sample(rng, 13)]), row)


class _FixedUniforms:
    """A generator whose ``random`` fills ``out`` with the values given."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, out):
        out[:] = self.values[:len(out)]
        return out


@pytest.mark.parametrize("nu", [1.0, 2.0])
def test_student_t_inverse_cdf_on_the_open_interval(nu):
    """random() may return 0.0 and, at most, 1 - 2^-53: both give finite
    draws, negative and positive; and u -> (1 - 2^-53) - u, the reflection
    w -> -w, flips the sign of a draw and nothing else."""
    m = st(nu, delta=1.3)
    ends = m.sample_block([_FixedUniforms([0.0, 1.0 - 2.0**-53])], np.empty((1, 2)))[0]
    assert np.all(np.isfinite(ends))
    assert ends[0] < 0.0 < ends[1]
    assert ends[0] == -ends[1]
    u = np.concatenate([[0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53],
                        np.random.default_rng(5).random(10_000)])
    reflected = (1.0 - 2.0**-53) - u  # exact on the 2^-53 grid
    draws = m.sample_block([_FixedUniforms(u)], np.empty((1, len(u))))[0]
    mirror = m.sample_block([_FixedUniforms(reflected)], np.empty((1, len(u))))[0]
    assert np.all(np.isfinite(draws))
    assert np.array_equal(mirror, -draws)


def test_symmetry_of_samples(rng):
    for m in [gg(2.0), st(1.0)]:
        draws = m.sample(rng, 50_000)
        assert abs(np.median(draws)) < 3.0 * 1.2533 / math.sqrt(len(draws)) * 2.0
        assert abs((draws > 0).mean() - 0.5) < 3.0 * 0.5 / math.sqrt(len(draws))


def test_validation():
    with pytest.raises(ValueError):
        NoiseModel(Family.GG, -1.0)
    with pytest.raises(ValueError, match="MIN_GG_BETA = 0.01"):
        gg(0.0099)
    assert gg(MIN_GG_BETA).beta == 0.01
    with pytest.raises(ValueError):
        NoiseModel(Family.GG, 2.0, 0.0)
