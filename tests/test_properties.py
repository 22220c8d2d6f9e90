"""Hypothesis properties of the special functions, the tail probabilities,
the quantized update direction, the drift gain and the mean field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import special as sps

from adaptquant.estimator import (
    U_FLOOR,
    GainSchedule,
    SignalKind,
    direction,
    gain,
    signed_levels,
)
from adaptquant.noise import STANDARD_SHAPES, Family, NoiseModel
from adaptquant.quantizer import MAX_NBITS, mean_field
from adaptquant.special import (
    incomplete_beta_regularized,
    regularized_gamma_p,
    regularized_gamma_q,
)

models = hs.builds(NoiseModel, hs.sampled_from(Family), hs.floats(0.5, 10.0),
                   hs.floats(0.1, 10.0))
reals = hs.floats(allow_nan=False)  # the infinities and the extremes included
signs = hs.sampled_from((-1.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(models, reals)
def test_cdf_is_sf_mirrored(model, x):
    assert model.cdf(x) == model.sf(-x)


@settings(max_examples=150, deadline=None)
@given(models, reals)
def test_cdf_and_sf_sum_to_one(model, x):
    assert abs(model.cdf(x) + model.sf(x) - 1.0) <= 2.3e-16


#: GG down to beta = 0.01, whose tail argument |x/delta|**beta stays small
#: far beyond the range of the other shapes
wide_models = hs.one_of(
    hs.builds(NoiseModel, hs.just(Family.GG), hs.floats(0.01, 10.0),
              hs.floats(0.1, 10.0)),
    hs.builds(NoiseModel, hs.just(Family.ST), hs.floats(0.5, 10.0),
              hs.floats(0.1, 10.0)))


@settings(max_examples=200, deadline=None)
@given(wide_models, reals, reals)
def test_sf_is_non_increasing(model, x, y):
    lo, hi = min(x, y), max(x, y)
    # the kernels round to a few ulps, so adjacent points may invert by that
    slack = 1.0 - 8 * np.finfo(float).eps
    assert model.sf(lo) >= model.sf(hi) * slack
    at_lo, at_hi = model.sf(np.array([lo, hi]))
    assert at_lo >= at_hi * slack


@hs.composite
def model_and_points(draw):
    """A model and points whose tail exponent is spread over 0..100.

    The exponent E, the minus log of the tail probability up to a slowly
    varying factor, is |x/delta|**beta for GG noise and about
    beta * log|x/delta| for Student's t.  A last-bit difference in the
    kernels' exp/log/pow would grow to about E ulps in the tail.
    """
    model = draw(models)
    expo = np.array(draw(hs.lists(hs.floats(0.0, 100.0), min_size=1, max_size=8)))
    if model.family is Family.GG:
        z = expo ** (1.0 / model.beta)
    else:
        z = np.exp(expo / model.beta)
    x = z * model.delta * np.array([draw(signs) for _ in expo])
    return model, x


@settings(max_examples=60, deadline=None)
@given(model_and_points())
def test_cdf_and_sf_float_equals_array(case):
    model, x = case
    for fn in (model.cdf, model.sf):
        np.testing.assert_array_equal(fn(x), [fn(float(v)) for v in x])


@settings(max_examples=40, deadline=None)
@given(models, hs.integers(1, 5), hs.floats(-50.0, 50.0),
       hs.floats(math.log(1e-3), math.log(50.0)), signs)
def test_mean_field_is_odd_and_restoring(cached_design, model, nbits, r, log_r, sign):
    _, _, design = cached_design(model.family, model.beta, nbits, model.delta)
    eps = r * model.delta
    # (eps, -eps) are one interval_stats call's two halves, swapped: exact
    assert mean_field(model, design, -eps) == -mean_field(model, design, eps)
    assert mean_field(model, design, 0.0) == 0.0
    eps = sign * math.exp(log_r) * model.delta
    assert eps * mean_field(model, design, eps) < 0.0


#: gamma shapes 1/beta of GG noise with beta in [0.01, 20]
gamma_shapes = hs.floats(0.05, 100.0)
nonnegative = hs.floats(0.0, allow_nan=False)  # subnormals and +inf included


@settings(max_examples=200, deadline=None)
@given(gamma_shapes, hs.lists(nonnegative, min_size=1, max_size=8))
def test_regularized_gamma_matches_scipy(a, xs):
    for fn, ref in ((regularized_gamma_q, sps.gammaincc),
                    (regularized_gamma_p, sps.gammainc)):
        want = ref(a, np.array(xs))
        assert [fn(a, x) for x in xs] == pytest.approx(want, rel=1e-12, abs=1e-280)
        assert fn(a, np.array(xs)) == pytest.approx(want, rel=1e-12, abs=1e-280)


@settings(max_examples=200, deadline=None)
@given(hs.floats(0.05, 50.0), hs.floats(0.05, 50.0),
       hs.lists(hs.floats(0.0, 1.0), min_size=1, max_size=8))
def test_incomplete_beta_matches_scipy(a, b, xs):
    want = sps.betainc(a, b, np.array(xs))
    assert [incomplete_beta_regularized(x, a, b) for x in xs] == pytest.approx(
        want, rel=1e-10)
    assert incomplete_beta_regularized(np.array(xs), a, b) == pytest.approx(
        want, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(models, hs.integers(1, 5),
       hs.lists(hs.one_of(hs.floats(-20.0, 20.0), reals), min_size=1, max_size=8))
def test_direction_is_odd(cached_design, model, nbits, ratios):
    _, _, design = cached_design(model.family, model.beta, nbits, model.delta)
    edges, levels, signed = design.thresholds, design.levels, design.signed
    diffs = [r * model.delta for r in ratios if r * model.delta != 0.0]
    for d in diffs:
        assert direction(-d, edges, signed) == -direction(d, edges, signed)
    diffs = np.array(diffs)
    np.testing.assert_array_equal(direction(-diffs, edges, signed),
                                  -direction(diffs, edges, signed))
    # the tie at the offset maps to the first positive cell
    assert direction(0.0, edges, signed) == levels[0]
    assert direction(np.zeros(2), edges, signed).tolist() == [levels[0]] * 2


@settings(max_examples=80, deadline=None)
@given(hs.sampled_from(STANDARD_SHAPES), hs.integers(1, MAX_NBITS),
       hs.lists(reals, max_size=16))
def test_array_direction_is_float_direction(cached_design, shape, nbits, others):
    """The array path's fixed-round search finds the cell that
    ``searchsorted`` finds, at every edge, its float neighbours and their
    negatives, the signed zeros, the infinities and other keys, and it
    applies the level that the float path applies."""
    _, _, design = cached_design(*shape, nbits)
    edges, signed = design.thresholds, design.signed
    mags = np.concatenate([np.nextafter(edges, 0.0), edges,
                           np.nextafter(edges, np.inf)])
    keys = np.concatenate([mags, -mags, [0.0, -0.0, np.inf, -np.inf], others])
    assert direction(keys, edges, signed).tolist() == [
        direction(float(k), edges, signed) for k in keys]
    # with level i + 1 in cell i, |direction| - 1 is the cell
    ranks = signed_levels(np.arange(1.0, len(design.levels) + 1.0))
    cells = np.abs(direction(keys, edges, ranks)) - 1.0
    np.testing.assert_array_equal(cells, edges.searchsorted(np.abs(keys), "right"))
    # a NaN key, from a diverged replication only, lands in cell 0
    assert direction(np.array([np.nan]), edges, ranks).tolist() == [-1.0]


u_hats = hs.one_of(hs.floats(-1e150, 1e150), hs.floats(-2 * U_FLOOR, 2 * U_FLOOR),
                   hs.sampled_from((0.0, -0.0, math.nan)))
infos = hs.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(infos, hs.lists(u_hats, min_size=1, max_size=8))
def test_drift_gain_is_the_formula(info, us):
    """The drift gain has the bits of (4 m^2 / info^2)^(1/3), m = max(|u|,
    U_FLOOR), on floats and arrays, below the floor, at +-0 and NaN."""
    schedule = GainSchedule(SignalKind.WIENER_DRIFT, info)
    us = np.array(us)
    m = np.maximum(np.abs(us), U_FLOOR)
    want = np.power(4.0 * m * m / info**2, 1.0 / 3.0)
    np.testing.assert_array_equal(gain(schedule, 1, us), want)
    np.testing.assert_array_equal([gain(schedule, 1, float(u)) for u in us], want)


@settings(max_examples=100, deadline=None)
@given(hs.floats(2.0, 1e3), hs.floats(6.7e153, 1.34e154), signs)
def test_drift_gain_is_finite_where_four_u_squared_overflows(info, u, sign):
    schedule = GainSchedule(SignalKind.WIENER_DRIFT, info)
    assert math.isfinite(gain(schedule, 1, sign * u))
    assert math.isfinite(gain(schedule, 1, np.array([sign * u]))[0])
