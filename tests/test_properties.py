"""Hypothesis properties of the special functions, the tail probabilities,
the quantized update direction and the mean field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import special as sps

from adaptquant.estimator import direction
from adaptquant.noise import STANDARD_SHAPES, Family, NoiseModel
from adaptquant.quantizer import MAX_NBITS, mean_field, quantize
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
    """A model and points whose tail exponent is at most 100.

    The exponent E, the minus log of the tail probability up to a slowly
    varying factor, is |x/delta|**beta for GG noise and about
    beta * log|x/delta| for Student's t.  The array kernels' numpy
    exp/log/pow may differ from libm in the last bit, and the tail
    amplifies that to about E ulps, so E <= 100 keeps it under 1e-13.
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
        np.testing.assert_allclose(fn(x), [fn(float(v)) for v in x],
                                   rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(models, hs.integers(1, 5), hs.floats(-50.0, 50.0),
       hs.floats(math.log(1e-3), math.log(50.0)), signs)
def test_mean_field_is_odd_and_restoring(cached_design, model, nbits, r, log_r, sign):
    _, _, design = cached_design(model.family, model.beta, nbits, model.delta)
    eps = r * model.delta
    # the mean field is in units of 1/delta: compare it at delta = 1
    odd_gap = mean_field(model, design, eps) + mean_field(model, design, -eps)
    assert abs(odd_gap) * model.delta <= 1e-14
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
    edges, levels = design.thresholds, design.levels
    diffs = [r * model.delta for r in ratios if r * model.delta != 0.0]
    for d in diffs:
        assert direction(-d, edges, levels) == -direction(d, edges, levels)
    diffs = np.array(diffs)
    np.testing.assert_array_equal(direction(-diffs, edges, levels),
                                  -direction(diffs, edges, levels))
    # the tie at the offset maps to the first positive cell
    assert direction(0.0, edges, levels) == levels[0]
    assert direction(np.zeros(2), edges, levels).tolist() == [levels[0]] * 2


@settings(max_examples=80, deadline=None)
@given(hs.sampled_from(STANDARD_SHAPES), hs.integers(1, MAX_NBITS),
       hs.lists(reals, max_size=16))
def test_array_direction_is_float_direction(cached_design, shape, nbits, others):
    """The array path's fixed-round search finds the cell that
    ``searchsorted`` finds, at every edge, its float neighbours and their
    negatives, the signed zeros, the infinities and other keys, and it
    applies the level that the float path applies."""
    _, _, design = cached_design(*shape, nbits)
    edges, levels = design.thresholds, design.levels
    mags = np.concatenate([np.nextafter(edges, 0.0), edges,
                           np.nextafter(edges, np.inf)])
    keys = np.concatenate([mags, -mags, [0.0, -0.0, np.inf, -np.inf], others])
    assert direction(keys, edges, levels).tolist() == [
        direction(float(k), edges, levels) for k in keys]
    # with level i + 1 in cell i, |direction| - 1 is the cell
    ranks = np.arange(1.0, len(levels) + 1.0)
    cells = np.abs(direction(keys, edges, ranks)) - 1.0
    np.testing.assert_array_equal(cells, edges.searchsorted(np.abs(keys), "right"))
    # a NaN key, from a diverged replication only, lands in cell 0
    assert direction(np.array([np.nan]), edges, ranks).tolist() == [-1.0]


@settings(max_examples=100, deadline=None)
@given(models, hs.integers(2, 5), hs.one_of(hs.just(0.0), hs.floats(-1e3, 1e3)))
def test_quantize_cell_is_direction_cell(cached_design, model, nbits, offset):
    """At every cell edge and its float neighbours, the symbol of
    ``quantize`` names the level that ``direction`` applies."""
    model, spec, design = cached_design(model.family, model.beta, nbits, model.delta)
    edges, levels = design.thresholds, design.levels
    for t in edges:
        for mag in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)):
            for y in (offset + mag, offset - mag):
                sym = quantize(y, offset, spec, spec.c_delta * model.delta)
                assert np.sign(sym) * levels[abs(sym) - 1] == direction(
                    y - offset, edges, levels)
