"""Hypothesis properties of the tail probabilities and the mean field."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from adaptquant.noise import Family, NoiseModel
from adaptquant.quantizer import mean_field

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
