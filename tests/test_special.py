"""Incomplete gamma/beta implementations against quadrature and closed forms."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from adaptquant.special import (
    incomplete_beta_regularized,
    incomplete_gamma_lower,
    regularized_gamma_p,
    regularized_gamma_q,
)


def gamma_lower_quadrature(a, x):
    # epsabs=0 forces pure relative control; the default absolute tolerance
    # would swamp tiny integrals like gamma(1.7, 1e-6) ~ 4e-11
    val, _ = quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def beta_reg_quadrature(x, a, b):
    val, _ = quad(lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, x,
                  epsabs=0.0, epsrel=1e-13, limit=200,
                  points=[0.0, x] if 0 < x < 1 else None)
    total = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return val / total


def test_gamma_lower_closed_form_a1():
    # gamma(1, x) = 1 - exp(-x)
    for x in [0.1, 1.0, 5.0]:
        assert incomplete_gamma_lower(1.0, x) == pytest.approx(1.0 - math.exp(-x),
                                                               rel=1e-12)


def test_gamma_lower_limits():
    assert incomplete_gamma_lower(0.5, 0.0) == 0.0
    assert incomplete_gamma_lower(0.5, math.inf) == pytest.approx(math.sqrt(math.pi),
                                                                  rel=1e-14)


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 1.7, 3.0, 10.0])
@pytest.mark.parametrize("x", [1e-6, 0.25, 1.0, 3.0, 12.0, 60.0])
def test_gamma_lower_matches_quadrature(a, x):
    assert incomplete_gamma_lower(a, x) == pytest.approx(
        gamma_lower_quadrature(a, x), rel=1e-12, abs=1e-280)


def test_gamma_p_q_complement():
    for a in [0.4, 1.0, 2.5]:
        for x in [0.1, 1.0, 4.0, 50.0]:
            assert regularized_gamma_p(a, x) + regularized_gamma_q(a, x) == \
                pytest.approx(1.0, abs=1e-14)


def test_gamma_q_deep_tail_accuracy():
    # Q(1, x) = exp(-x), far below where 1 - P(1, x) cancels
    assert regularized_gamma_q(1.0, 100.0) == pytest.approx(math.exp(-100.0),
                                                            rel=1e-12)


def test_gamma_domain_errors():
    for a in (0.0, -1.0):
        for regularized_gamma in (regularized_gamma_p, regularized_gamma_q):
            with pytest.raises(ValueError, match="shape a must be positive"):
                regularized_gamma(a, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_p(1.0, -0.5)


def test_beta_endpoints():
    assert incomplete_beta_regularized(0.0, 2.0, 3.0) == 0.0
    assert incomplete_beta_regularized(1.0, 2.0, 3.0) == 1.0


def test_beta_symmetric_half():
    # the beta(1/2, 1/2) distribution is symmetric about 1/2
    assert incomplete_beta_regularized(0.5, 0.5, 0.5) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (2.5, 0.8), (5.0, 5.0)])
@pytest.mark.parametrize("x", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_beta_matches_quadrature(a, b, x):
    assert incomplete_beta_regularized(x, a, b) == pytest.approx(
        beta_reg_quadrature(x, a, b), rel=1e-10)


def test_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [incomplete_beta_regularized(x, 1.3, 0.7) for x in xs]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        incomplete_beta_regularized(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_beta_regularized(0.5, -1.0, 1.0)


# ---- array arguments: the same bits as a loop over floats --------------


def gamma_points(a):
    """Endpoints, both sides of the switch x = a + 1, and deep tails."""
    switch = a + 1.0
    return np.array([0.0, math.inf, 1e-300, 1e-12, 0.3, 1.0,
                     np.nextafter(switch, 0.0), switch, np.nextafter(switch, 9.0),
                     2.0 * switch, 60.0, 300.0, 700.0, 1e4, 1e6])


def beta_points(a, b):
    """Endpoints, both sides of the switch (a + 1) / (a + b + 2), tails."""
    switch = (a + 1.0) / (a + b + 2.0)
    return np.array([0.0, 1.0, 1e-300, 1e-12, 1e-3, 0.3,
                     np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0),
                     0.7, 0.999, 1.0 - 1e-12, np.nextafter(1.0, 0.0)])


@pytest.mark.parametrize("a", [0.2, 1.0 / 3.0, 0.5, 1.0, 1.7, 10.0])
@pytest.mark.parametrize("fn", [regularized_gamma_p, regularized_gamma_q,
                                incomplete_gamma_lower])
def test_gamma_array_matches_scalar(fn, a):
    x = gamma_points(a)
    got = fn(a, x.reshape(3, 5))
    assert got.shape == (3, 5)
    want = [fn(a, float(v)) for v in x]
    np.testing.assert_array_equal(got.ravel(), want)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (2.5, 0.8), (1.5, 0.5),
                                 (5.0, 0.5)])
def test_beta_array_matches_scalar(a, b):
    x = beta_points(a, b)
    got = incomplete_beta_regularized(x, a, b)
    want = [incomplete_beta_regularized(float(v), a, b) for v in x]
    np.testing.assert_array_equal(got, want)


def test_array_domain_errors():
    with pytest.raises(ValueError, match="-0.5"):
        regularized_gamma_q(1.0, np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="1.5"):
        incomplete_beta_regularized(np.array([0.5, 1.5]), 1.0, 1.0)
    for fn in (regularized_gamma_p, regularized_gamma_q):
        assert fn(1.0, np.array([])).shape == (0,)
    assert incomplete_beta_regularized(np.array([]), 1.5, 0.5).shape == (0,)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 0.5), (2.5, 0.8)])
@pytest.mark.parametrize("side", ["below", "above", "both"])
def test_beta_one_fraction_for_either_side_or_both(a, b, side):
    """The points above the switch run the fraction of I_{1-x}(b, a) beside
    those below it; each gets the bits of its float call."""
    x = np.linspace(0.0, 1.0, 203)[1:-1]
    switch = (a + 1.0) / (a + b + 2.0)
    x = {"below": x[x < switch], "above": x[x >= switch], "both": x}[side]
    want = np.array([incomplete_beta_regularized(float(v), a, b) for v in x])
    got = incomplete_beta_regularized(x, a, b)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fn,x", [
    (lambda x: regularized_gamma_p(0.5, x), np.geomspace(1e-3, 50.0, 40)),
    (lambda x: regularized_gamma_q(2.5, x), np.geomspace(1e-3, 50.0, 40)),
    (lambda x: incomplete_beta_regularized(x, 1.5, 0.5), np.linspace(0.01, 0.99, 40)),
])
def test_nan_among_finite_points(fn, x):
    """A NaN point never converges: it gives NaN and leaves the values of
    the points beside it unchanged."""
    want = fn(x)
    got = fn(np.insert(x, 17, np.nan))
    assert np.isnan(got[17])
    np.testing.assert_array_equal(np.delete(got, 17), want)


def test_gamma_tail_where_the_prefactor_underflows():
    """Past x of about 745 the prefactor e^(-x) x^a / Gamma(a) is 0 in
    floats: Q is +0.0 and P is 1.0 exactly, beside points where it is not."""
    a = 0.5
    x = np.array([700.0, 800.0, 2.0, 1e4, 720.0, 1e300])
    underflows = np.exp(-x + a * np.log(x) - math.lgamma(a)) == 0.0
    assert underflows.tolist() == [False, True, False, True, False, True]
    q = regularized_gamma_q(a, x)
    p = regularized_gamma_p(a, x)
    np.testing.assert_array_equal(q[underflows].view(np.int64), 0)  # +0.0, not -0.0
    np.testing.assert_array_equal(p[underflows], 1.0)
    assert np.all(q[~underflows] > 0.0)
    for i, v in enumerate(x):
        assert q[i] == regularized_gamma_q(a, float(v))


# ---- the kernels' bits, pinned ------------------------------------------

#: the shapes of the pinned grid: GG noise of shape beta takes a = 1/beta
#: (100 at the smallest beta accepted), Student's t of nu takes (nu/2, 1/2)
PINNED_GAMMA_SHAPES = (0.2, 1.0 / 3.0, 0.5, 1.0, 2.5, 10.0, 100.0)
PINNED_BETA_SHAPES = ((0.5, 0.5), (1.5, 0.5), (0.25, 0.5), (2.5, 0.8), (0.7, 3.0))

#: sha256 of the float64 bytes of each function over ``pinned_grid``,
#: shape by shape in the order above
PINNED_DIGESTS = {
    "regularized_gamma_p": "4084f5108055084f75d24ff6d81f0cf95665366cc6d7a01fe7adfed395eb24ff",
    "regularized_gamma_q": "a76f6acfaf4d3d251ccec582805502f47b6eb7bb2738354d624a1906fea88702",
    "incomplete_beta_regularized":
        "5afaf3de6bfbf4ff76c3164ad871df26c0d0a35e9c2dacda4270b5e836a36fe8",
}


def pinned_grid(upper, switch, span, rng):
    """0, the upper end, subnormals, the switch and its neighbours, then
    seeded points over [0, span), on both sides of the switch, and tiny
    ones down to the subnormals."""
    fixed = [0.0, upper, 5e-324, 1e-310, 1e-300,
             np.nextafter(switch, 0.0), switch, np.nextafter(switch, upper)]
    return np.concatenate([fixed, rng.uniform(0.0, span, 60),
                           np.exp(rng.uniform(-745.0, 0.0, 20))])


def pinned_cases():
    """(name, function of x, points) over the pinned shapes."""
    rng = np.random.default_rng(20260)
    cases = []
    for a in PINNED_GAMMA_SHAPES:
        # far tail points: the prefactor e^(-x) x^a / Gamma(a) underflows
        # from about x = 745 + a log x on
        x = np.concatenate([pinned_grid(math.inf, a + 1.0, 2.0 * (a + 1.0), rng),
                            rng.uniform(600.0, 3000.0, 20), [1e300, 1.7e308]])
        for fn in (regularized_gamma_p, regularized_gamma_q):
            cases.append((fn.__name__, lambda v, fn=fn, a=a: fn(a, v), x))
    for a, b in PINNED_BETA_SHAPES:
        x = np.concatenate([pinned_grid(1.0, (a + 1.0) / (a + b + 2.0), 1.0, rng),
                            1.0 - np.exp(rng.uniform(-36.0, 0.0, 20)),
                            [np.nextafter(1.0, 0.0)]])
        cases.append(("incomplete_beta_regularized",
                      lambda v, a=a, b=b: incomplete_beta_regularized(v, a, b), x))
    return cases


def test_kernel_bits_are_pinned():
    digests = {name: hashlib.sha256() for name in PINNED_DIGESTS}
    for name, fn, x in pinned_cases():
        digests[name].update(fn(x).tobytes())
    assert {name: d.hexdigest() for name, d in digests.items()} == PINNED_DIGESTS


def test_float_calls_equal_array_calls_on_the_pinned_grid():
    for name, fn, x in pinned_cases():
        # compared as bits, so that -0.0 differs from 0.0
        floats = np.array([fn(float(v)) for v in x])
        np.testing.assert_array_equal(fn(x).view(np.int64), floats.view(np.int64),
                                      err_msg=name)
