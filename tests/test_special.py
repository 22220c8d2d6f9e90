"""Incomplete gamma/beta implementations against quadrature and closed forms."""

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
    assert regularized_gamma_p(1.0, np.array([])).shape == (0,)
