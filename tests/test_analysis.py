"""Theoretical performance predictions, bounds, and mean-field diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from adaptquant.analysis import (
    PerformancePrediction,
    bcrb_asymptotic,
    bcrb_asymptotic_approx,
    bcrb_recursion,
    check_stability,
    crb_continuous,
    increment_variance,
    loss_db,
    mean_field_slope_general,
    mse_drift_tradeoff,
    ode_mean_trajectory,
    optimal_gamma_constant,
    sigma_inf_general,
)
from adaptquant.estimator import SignalKind
from adaptquant.noise import gg, st
from adaptquant.quantizer import design_uniform, mean_field


def test_loss_anchors_one_bit_gaussian():
    iq = 4.0 / math.pi
    ic = 2.0
    lq = loss_db(SignalKind.CONSTANT, iq, ic)
    assert lq == pytest.approx(10.0 * math.log10(math.pi / 2.0), rel=1e-12)
    assert lq == pytest.approx(1.9612, abs=5e-5)
    assert loss_db(SignalKind.WIENER, iq, ic) == pytest.approx(lq / 2.0, rel=1e-12)
    assert loss_db(SignalKind.WIENER_DRIFT, iq, ic) == pytest.approx(2.0 * lq / 3.0,
                                                                     rel=1e-12)


def test_loss_db_per_signal_kind():
    """The constant-case loss, scaled by 1, 1/2 or 2/3: the bits of the
    product, whether the kind is a SignalKind or its value."""
    iq, ic = 4.0 / math.pi, 2.0
    lq = -10.0 * math.log10(iq / ic)
    assert loss_db("constant", iq, ic) == lq
    assert loss_db("wiener", iq, ic) == 0.5 * lq
    assert loss_db(SignalKind.WIENER_DRIFT, iq, ic) == (2.0 / 3.0) * lq
    with pytest.raises(ValueError):
        loss_db("sine", iq, ic)
    for bad in [(0.0, ic), (iq, -1.0), (math.nan, ic), (iq, math.inf)]:
        with pytest.raises(ValueError, match="positive finite"):
            loss_db(SignalKind.WIENER, *bad)


def test_loss_zero_when_no_information_is_lost():
    for kind in SignalKind:
        assert loss_db(kind, 1.0, 1.0) == 0.0


def test_crb_continuous():
    assert crb_continuous(2.0, 100) == pytest.approx(1.0 / 200.0, rel=1e-14)


def test_bcrb_recursion_limits():
    ic, sigma_w = 2.0, 0.1
    seq = bcrb_recursion(ic, sigma_w, 5000)
    assert seq.shape == (5000,)
    # the information sequence is positive and settles to the fixed point,
    # whose reciprocal is the asymptotic variance bound
    assert np.all(seq > 0.0)
    assert seq[-1] == pytest.approx(seq[-2], rel=1e-12)
    assert 1.0 / seq[-1] == pytest.approx(bcrb_asymptotic(ic, sigma_w), rel=1e-9)


def test_bcrb_asymptotic_fixed_point():
    """The asymptotic value solves the recursion's fixed-point equation."""
    for ic, sw in [(2.0, 0.1), (0.5, 0.001), (1.0, 1.0)]:
        b = bcrb_asymptotic(ic, sw)
        j = 1.0 / b
        rhs = ic + 1.0 / sw**2 - 1.0 / (sw**4 * (j + 1.0 / sw**2))
        assert j == pytest.approx(rhs, rel=1e-12)


def test_bcrb_approx_close_for_slow_parameter():
    ic = 2.0
    for sw in [1e-2, 1e-4]:
        exact = bcrb_asymptotic(ic, sw)
        approx = bcrb_asymptotic_approx(ic, sw)
        assert approx == pytest.approx(sw / math.sqrt(ic), rel=1e-14)
        assert exact == pytest.approx(approx, rel=5.0 * sw)


def test_performance_prediction():
    p = PerformancePrediction(info=4.0 / math.pi)
    assert p.var_constant(1) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert p.var_constant(100) == pytest.approx(math.pi / 400.0, rel=1e-14)
    assert p.mse_wiener(0.1) == pytest.approx(0.1 / math.sqrt(4.0 / math.pi),
                                              rel=1e-14)
    u = 1e-4
    assert p.mse_drift(u) == pytest.approx(
        3.0 * (u / (4.0 * 4.0 / math.pi)) ** (2.0 / 3.0), rel=1e-14)


def test_performance_prediction_mse_curve():
    p = PerformancePrediction(info=2.0)
    k = np.arange(1, 51)
    np.testing.assert_array_equal(p.mse_curve("constant", 50), 1.0 / (k * 2.0))
    np.testing.assert_array_equal(p.mse_curve(SignalKind.WIENER, 50, sigma_w=0.1),
                                  np.full(50, p.mse_wiener(0.1)))
    np.testing.assert_array_equal(p.mse_curve("wiener_drift", 50, u=-1e-4),
                                  np.full(50, p.mse_drift(1e-4)))


def test_general_levels_reduce_to_optimal():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    s = sigma_inf_general(design.levels, design.probs, design.drops)
    assert s == pytest.approx(1.0 / design.info, rel=1e-12)
    # scale invariance, and strictly worse for perturbed levels
    assert sigma_inf_general(3.0 * design.levels, design.probs,
                             design.drops) == pytest.approx(s, rel=1e-12)
    bad = np.array([design.levels[0], 5.0 * design.levels[1]])
    assert sigma_inf_general(bad, design.probs, design.drops) > s


def test_increment_variance_and_slope_consistency():
    m = st(1.0)
    spec, design = design_uniform(m, 4)
    r = increment_variance(design.levels, design.probs)
    slope = mean_field_slope_general(design.levels, design.drops)
    # with optimal levels: R = -slope = info
    assert r == pytest.approx(design.info, rel=1e-12)
    assert slope == pytest.approx(-design.info, rel=1e-12)
    assert optimal_gamma_constant(slope) == pytest.approx(1.0 / design.info,
                                                          rel=1e-12)


def test_mse_drift_tradeoff_minimized_by_drift_gain():
    u, info = 1e-4, 1.5
    g_star = (4.0 * u * u / info**2) ** (1.0 / 3.0)
    best = mse_drift_tradeoff(g_star, u, info)
    for g in [0.5 * g_star, 2.0 * g_star]:
        assert mse_drift_tradeoff(g, u, info) > best
    assert best == pytest.approx(3.0 * (u / (4.0 * info)) ** (2.0 / 3.0),
                                 rel=1e-12)


def test_ode_trajectory_against_reference_integrator():
    """RK4 on the harmonic grid agrees with a high-accuracy ODE solver."""
    m = gg(2.0)
    _, design = design_uniform(m, 2)
    horizon = 200
    traj = ode_mean_trajectory(m, design, x0_hat=5.0, x=0.0,
                               horizon=horizon)
    t_grid = np.cumsum(1.0 / np.arange(1, horizon + 1))
    gamma = 1.0 / design.info
    sol = solve_ivp(lambda t, e: gamma * mean_field(m, design, e[0]),
                    (0.0, t_grid[-1]), [5.0], t_eval=t_grid,
                    rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(traj, sol.y[0], rtol=1e-6, atol=1e-9)


def test_ode_trajectory_decreases_monotonically():
    m = gg(2.0)
    _, design = design_uniform(m, 8)
    traj = ode_mean_trajectory(m, design, x0_hat=5.0, x=0.0, horizon=500)
    assert np.all(np.diff(traj) < 0.0)
    assert traj[-1] > 0.0
    assert traj[-1] < 0.05


@pytest.mark.parametrize("family,beta", [("gg", 1.5), ("gg", 2.0), ("st", 1.0),
                                         ("st", 2.0)])
@pytest.mark.parametrize("nbits", [1, 2, 3])
def test_stability_holds_for_standard_designs(family, beta, nbits):
    m = gg(beta) if family == "gg" else st(beta)
    _, design = design_uniform(m, 2 ** nbits)
    report = check_stability(m, design)
    assert report.passed
    assert abs(report.h_at_zero) <= 1e-12
    assert report.violations == []


def test_stability_detects_sign_flip():
    """Negated output levels break the restoring-force condition."""
    from adaptquant.quantizer import QuantizerDesign

    m = gg(2.0)
    _, design = design_uniform(m, 4)
    broken = QuantizerDesign(design.probs, design.drops, -design.levels,
                             design.info, design.thresholds)
    report = check_stability(m, broken)
    assert not report.passed
    assert len(report.violations) > 0
