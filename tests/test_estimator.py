"""Gain schedules and single-step estimator updates."""

import math

import numpy as np
import pytest

from adaptquant.estimator import (
    EstimatorState,
    GainSchedule,
    U_FLOOR,
    ScheduleKind,
    SignalKind,
    advance,
    direction,
    gain,
    step_continuous,
    step_quantized,
)
from adaptquant.noise import gg, st
from adaptquant.quantizer import design_uniform


@pytest.fixture(scope="module")
def gauss_design():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    return m, spec, design


def test_schedule_validation():
    GainSchedule(ScheduleKind.CONSTANT, 1.0)
    with pytest.raises(ValueError):
        GainSchedule(ScheduleKind.CONSTANT, 0.0)
    with pytest.raises(ValueError):
        GainSchedule(ScheduleKind.WIENER, 1.0)  # needs sigma_w
    for kind, overrides in [
        (ScheduleKind.WIENER_DRIFT, dict(drift_gain=0.0)),
        (ScheduleKind.WIENER_DRIFT, dict(drift_gain=math.inf)),
        (ScheduleKind.WIENER_DRIFT, dict(drift_gain=math.nan)),
        (ScheduleKind.WIENER, dict(sigma_w=math.nan)),
        (ScheduleKind.WIENER, dict(sigma_w=math.inf)),
        (ScheduleKind.CONSTANT, dict(sigma_w=math.nan)),
    ]:
        with pytest.raises(ValueError):
            GainSchedule(kind, 1.0, **overrides)
    # string values coerce to the enum
    s = GainSchedule("constant", 2.0)
    assert s.kind is ScheduleKind.CONSTANT


def test_constant_gain_decays_harmonically():
    s = GainSchedule(ScheduleKind.CONSTANT, 2.0)
    assert gain(s, 1) == 0.5
    assert gain(s, 10) == pytest.approx(1.0 / 20.0)
    with pytest.raises(ValueError):
        gain(s, 0)


def test_wiener_gain_is_constant():
    s = GainSchedule(ScheduleKind.WIENER, 4.0, sigma_w=0.1)
    assert gain(s, 1) == pytest.approx(0.05)
    assert gain(s, 10_000) == pytest.approx(0.05)


def test_drift_gain_tracks_drift_estimate():
    s = GainSchedule(ScheduleKind.WIENER_DRIFT, 2.0)
    u = 1e-4
    expected = (4.0 * u * u / 4.0) ** (1.0 / 3.0)
    assert gain(s, 5, u_hat=u) == pytest.approx(expected, rel=1e-12)
    assert gain(s, 5, u_hat=-u) == pytest.approx(expected, rel=1e-12)
    # zero drift estimate is floored, the gain can never be zero
    assert gain(s, 5, u_hat=0.0) == pytest.approx(
        (4.0 * U_FLOOR**2 / 4.0) ** (1.0 / 3.0), rel=1e-12)


def test_state_validation():
    EstimatorState(0.0)
    with pytest.raises(ValueError):
        EstimatorState(math.nan)
    with pytest.raises(ValueError):
        EstimatorState(0.0, k=-1)
    for u_hat in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="u_hat"):
            EstimatorState(0.0, u_hat=u_hat)


def test_step_quantized_moves_toward_observation(gauss_design):
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.CONSTANT, design.info)
    state = EstimatorState(0.0)
    up = step_quantized(state, 3.0, design, spec, schedule)
    down = step_quantized(state, -3.0, design, spec, schedule)
    assert up.x_hat > 0.0
    assert down.x_hat == -up.x_hat
    assert up.k == 1


def test_step_quantized_update_magnitudes(gauss_design):
    """The update is exactly gain * level[|symbol|-1], nothing else."""
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.CONSTANT, design.info)
    state = EstimatorState(0.0, k=4)  # next update index is 5
    g = gain(schedule, 5)
    step = spec.c_delta * m.delta  # the first cell edge
    inner = step_quantized(state, 0.5 * step, design, spec, schedule)
    outer = step_quantized(state, 10.0 * step, design, spec, schedule)
    assert inner.x_hat == pytest.approx(g * design.levels[0], rel=1e-14)
    assert outer.x_hat == pytest.approx(g * design.levels[-1], rel=1e-14)


def test_step_quantized_uses_offset(gauss_design):
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.WIENER, design.info, sigma_w=0.1)
    state = EstimatorState(7.0)
    nxt = step_quantized(state, 7.0 - 0.2, design, spec, schedule)
    # observation below the current estimate pushes the estimate down
    assert nxt.x_hat < 7.0


def test_step_quantized_drift_smoothing(gauss_design):
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.WIENER_DRIFT, design.info,
                            drift_gain=0.5)
    state = EstimatorState(0.0, u_hat=0.0)
    nxt = step_quantized(state, 2.0, design, spec, schedule)
    increment = nxt.x_hat - state.x_hat
    assert nxt.u_hat == pytest.approx(0.5 * increment, rel=1e-14)


def test_step_continuous_is_linear_for_gaussian():
    m = gg(2.0)
    schedule = GainSchedule(ScheduleKind.WIENER, m.fisher_continuous(),
                            sigma_w=0.1)
    state = EstimatorState(1.0)
    y = 1.4
    nxt = step_continuous(state, y, m, schedule)
    g = 0.1 / math.sqrt(2.0)
    # Gaussian-type score is -2x, so the correction is 2 g (y - x_hat)
    assert nxt.x_hat == pytest.approx(1.0 + g * 2.0 * (y - 1.0), rel=1e-12)


def test_step_continuous_converges_on_constant_target(rng):
    m = st(3.0)
    schedule = GainSchedule(ScheduleKind.CONSTANT, m.fisher_continuous())
    x_true = 2.0
    state = EstimatorState(0.0)
    for _ in range(4000):
        state = step_continuous(state, x_true + m.sample(rng, 1)[0], m, schedule)
    assert abs(state.x_hat - x_true) < 0.2


def test_step_quantized_converges_on_constant_target(gauss_design, rng):
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.CONSTANT, design.info)
    x_true = -1.5
    state = EstimatorState(0.0)
    for _ in range(4000):
        y = x_true + m.sample(rng, 1)[0]
        state = step_quantized(state, y, design, spec, schedule)
    assert abs(state.x_hat - x_true) < 0.2


def test_nonfinite_observation_rejected(gauss_design):
    m, spec, design = gauss_design
    schedule = GainSchedule(ScheduleKind.CONSTANT, design.info)
    with pytest.raises(ValueError):
        step_quantized(EstimatorState(0.0), math.inf, design, spec, schedule)
    with pytest.raises(ValueError):
        step_continuous(EstimatorState(0.0), math.nan, m, schedule)


def test_schedule_kind_is_the_signal_kind():
    assert ScheduleKind is SignalKind


def test_direction_on_floats_and_arrays(gauss_design):
    m, spec, design = gauss_design
    thr, levels = design.thresholds, design.levels
    step = spec.c_delta * m.delta
    np.testing.assert_array_equal(thr, np.asarray(spec.tau) * step)
    diffs = np.array([-3.0, -0.5, -0.0, 0.0, 0.5, 3.0]) * step
    expected = [-levels[-1], -levels[0], levels[0], levels[0], levels[0], levels[-1]]
    assert [direction(float(d), thr, levels) for d in diffs] == expected
    np.testing.assert_array_equal(direction(diffs, thr, levels), expected)


def test_advance_on_floats_and_arrays():
    s = GainSchedule(ScheduleKind.WIENER_DRIFT, 2.0, drift_gain=0.25)
    x_hat = np.array([0.0, 1.0, -2.0])
    u_hat = np.array([1e-3, 0.0, -5e-4])
    d = np.array([0.5, -1.5, 2.0])
    x_arr, u_arr = advance(s, 3, x_hat, u_hat, d)
    for i in range(3):
        x_i, u_i = advance(s, 3, float(x_hat[i]), float(u_hat[i]), float(d[i]))
        assert (x_i, u_i) == (x_arr[i], u_arr[i])
