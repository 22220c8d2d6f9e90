"""Online adaptive estimators driven by quantized or continuous observations.

The quantized update is ``gain * sign(y - x_hat) * level[cell]``: only the
quantizer cell enters it.  The continuous-observation reference applies the
(negated) noise score to the raw innovation instead.  The kernel (``direction``
and ``advance``) takes a float or an array of replications; the scalar steps
here and the Monte Carlo engine both run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .noise import NoiseModel

if TYPE_CHECKING:  # quantizer imports direction from here
    from .quantizer import QuantizerDesign, QuantizerSpec


class SignalKind(str, Enum):
    CONSTANT = "constant"
    WIENER = "wiener"
    WIENER_DRIFT = "wiener_drift"


ScheduleKind = SignalKind

#: the drift smoother's gain on the drift estimate, unless a run sets one
DEFAULT_DRIFT_GAIN = 1e-5

#: floor on |u_hat| in the drift gain: a zero estimate must not freeze it
U_FLOOR = 1e-8


@dataclass(frozen=True)
class GainSchedule:
    """Gain sequence matched to the parameter evolution model.

    ``info`` is the Fisher information of one observation (quantized or
    continuous, depending on which estimator the schedule drives).

    constant      : gain_k = 1 / (k * info)
    wiener        : gain_k = sigma_w / sqrt(info)
    wiener_drift  : gain_k = (4 * u_hat^2 / info^2)^(1/3), with |u_hat|
                    floored at ``U_FLOOR``; evaluated as
                    (u_hat^2 / (info^2 / 4))^(1/3), so it stays finite
                    up to |u_hat| of about 1.3e154.
    """

    kind: SignalKind
    info: float
    sigma_w: float = 0.0
    drift_gain: float = DEFAULT_DRIFT_GAIN

    def __post_init__(self):
        object.__setattr__(self, "kind", SignalKind(self.kind))
        if not (self.info > 0.0 and math.isfinite(self.info)):
            raise ValueError(f"info must be positive and finite, got {self.info}")
        if not 0.0 <= self.sigma_w < math.inf:
            raise ValueError(
                f"sigma_w must be nonnegative and finite, got {self.sigma_w}")
        if self.kind is SignalKind.WIENER and self.sigma_w == 0.0:
            raise ValueError("wiener schedule requires sigma_w > 0")
        if self.kind is SignalKind.WIENER_DRIFT and not 0.0 < self.drift_gain < math.inf:
            raise ValueError(
                f"drift_gain must be positive and finite, got {self.drift_gain}")


def gain(schedule: GainSchedule, k: int, u_hat=0.0):
    """Gain for step k >= 1 (k counts the update being applied).

    ``np.power`` gives a float ``u_hat`` the same bits as an array element.
    """
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    if schedule.kind is SignalKind.CONSTANT:
        return 1.0 / (k * schedule.info)
    if schedule.kind is SignalKind.WIENER:
        return schedule.sigma_w / math.sqrt(schedule.info)
    # u^2 / (info^2 / 4) has the bits of 4 u^2 / info^2 (a power-of-two scale
    # is exact) in fewer ufunc calls, and stays finite where 4 u^2 overflows
    return np.power(np.maximum(u_hat * u_hat, U_FLOOR**2) / (schedule.info**2 / 4.0),
                    1.0 / 3.0)


def signed_levels(levels) -> np.ndarray:
    """The levels with their negatives, interleaved: -l0, +l0, -l1, +l1, ...

    Entry ``2 * cell + (diff >= 0)`` is the signed level ``direction``
    returns, so it reads one entry and multiplies by no sign.
    """
    levels = np.asarray(levels)
    signed = np.empty(2 * len(levels), levels.dtype)
    signed[0::2] = -levels
    signed[1::2] = levels
    return signed


def direction(diff, thresholds: np.ndarray, signed: np.ndarray):
    """Signed output level of the cell of ``diff = y - x_hat``; 0 maps to +1.

    ``signed`` is ``signed_levels(levels)``: -level[i] at 2 i and +level[i]
    at 2 i + 1.  The cell of ``|diff|`` is the number of thresholds <= it.
    A float (Python or numpy) takes it from one ``searchsorted``.  An array
    takes it from a binary search of fixed length: the 2**(b-1) - 1 sorted
    thresholds of a b-bit quantizer need b - 1 rounds of "compare, then
    double the cell and add the bit", and no round branches on the data,
    where ``searchsorted`` mispredicts on random keys.  Both give the same
    cell for every finite or infinite key, ties included; a NaN key lands in
    cell 0 of an array (the last cell of a float), with the negative level.
    Only a diverged replication produces one, and the engine drops its
    errors; the scalar API rejects non-finite input.
    """
    # a float keeps its one searchsorted (under 1 us at any bit count): on a
    # float, each round below costs 1-2 us of numpy scalar overhead.  A float
    # is the exact type, which isinstance accepts at once; testing for an
    # ndarray would cost a float step about 80 ns more.  int() keeps the
    # index arithmetic on Python ints, about 100 ns cheaper than numpy's
    if isinstance(diff, float):
        return signed[2 * int(thresholds.searchsorted(abs(diff), "right"))
                      + (diff >= 0.0)]
    half = (len(thresholds) + 1) // 2
    if not half:  # 1 bit: one cell
        return signed.take(diff >= 0.0)
    a = abs(diff)
    # the cell, counted in units of half until the last round
    cell = (a >= thresholds[half - 1]).astype(np.intp)
    half //= 2
    while half:
        # thresholds[cell * 2 half + half - 1], read through a strided view
        up = thresholds[half - 1::2 * half].take(cell) <= a
        cell += cell
        cell += up
        half //= 2
    cell += cell
    cell += diff >= 0.0
    return signed.take(cell)


def advance(schedule: GainSchedule, k: int, x_hat, u_hat, direction):
    """Step k: (x_hat + gain * direction, drift estimate smoothed if tracked)."""
    update = gain(schedule, k, u_hat) * direction
    if schedule.kind is SignalKind.WIENER_DRIFT:
        u_hat = u_hat + schedule.drift_gain * (update - u_hat)
    return x_hat + update, u_hat


@dataclass(frozen=True)
class EstimatorState:
    """Current estimate, step counter and (for the drift model) drift estimate."""

    x_hat: float
    k: int = 0
    u_hat: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.x_hat):
            raise ValueError(f"x_hat must be finite, got {self.x_hat}")
        if not math.isfinite(self.u_hat):
            raise ValueError(f"u_hat must be finite, got {self.u_hat}")
        if not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"step counter k must be an integer, got {self.k!r}")
        if self.k < 0:
            raise ValueError(f"step counter must be >= 0, got {self.k}")


def _step(state: EstimatorState, schedule: GainSchedule, d) -> EstimatorState:
    k = state.k + 1
    x_hat, u_hat = advance(schedule, k, state.x_hat, state.u_hat, d)
    return EstimatorState(float(x_hat), k, float(u_hat))


def step_quantized(state: EstimatorState, y: float, design: QuantizerDesign,
                   spec: QuantizerSpec, schedule: GainSchedule) -> EstimatorState:
    """Advance the estimate by one quantized observation.

    The quantizer offset is the previous estimate.  The cell edges are
    ``design.thresholds``, i.e. ``spec.tau * spec.c_delta * delta``; only
    the design is read, and ``spec`` names the quantizer it was built from.
    """
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y}")
    return _step(state, schedule,
                 direction(y - state.x_hat, design.thresholds, design.signed))


def step_continuous(state: EstimatorState, y: float, model: NoiseModel,
                    schedule: GainSchedule) -> EstimatorState:
    """Advance the continuous-measurement reference estimator by one step.

    The correction is the negated noise score of the innovation, i.e. the
    ascent direction of the log-likelihood, so positive innovations move
    the estimate up.  Requires a differentiable density (ST any beta,
    GG beta > 1).
    """
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y}")
    return _step(state, schedule, -model.score(y - state.x_hat))
