"""Closed-form performance predictions, bounds and stability diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import SignalKind
from .noise import NoiseModel
from .quantizer import QuantizerDesign, mean_field

# ---- quantization losses in dB ---------------------------------------


#: share of the constant-parameter loss paid when tracking each signal model
LOSS_SHARE = {SignalKind.CONSTANT: 1.0, SignalKind.WIENER: 0.5,
              SignalKind.WIENER_DRIFT: 2.0 / 3.0}


def loss_db(kind, iq: float, ic: float) -> float:
    """dB penalty of quantized vs continuous estimation under the signal
    model ``kind`` (a SignalKind or its value): its ``LOSS_SHARE`` of
    -10 log10(iq / ic), the loss for a constant parameter."""
    if not (iq > 0 and ic > 0 and math.isfinite(iq) and math.isfinite(ic)):
        raise ValueError(f"information values must be positive finite, got {iq}, {ic}")
    return LOSS_SHARE[SignalKind(kind)] * (-10.0 * math.log10(iq / ic))


# ---- Cramer-Rao and Bayesian Cramer-Rao bounds ------------------------


def crb_continuous(ic: float, k):
    """Variance bound after k (an int or an array) observations of a constant."""
    return 1.0 / (k * ic)


def bcrb_recursion(ic: float, sigma_w: float, n_steps: int) -> np.ndarray:
    """Bayesian information sequence J_1..J_n for a random-walk parameter.

    Initialized at J_0 = 1/sigma_w^2 (prior information only); the fixed
    point does not depend on the initialization.
    """
    if not (ic > 0 and sigma_w > 0):
        raise ValueError("ic and sigma_w must be positive")
    inv_var = 1.0 / sigma_w**2
    out = np.empty(n_steps)
    j = inv_var
    for i in range(n_steps):
        j = ic + inv_var - inv_var**2 / (j + inv_var)
        out[i] = j
    return out


def bcrb_asymptotic(ic: float, sigma_w: float) -> float:
    """Asymptotic Bayesian bound 2 / (ic + sqrt(ic^2 + 4 ic / sigma_w^2))."""
    if not (ic > 0 and sigma_w > 0):
        raise ValueError("ic and sigma_w must be positive")
    return 2.0 / (ic + math.sqrt(ic**2 + 4.0 * ic / sigma_w**2))


def bcrb_asymptotic_approx(ic: float, sigma_w: float) -> float:
    """Small-sigma_w approximation sigma_w / sqrt(ic)."""
    return sigma_w / math.sqrt(ic)


# ---- prediction containers --------------------------------------------


@dataclass(frozen=True)
class PerformancePrediction:
    """Asymptotic MSE for an information value: theory at I_q, loss baseline at I_c."""

    info: float

    def var_constant(self, k):
        return crb_continuous(self.info, k)

    def mse_wiener(self, sigma_w: float) -> float:
        return bcrb_asymptotic_approx(self.info, sigma_w)

    def mse_drift(self, u: float) -> float:
        return 3.0 * (abs(u) / (4.0 * self.info)) ** (2.0 / 3.0)

    def mse_curve(self, kind, horizon: int, sigma_w: float = 0.0,
                  u: float = 0.0) -> np.ndarray:
        """Predicted MSE at steps 1..horizon under the signal model ``kind``."""
        kind = SignalKind(kind)
        if kind is SignalKind.CONSTANT:
            return self.var_constant(np.arange(1, horizon + 1))
        return np.full(horizon, self.mse_wiener(sigma_w) if kind is SignalKind.WIENER
                       else self.mse_drift(u))


# ---- general (suboptimal-level) asymptotics ---------------------------


def increment_variance(levels, probs) -> float:
    """Second moment of the update direction, 2 * sum(levels^2 * probs)."""
    return float(2.0 * np.sum(np.asarray(levels) ** 2 * np.asarray(probs)))


def mean_field_slope_general(levels, drops) -> float:
    """Mean-field derivative at zero error, -2 * sum(levels * drops)."""
    return float(-2.0 * np.sum(np.asarray(levels) * np.asarray(drops)))


def sigma_inf_general(levels, probs, drops) -> float:
    """Asymptotic variance constant R / slope^2 for arbitrary positive levels.

    Bounded below by 1/info (Cauchy-Schwarz), with equality when the levels
    are the optimal drop/probability ratios.  Scale-invariant in the levels.
    """
    slope = mean_field_slope_general(levels, drops)
    if slope == 0.0:
        raise ValueError("mean-field slope is zero; variance constant undefined")
    return increment_variance(levels, probs) / slope**2


def optimal_gamma_constant(slope: float) -> float:
    """Variance-minimizing gain scale for the decreasing-gain schedule."""
    if slope >= 0.0:
        raise ValueError(f"mean-field slope must be negative, got {slope}")
    return -1.0 / slope


def mse_drift_tradeoff(gamma: float, u: float, info: float) -> float:
    """Bias-variance objective for trackers of a drifting parameter.

    With optimal levels the lag term is u^2/(gamma^2 info^2) and the noise
    term is gamma/2; the minimizer is the drift-schedule gain.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return u**2 / (gamma**2 * info**2) + gamma / 2.0


# ---- ODE mean trajectory and stability diagnostics --------------------

#: longest RK4 step of ``ode_mean_trajectory``, in harmonic time
ODE_MAX_DT = 0.1
#: largest |mean_field(0)| that ``check_stability`` accepts as zero
ZERO_TOL = 1e-12


def ode_mean_trajectory(model: NoiseModel, design: QuantizerDesign,
                        x0_hat: float, x: float, horizon: int) -> np.ndarray:
    """Mean estimator trajectory from the deterministic mean-field ODE.

    Integrates d(err)/dt = gamma * mean_field(err) with gamma = 1/info by
    classic fourth-order Runge-Kutta on the harmonic time grid
    t_k = sum_{j<=k} 1/j (the decreasing-gain time change), sub-stepping
    so no RK4 step exceeds ``ODE_MAX_DT``.  Returns x_hat(t_k) for k = 1..horizon.
    """
    gamma = 1.0 / design.info

    def rhs(err):
        return gamma * mean_field(model, design, err)

    err = x0_hat - x
    out = np.empty(horizon)
    for k in range(1, horizon + 1):
        dt = 1.0 / k
        for _ in range(max(1, math.ceil(dt / ODE_MAX_DT))):
            h = dt / max(1, math.ceil(dt / ODE_MAX_DT))
            k1 = rhs(err)
            k2 = rhs(err + 0.5 * h * k1)
            k3 = rhs(err + 0.5 * h * k2)
            k4 = rhs(err + h * k3)
            err = err + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k - 1] = x + err
    return out


@dataclass
class StabilityReport:
    """Grid diagnostic of the mean-field sign conditions."""

    passed: bool
    h_at_zero: float
    violations: list = field(default_factory=list)  # (eps, h, lyapunov derivative)


def check_stability(model: NoiseModel, design: QuantizerDesign) -> StabilityReport:
    """Verify the mean field vanishes at zero error and opposes the error.

    The second condition is equivalent to a negative quadratic-Lyapunov
    derivative 2 * eps * gamma * mean_field(eps) away from zero, which is
    what is checked (gamma > 0 cancels), on 201 points spanning +-10 delta.
    """
    h0 = mean_field(model, design, 0.0)
    violations = []
    for eps in np.linspace(-10.0 * model.delta, 10.0 * model.delta, 201):
        if eps == 0.0:
            continue
        h = mean_field(model, design, float(eps))
        lyap = 2.0 * eps * h
        if lyap >= 0.0:
            violations.append((float(eps), h, lyap))
    passed = abs(h0) <= ZERO_TOL and not violations
    return StabilityReport(passed=passed, h_at_zero=h0, violations=violations)
