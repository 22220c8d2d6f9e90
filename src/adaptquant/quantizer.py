"""Symmetric adjustable quantizer and its information-optimal design.

The quantizer maps (y - offset) / step onto a signed integer symbol; the
static threshold grid is symmetric with no zero symbol.  A design for a
given noise model consists of the per-interval probabilities, the density
drops across interval edges, the optimal output levels (drop/probability
ratios) and the Fisher information carried by one quantized observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import Family, NoiseModel


class DesignError(ValueError):
    """A quantizer design is degenerate (an interval has no probability mass)."""


#: default search grid for the step constant, in units of the noise scale
DEFAULT_CDELTA_GRID = (0.01, 10.0, 0.01)

#: intervals with less mass than this are treated as degenerate
MIN_INTERVAL_MASS = 1e-300


@dataclass(frozen=True)
class QuantizerSpec:
    """Static quantizer geometry: even interval count and normalized thresholds.

    ``tau`` holds the positive-side thresholds tau_1 < ... < tau_{N/2},
    with tau_{N/2} = +inf and tau_0 = 0 implicit; the negative side is the
    mirror image.
    """

    n_intervals: int
    tau: tuple
    c_delta: float

    def __post_init__(self):
        n = self.n_intervals
        if n < 2 or n % 2 != 0:
            raise ValueError(f"n_intervals must be even and >= 2, got {n}")
        tau = tuple(float(t) for t in self.tau)
        object.__setattr__(self, "tau", tau)
        if len(tau) != n // 2:
            raise ValueError(f"expected {n // 2} thresholds, got {len(tau)}")
        if not math.isinf(tau[-1]):
            raise ValueError("last threshold must be +inf")
        if any(t <= 0 for t in tau) or any(a >= b for a, b in zip(tau, tau[1:])):
            raise ValueError("thresholds must be positive and strictly increasing")
        if not (self.c_delta > 0.0 and math.isfinite(self.c_delta)):
            raise ValueError(f"c_delta must be positive, got {self.c_delta}")

    @classmethod
    def uniform(cls, n_intervals: int, c_delta: float) -> "QuantizerSpec":
        """Unit-spaced thresholds 1, 2, ..., N/2 - 1 plus the infinite edge."""
        half = n_intervals // 2
        tau = tuple(float(i) for i in range(1, half)) + (math.inf,)
        return cls(n_intervals, tau, c_delta)

    @property
    def nbits(self) -> int:
        return int(round(math.log2(self.n_intervals)))

    @property
    def finite_tau(self) -> np.ndarray:
        return np.asarray(self.tau[:-1])


@dataclass(frozen=True)
class QuantizerDesign:
    """Derived per-interval quantities for a (noise, spec) pair.

    probs[i]  : probability mass of positive interval i+1
    drops[i]  : density drop across that interval's edges
    levels[i] : output level for symbol i+1 (odd-extended to the negative side)
    info      : Fisher information of one quantized observation
    step      : input step, c_delta * delta
    thresholds: finite positive cell edges, tau[:-1] * step
    """

    probs: np.ndarray
    drops: np.ndarray
    levels: np.ndarray
    info: float
    step: float
    thresholds: np.ndarray


def quantize(y: float, offset: float, spec: QuantizerSpec, step: float) -> int:
    """Quantize one observation to a signed symbol in {-N/2..-1, +1..+N/2}.

    The tie y == offset maps to +1 (a probability-zero event under a
    continuous noise density) so output is deterministic and never 0.
    """
    z = abs(y - offset) / step
    mag = int(np.searchsorted(spec.finite_tau, z, side="right")) + 1
    return mag if y >= offset else -mag


def interval_stats(model: NoiseModel, spec: QuantizerSpec):
    """Interval probabilities and density drops for offset at the parameter.

    Returns (probs, drops) over the positive half-line:
    probs[i] = F(tau_{i+1} step) - F(tau_i step) and
    drops[i] = f(tau_i step) - f(tau_{i+1} step), with f(inf) = 0.
    """
    step = spec.c_delta * model.delta
    edges = np.concatenate(([0.0], np.asarray(spec.tau))) * step
    sf = np.append(model.sf(edges[:-1]), 0.0)
    pdf = np.where(np.isinf(edges), 0.0, model.pdf(np.where(np.isinf(edges), 0.0, edges)))
    probs = -np.diff(sf)
    drops = -np.diff(pdf)
    if np.any(probs < MIN_INTERVAL_MASS):
        raise DesignError(
            f"degenerate quantization interval for c_delta={spec.c_delta}: "
            f"interval probabilities {probs}"
        )
    return probs, drops


def optimal_levels(probs: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Variance-minimizing output levels: drop/probability per interval."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < MIN_INTERVAL_MASS):
        raise DesignError("interval with vanishing probability mass")
    return np.asarray(drops, dtype=float) / probs


def fisher_quantized(probs: np.ndarray, drops: np.ndarray) -> float:
    """Fisher information of one quantized observation, 2 * sum(drops^2 / probs)."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < MIN_INTERVAL_MASS):
        raise DesignError("interval with vanishing probability mass")
    return float(2.0 * np.sum(np.asarray(drops, dtype=float) ** 2 / probs))


def build_design(model: NoiseModel, spec: QuantizerSpec) -> QuantizerDesign:
    probs, drops = interval_stats(model, spec)
    levels = optimal_levels(probs, drops)
    info = fisher_quantized(probs, drops)
    step = spec.c_delta * model.delta
    return QuantizerDesign(probs, drops, levels, info, step, spec.finite_tau * step)


def optimize_cdelta(model: NoiseModel, n_intervals: int, grid=DEFAULT_CDELTA_GRID):
    """Grid-search the step constant maximizing the quantized information.

    Uses unit-spaced normalized thresholds.  Ties (including flat profiles,
    e.g. Laplace noise where the information is threshold-independent)
    resolve to the smallest grid point.  Grid points whose design is
    degenerate are skipped.
    """
    lo, hi, step = grid
    if not (lo > 0 and hi >= lo and step > 0):
        raise ValueError(f"invalid c_delta grid {grid}")
    values = np.round(np.arange(lo, hi + step / 2, step), 12)
    if values.size == 0:
        raise ValueError(f"empty c_delta grid {grid}")
    best_c, best_info = None, -math.inf
    first_c, first_info = None, None
    worst_info = math.inf
    for c in values:
        try:
            probs, drops = interval_stats(
                model, QuantizerSpec.uniform(n_intervals, float(c))
            )
        except DesignError:
            continue
        info = fisher_quantized(probs, drops)
        if first_c is None:
            first_c, first_info = float(c), info
        worst_info = min(worst_info, info)
        if info > best_info:
            best_c, best_info = float(c), info
    if best_c is None:
        raise DesignError(f"no valid design on c_delta grid {grid}")
    # flat profile (threshold-independent information, e.g. Laplace noise):
    # resolve to the smallest valid grid point
    if best_info - worst_info <= 1e-12 * max(1.0, best_info):
        return first_c, first_info
    return best_c, best_info


def design_uniform(model: NoiseModel, n_intervals: int, grid=DEFAULT_CDELTA_GRID):
    """Optimize c_delta on the grid and build the resulting design."""
    c_delta, _ = optimize_cdelta(model, n_intervals, grid)
    spec = QuantizerSpec.uniform(n_intervals, c_delta)
    return spec, build_design(model, spec)


# ---- mean-field quantities ------------------------------------------


def mean_field(model: NoiseModel, design: QuantizerDesign, spec: QuantizerSpec,
               eps: float) -> float:
    """Expected update direction as a function of the estimation error.

    Zero at eps = 0; negative for eps > 0 and positive for eps < 0 for any
    valid symmetric design, which is what makes the recursion stable.
    """
    step = design.step
    edges = np.concatenate(([0.0], np.asarray(spec.tau)))
    total = 0.0
    for i in range(len(edges) - 1):
        lo, hi = edges[i] * step, edges[i + 1] * step
        pos = _cdf_at(model, hi + eps) - _cdf_at(model, lo + eps)
        neg = _cdf_at(model, -lo + eps) - _cdf_at(model, -hi + eps)
        total += design.levels[i] * (pos - neg)
    return total


def _cdf_at(model, x):
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    return model.cdf(x)


def mean_field_slope(model: NoiseModel, design: QuantizerDesign,
                     spec: QuantizerSpec) -> float:
    """Derivative of the mean field at zero error, -2 * sum(levels * drops).

    Equals minus the quantized Fisher information when the levels are the
    optimal drop/probability ratios.
    """
    _, drops = interval_stats(model, spec)
    return float(-2.0 * np.sum(design.levels * drops))


# ---- plain-text design tables ----------------------------------------


def save_design(path, model: NoiseModel, spec: QuantizerSpec,
                design: QuantizerDesign) -> None:
    """Persist a design as a key = value table (full float precision)."""
    finite = ",".join(repr(t) for t in spec.tau[:-1])
    lines = [
        f"family = {model.family.value}",
        f"beta = {model.beta!r}",
        f"delta = {model.delta!r}",
        f"n_intervals = {spec.n_intervals}",
        f"c_delta = {spec.c_delta!r}",
        f"tau = {finite}",
        f"eta = {','.join(repr(float(v)) for v in design.levels)}",
        f"iq = {float(design.info)!r}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_design(path):
    """Load a design table; returns (model, spec, design)."""
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    model = NoiseModel(Family(kv["family"]), float(kv["beta"]), float(kv["delta"]))
    n = int(kv["n_intervals"])
    finite = tuple(float(t) for t in kv["tau"].split(",") if t)
    spec = QuantizerSpec(n, finite + (math.inf,), float(kv["c_delta"]))
    levels = np.array([float(v) for v in kv["eta"].split(",")])
    design = replace(build_design(model, spec), levels=levels, info=float(kv["iq"]))
    return model, spec, design
