"""Symmetric adjustable quantizer and its information-optimal design.

The quantizer maps y - offset onto a signed integer symbol, its cell among
the edges tau * c_delta * delta; the static threshold grid is symmetric
with no zero symbol.  A design for a given noise model consists of the
per-interval probabilities, the density drops across interval edges, the
optimal output levels (drop/probability ratios) and the Fisher information
carried by one quantized observation.
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

#: the finest quantizer: 2**MAX_NBITS intervals, which caps the default
#: grid's search matrix at 1000 x 511 floats
MAX_NBITS = 10


def _check_size(n_intervals: int) -> None:
    if n_intervals < 2 or n_intervals & (n_intervals - 1):  # nbits names the quantizer
        raise ValueError(f"n_intervals must be a power of two >= 2, got {n_intervals}")
    if n_intervals > 2**MAX_NBITS:
        raise ValueError(f"n_intervals must be <= 2**MAX_NBITS = {2**MAX_NBITS} "
                         f"({MAX_NBITS} bits), got {n_intervals}")


@dataclass(frozen=True)
class QuantizerSpec:
    """Static quantizer geometry: normalized thresholds and the step constant.

    ``tau`` holds the finite positive-side thresholds tau_1 < ... <
    tau_{N/2-1}, empty at 1 bit; tau_0 = 0 and the outer edge +inf are
    implicit, and the negative side is the mirror image.  The cell edges
    are ``tau * c_delta * delta``; the quantizer has N = 2 * len(tau) + 2
    intervals, a power of two.
    """

    tau: tuple
    c_delta: float

    def __post_init__(self):
        tau = tuple(float(t) for t in self.tau)
        object.__setattr__(self, "tau", tau)
        _check_size(self.n_intervals)
        if not all(0.0 < t < math.inf for t in tau) or any(
                a >= b for a, b in zip(tau, tau[1:])):
            raise ValueError(
                f"thresholds must be finite, positive and strictly increasing, got {tau}")
        if not (self.c_delta > 0.0 and math.isfinite(self.c_delta)):
            raise ValueError(f"c_delta must be positive, got {self.c_delta}")

    @classmethod
    def uniform(cls, n_intervals: int, c_delta: float) -> "QuantizerSpec":
        """Unit-spaced thresholds 1, 2, ..., N/2 - 1."""
        _check_size(n_intervals)  # before the tuple is sized by it
        return cls(tuple(float(i) for i in range(1, n_intervals // 2)), c_delta)

    @property
    def n_intervals(self) -> int:
        return 2 * len(self.tau) + 2

    @property
    def nbits(self) -> int:
        return self.n_intervals.bit_length() - 1


@dataclass(frozen=True)
class QuantizerDesign:
    """Derived per-interval quantities for a (noise, spec) pair.

    probs[i]  : probability mass of positive interval i+1
    drops[i]  : density drop across that interval's edges
    levels[i] : output level for symbol i+1 (odd-extended to the negative side)
    info      : Fisher information of one quantized observation
    thresholds: finite positive cell edges, tau * c_delta * delta
    """

    probs: np.ndarray
    drops: np.ndarray
    levels: np.ndarray
    info: float
    thresholds: np.ndarray


def quantize(y: float, offset: float, spec: QuantizerSpec, step: float) -> int:
    """Quantize one observation to a signed symbol in {-N/2..-1, +1..+N/2}.

    The cell edges are ``spec.tau * step``; with the step c_delta * delta
    they are ``design.thresholds``, as ``estimator.direction`` reads them.
    The tie y == offset maps to +1 (a probability-zero event under a
    continuous noise density) so output is deterministic and never 0.
    """
    diff = y - offset
    mag = int(np.searchsorted(np.asarray(spec.tau) * step, abs(diff), side="right")) + 1
    return mag if diff >= 0.0 else -mag


def interval_stats(model: NoiseModel, thresholds):
    """Cell masses and density drops for offset at the parameter.

    ``thresholds`` holds absolute finite positive cell edges t_1 < ... along
    the last axis: shape (N/2 - 1,) for one design or (rows, N/2 - 1) for
    many.  Returns (probs, drops) over the positive half-line, of the same
    leading shape, with t_0 = 0 and t_{N/2} = +inf:
    probs[..., i] = F(t_{i+1}) - F(t_i) and
    drops[..., i] = f(t_i) - f(t_{i+1}), with f(inf) = 0.
    One ``sf`` and one ``pdf`` call cover every row; degenerate rows are
    returned, not rejected.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    column = np.zeros(thresholds.shape[:-1] + (1,))  # the edge 0; sf, pdf at inf
    edges = np.concatenate((column, thresholds), axis=-1)
    probs = -np.diff(np.concatenate((model.sf(edges), column), axis=-1), axis=-1)
    drops = -np.diff(np.concatenate((model.pdf(edges), column), axis=-1), axis=-1)
    return probs, drops


def _degenerate(probs):
    """Per design row: does any cell hold less than ``MIN_INTERVAL_MASS``?"""
    return np.any(probs < MIN_INTERVAL_MASS, axis=-1)


def optimal_levels(probs: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Variance-minimizing output levels: drop/probability per interval."""
    probs = np.asarray(probs, dtype=float)
    if np.any(_degenerate(probs)):
        raise DesignError(f"interval with vanishing probability mass: {probs}")
    return np.asarray(drops, dtype=float) / probs


def fisher_quantized(probs: np.ndarray, drops: np.ndarray):
    """Fisher information of one quantized observation, 2 * sum(drops^2 / probs).

    A float for one design; an array with one value per row for 2-D input.
    """
    probs = np.asarray(probs, dtype=float)
    if np.any(_degenerate(probs)):
        raise DesignError(f"interval with vanishing probability mass: {probs}")
    info = 2.0 * np.sum(np.asarray(drops, dtype=float) ** 2 / probs, axis=-1)
    return float(info) if info.ndim == 0 else info


def _design(probs, drops, thresholds) -> QuantizerDesign:
    """The design of one row of cell masses and density drops."""
    return QuantizerDesign(probs, drops, optimal_levels(probs, drops),
                           fisher_quantized(probs, drops), thresholds)


def build_design(model: NoiseModel, spec: QuantizerSpec) -> QuantizerDesign:
    thresholds = np.asarray(spec.tau) * (spec.c_delta * model.delta)
    return _design(*interval_stats(model, thresholds), thresholds)


def optimize_cdelta(model: NoiseModel, n_intervals: int, grid=DEFAULT_CDELTA_GRID):
    """Grid-search the step constant maximizing the quantized information.

    Uses unit-spaced normalized thresholds.  The whole grid is evaluated in
    one ``interval_stats`` call, one row of edges per grid point.  Ties
    (including flat profiles, e.g. Laplace noise where the information is
    threshold-independent) resolve to the smallest grid point.  Grid points
    whose design is degenerate are skipped.

    Returns ``(c_delta, design)``: the design is built from the winning
    row's own cell masses and drops, so it equals, bit for bit,
    ``build_design(model, QuantizerSpec.uniform(n_intervals, c_delta))``
    without a second ``interval_stats`` call; ``design.info`` is the
    maximized information.
    """
    lo, hi, step = grid
    if not (lo > 0 and hi >= lo and step > 0):
        raise ValueError(f"invalid c_delta grid {grid}")
    values = np.round(np.arange(lo, hi + step / 2, step), 12)
    if values.size == 0:
        raise ValueError(f"empty c_delta grid {grid}")
    tau = np.asarray(QuantizerSpec.uniform(n_intervals, lo).tau)
    probs, drops = interval_stats(model, tau * (values * model.delta)[:, None])
    valid = ~_degenerate(probs)
    if not valid.any():
        raise DesignError(f"no valid design on c_delta grid {grid}")
    info = fisher_quantized(probs[valid], drops[valid])
    best = int(np.argmax(info))  # the first maximum
    # flat profile (threshold-independent information, e.g. Laplace noise):
    # resolve to the smallest valid grid point
    if info[best] - info.min() <= 1e-12 * max(1.0, info[best]):
        best = 0
    row = np.flatnonzero(valid)[best]
    c_delta = float(values[row])
    # copies, so the design does not hold the whole grid matrix alive
    return c_delta, _design(probs[row].copy(), drops[row].copy(),
                            tau * (c_delta * model.delta))  # as build_design forms it


def design_uniform(model: NoiseModel, n_intervals: int, grid=DEFAULT_CDELTA_GRID):
    """Optimize c_delta on the grid; returns (spec, the winning row's design)."""
    c_delta, design = optimize_cdelta(model, n_intervals, grid)
    return QuantizerSpec.uniform(n_intervals, c_delta), design


# ---- mean-field quantities ------------------------------------------


def mean_field(model: NoiseModel, design: QuantizerDesign, eps: float) -> float:
    """Expected update direction as a function of the estimation error.

    Zero at eps = 0; negative for eps > 0 and positive for eps < 0 for any
    valid symmetric design, which is what makes the recursion stable.

    The cell masses come from ``sf`` at eps and at eps +- each finite edge
    of ``design.thresholds``, one call per point; sf is 0 at the edge +inf
    and 1 at -inf.
    """
    edges = design.thresholds.tolist()
    centre = model.sf(eps)
    upper = [centre, *(model.sf(eps + t) for t in edges), 0.0]
    lower = [centre, *(model.sf(eps - t) for t in edges), 1.0]
    total = 0.0
    for i, level in enumerate(design.levels.tolist()):
        pos = upper[i] - upper[i + 1]
        neg = lower[i + 1] - lower[i]
        total += level * (pos - neg)
    return total


def mean_field_slope(design: QuantizerDesign) -> float:
    """Derivative of the mean field at zero error, -2 * sum(levels * drops).

    Equals minus the quantized Fisher information when the levels are the
    optimal drop/probability ratios.
    """
    return float(-2.0 * np.sum(design.levels * design.drops))


# ---- plain-text design tables ----------------------------------------


#: the keys of a design table, in the order ``save_design`` writes them
TABLE_KEYS = ("family", "beta", "delta", "n_intervals", "c_delta", "tau", "eta", "iq")


def save_design(path, model: NoiseModel, spec: QuantizerSpec,
                design: QuantizerDesign) -> None:
    """Persist a design as a key = value table (full float precision)."""
    values = (model.family.value, repr(model.beta), repr(model.delta),
              spec.n_intervals, repr(spec.c_delta),
              ",".join(repr(t) for t in spec.tau),
              ",".join(repr(float(v)) for v in design.levels),
              repr(float(design.info)))
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in zip(TABLE_KEYS, values))


#: relative distance allowed between a table's eta/iq and the recomputed design
LOAD_RTOL = 1e-9


def load_design(path):
    """Load a design table; returns (model, spec, design).

    The levels ``eta`` and the information ``iq`` must match, within
    ``LOAD_RTOL``, the design recomputed from the table's noise and
    geometry; the table's values are the ones returned.
    """
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    missing = [key for key in TABLE_KEYS if key not in kv]
    if missing:
        raise ValueError(f"{path}: design table lacks {', '.join(missing)}")
    model = NoiseModel(Family(kv["family"]), float(kv["beta"]), float(kv["delta"]))
    spec = QuantizerSpec(tuple(float(t) for t in kv["tau"].split(",") if t),
                         float(kv["c_delta"]))
    if int(kv["n_intervals"]) != spec.n_intervals:
        raise ValueError(f"n_intervals = {kv['n_intervals']} does not match the "
                         f"{len(spec.tau)} thresholds of tau")
    design = build_design(model, spec)
    levels = np.array([float(v) for v in kv["eta"].split(",")])
    if levels.shape != design.levels.shape or not np.all(np.isfinite(levels)):
        raise ValueError(f"eta must hold {spec.n_intervals // 2} finite levels, "
                         f"got {kv['eta']!r}")
    if np.any(np.abs(levels - design.levels) > LOAD_RTOL * np.abs(design.levels)):
        raise ValueError(f"eta {kv['eta']!r} does not match the levels "
                         f"{design.levels.tolist()} of the table's geometry")
    info = float(kv["iq"])
    if not abs(info - design.info) <= LOAD_RTOL * design.info:
        raise ValueError(f"iq {kv['iq']!r} does not match the information "
                         f"{design.info!r} of the table's geometry")
    return model, spec, replace(design, levels=levels, info=info)
