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
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .estimator import direction, signed_levels
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

#: the most grid points x N/2 (the edges and 0) that the c_delta search
#: takes, and the most that its geometry cache holds in all: a search's
#: peak RSS grows by 53-78 bytes each (measured at 2**21, 2 to 10 bits), so
#: this cap holds it to about 0.2 GB above the interpreter.  The cache keeps
#: what it holds for the life of the process: 4 bytes per edge (the index),
#: 8 per distinct edge and 8 per grid point (the key), at most 16 per edge
#: from 2 bits on; 15-24 MiB after one search at the cap (measured)
MAX_SEARCH_ELEMENTS = 2**21


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
    signed    : ``estimator.signed_levels(levels)``, the table that
                ``estimator.direction`` reads; set from ``levels`` here,
                so ``replace(design, levels=...)`` renews it
    """

    probs: np.ndarray
    drops: np.ndarray
    levels: np.ndarray
    info: float
    thresholds: np.ndarray
    signed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "signed", signed_levels(self.levels))


def quantize(y: float, offset: float, spec: QuantizerSpec, step: float) -> int:
    """Quantize one observation to a signed symbol in {-N/2..-1, +1..+N/2}.

    The symbol is the signed rank of the cell that ``estimator.direction``
    finds for y - offset among the edges ``spec.tau * step``; with the step
    c_delta * delta they are ``design.thresholds``.  The tie y == offset
    maps to +1, so the output is deterministic and never 0.  A non-finite
    y or offset raises ValueError.
    """
    if not (math.isfinite(y) and math.isfinite(offset)):
        raise ValueError(f"observation and offset must be finite, got {y}, {offset}")
    ranks = np.arange(1, spec.n_intervals // 2 + 1)
    return int(direction(y - offset, np.asarray(spec.tau) * step, signed_levels(ranks)))


class SearchGeometry(NamedTuple):
    """The cell edges of a c_delta search, each distinct float once.

    ``points`` holds the distinct values of the (grid points, N/2) edge
    matrix, its column of 0 included, in ascending order; ``where`` is that
    matrix as int32 indices into ``points``.  Both arrays are read-only.
    """

    points: np.ndarray
    where: np.ndarray


def interval_stats(model: NoiseModel, thresholds, shift=0.0):
    """Cell masses and density drops of the positive cells at the error ``shift``.

    ``thresholds`` holds absolute finite positive cell edges t_1 < ... along
    the last axis: shape (N/2 - 1,) for one design or (rows, N/2 - 1) for
    many; ``shift``, a float or a column of errors, broadcasts against the
    leading shape.  With t_0 = 0 and t_{N/2} = +inf, returns (probs, drops):
    probs[..., i] = sf(shift + t_i) - sf(shift + t_{i+1}) and
    drops[..., i] = f(shift + t_i) - f(shift + t_{i+1}), with f(inf) = 0.
    The noise is symmetric: negative cell i's mass at ``shift`` is positive
    cell i's at ``-shift``.  One ``sf`` and one ``pdf`` call cover every
    row; degenerate rows are returned, not rejected.

    ``thresholds`` may instead be a ``SearchGeometry`` (``shift`` a float):
    the one ``sf`` and one ``pdf`` call then take each distinct edge once,
    and every row is gathered from their values.  Each value of ``sf`` and
    ``pdf`` does not depend on the other points of its array, so the rows
    have the bits that the full edge matrix gives.
    """
    if isinstance(thresholds, SearchGeometry):
        points, where = thresholds
        # one value per distinct edge: gather the rows (take, since [] would
        # first cast the int32 index to intp)
        gather = partial(np.take, indices=where)
    else:
        thresholds = np.asarray(thresholds, dtype=float)
        column = np.zeros(thresholds.shape[:-1] + (1,))  # the edge 0
        points, gather = np.concatenate((column, thresholds), axis=-1), np.asarray
    edges = shift + points  # x + 0.0 == x
    probs = -np.diff(gather(model.sf(edges)), append=0.0)  # sf and pdf are 0 at the edge inf
    drops = -np.diff(gather(model.pdf(edges)), append=0.0)
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


def mean_field_slope_general(levels, drops) -> float:
    """Mean-field derivative at zero error, -2 * sum(levels * drops), for
    any levels: the levels of one design may meet another noise's drops."""
    return float(-2.0 * np.sum(np.asarray(levels) * np.asarray(drops)))


def _design(probs, drops, thresholds) -> QuantizerDesign:
    """The design of one row of cell masses and density drops."""
    return QuantizerDesign(probs, drops, optimal_levels(probs, drops),
                           fisher_quantized(probs, drops), thresholds)


def build_design(model: NoiseModel, spec: QuantizerSpec) -> QuantizerDesign:
    thresholds = np.asarray(spec.tau) * (spec.c_delta * model.delta)
    return _design(*interval_stats(model, thresholds), thresholds)


#: the geometries of recent searches, oldest first, keyed by (N/2 - 1,
#: delta, the grid's values); together they hold at most
#: ``MAX_SEARCH_ELEMENTS`` edges
_GEOMETRIES: dict = {}
_GEOMETRIES_LOCK = threading.Lock()


def _search_geometry(tau: np.ndarray, values: np.ndarray, delta: float) -> SearchGeometry:
    """The ``SearchGeometry`` of the edges tau * (values * delta), cached.

    The edges depend on the number of intervals, the grid and the noise
    scale but not on the noise's shape, so every search of one bit count on
    one grid and scale shares an entry.  A new entry evicts the oldest ones
    until the cache holds at most ``MAX_SEARCH_ELEMENTS`` edges.
    """
    key = (tau.size, float(delta), values.tobytes())
    with _GEOMETRIES_LOCK:
        geometry = _GEOMETRIES.get(key)
    if geometry is not None:
        return geometry
    edges = np.zeros((values.size, tau.size + 1))  # the column of 0 first
    edges[:, 1:] = tau * (values * delta)[:, None]  # as build_design: tau * (c * delta)
    points, where = np.unique(edges, return_inverse=True)
    geometry = SearchGeometry(points, where.astype(np.int32).reshape(edges.shape))
    for array in geometry:
        array.flags.writeable = False
    with _GEOMETRIES_LOCK:
        if key in _GEOMETRIES:  # another thread built it meanwhile
            return _GEOMETRIES[key]
        held = sum(entry.where.size for entry in _GEOMETRIES.values())
        while _GEOMETRIES and held + edges.size > MAX_SEARCH_ELEMENTS:
            held -= _GEOMETRIES.pop(next(iter(_GEOMETRIES))).where.size
        _GEOMETRIES[key] = geometry  # optimize_cdelta's size check: it fits
    return geometry


def optimize_cdelta(model: NoiseModel, n_intervals: int, grid=DEFAULT_CDELTA_GRID):
    """Grid-search the step constant maximizing the quantized information.

    Uses unit-spaced normalized thresholds.  The whole grid is evaluated in
    one ``interval_stats`` call, one row of edges per grid point, on the
    cached ``SearchGeometry`` of the grid: one ``sf`` and one ``pdf`` call
    take each distinct edge once.  Ties
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
    tau = np.asarray(QuantizerSpec.uniform(n_intervals, lo).tau)
    rows = (hi + step / 2 - lo) / step  # np.arange's length, before rounding up
    if not rows * (n_intervals // 2) <= MAX_SEARCH_ELEMENTS:  # inf and NaN too
        raise ValueError(f"c_delta grid {grid} has {rows:.3g} points; at "
                         f"{n_intervals} intervals the search takes at most "
                         f"{MAX_SEARCH_ELEMENTS // (n_intervals // 2)}")
    values = np.round(np.arange(lo, hi + step / 2, step), 12)
    if values.size == 0:
        raise ValueError(f"empty c_delta grid {grid}")
    probs, drops = interval_stats(model, _search_geometry(tau, values, model.delta))
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


def mean_field(model: NoiseModel, design: QuantizerDesign, eps):
    """Expected update direction as a function of the estimation error.

    Zero at eps = 0; negative for eps > 0 and positive for eps < 0 for any
    valid symmetric design, which is what makes the recursion stable.

    ``eps`` is a float (a float is returned) or an array of errors (an
    array of their values).  The cell masses come from one ``interval_stats``
    call on the stacked errors (eps, -eps), so the mean field is exactly odd
    and, with finite levels, exactly 0 at eps = 0.
    """
    eps = np.asarray(eps, dtype=float)
    probs, _ = interval_stats(model, design.thresholds, np.append(eps, -eps)[:, None])
    # a positive cell's mass minus its mirror's, times its level
    total = np.sum(design.levels * (probs[:eps.size] - probs[eps.size:]), axis=1)
    return total.reshape(eps.shape) if eps.ndim else float(total[0])


def mean_field_slope(design: QuantizerDesign) -> float:
    """``mean_field_slope_general`` at the design's own levels and drops:
    minus the quantized Fisher information when the levels are the
    optimal drop/probability ratios."""
    return mean_field_slope_general(design.levels, design.drops)


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

    def parse(key, convert):
        try:
            return convert(kv[key])
        except ValueError as exc:
            raise ValueError(f"{path}: {key} = {kv[key]!r}: {exc}") from exc

    model = NoiseModel(parse("family", Family), parse("beta", float),
                       parse("delta", float))
    tau = parse("tau", lambda text: tuple(float(v) for v in text.split(",") if v))
    spec = QuantizerSpec(tau, parse("c_delta", float))
    if parse("n_intervals", int) != spec.n_intervals:
        raise ValueError(f"n_intervals = {kv['n_intervals']} does not match the "
                         f"{len(spec.tau)} thresholds of tau")
    design = build_design(model, spec)
    levels = np.array(parse("eta", lambda text: [float(v) for v in text.split(",")]))
    if levels.shape != design.levels.shape or not np.all(np.isfinite(levels)):
        raise ValueError(f"eta must hold {spec.n_intervals // 2} finite levels, "
                         f"got {kv['eta']!r}")
    if np.any(np.abs(levels - design.levels) > LOAD_RTOL * np.abs(design.levels)):
        raise ValueError(f"eta {kv['eta']!r} does not match the levels "
                         f"{design.levels.tolist()} of the table's geometry")
    info = parse("iq", float)
    if not abs(info - design.info) <= LOAD_RTOL * design.info:
        raise ValueError(f"iq {kv['iq']!r} does not match the information "
                         f"{design.info!r} of the table's geometry")
    return model, spec, replace(design, levels=levels, info=info)
