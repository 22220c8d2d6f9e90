"""Observation noise models: generalized Gaussian (GG) and Student's-t (ST).

Both families are symmetric, unimodal and parametrized by a shape ``beta``
and a scale ``delta``.  The scale enters through a pure change of variables:
``pdf(x; delta) = pdf_n(x / delta) / delta`` and
``cdf(x; delta) = cdf_n(x / delta)``, where the ``_n`` versions are the
normalized (delta = 1) functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .special import incomplete_beta_regularized, regularized_gamma_q


#: the smallest GG shape accepted: the gamma kernels of ``special`` hold
#: 1e-12 relative accuracy for shapes 1/beta up to 100
MIN_GG_BETA = 0.01

#: floats per scratch array of the GG sampler's (W, E) pairs: it works
#: through a block a few rows at a time (one row at least), so the scratch
#: is never a second matrix of the block's size
SCRATCH_ELEMENTS = 4096


class Family(str, Enum):
    GG = "gg"
    ST = "st"


@dataclass(frozen=True)
class NoiseModel:
    """Symmetric additive noise with shape ``beta`` and scale ``delta``."""

    family: Family
    beta: float
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.family is Family.GG and self.beta < MIN_GG_BETA:
            raise ValueError(f"GG beta must be >= MIN_GG_BETA = {MIN_GG_BETA}, "
                             f"got {self.beta}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    # ---- densities -------------------------------------------------

    def pdf(self, x):
        """Density f(x); a float for a float, an array for an array."""
        z = _row(x) / self.delta
        b = self.beta
        with np.errstate(over="ignore"):  # |z|**beta or z*z is inf: density 0
            if self.family is Family.GG:
                norm = b / (2.0 * math.gamma(1.0 / b))
                out = norm * np.exp(-np.abs(z) ** b)
            else:
                norm = math.exp(
                    math.lgamma((b + 1.0) / 2.0) - math.lgamma(b / 2.0)
                ) / math.sqrt(b * math.pi)
                out = norm * (1.0 + z * z / b) ** (-(b + 1.0) / 2.0)
        return _shaped(out / self.delta, x)

    def cdf(self, x):
        """Distribution function F(x) = sf(-x), as both families are symmetric."""
        return self.sf(-np.asarray(x, dtype=float))

    def sf(self, x):
        """Survival function 1 - F(x); a float for a float, an array for an array.

        Half the two-sided tail above 0 and one minus it below, so each
        side is accurate deep in its own tail.
        """
        with np.errstate(over="ignore"):  # |z|**beta or z*z is inf: tail 0
            z = _row(x) / self.delta
            half = 0.5 * self._tail(np.abs(z))
        return _shaped(np.where(z > 0.0, half, 1.0 - half), x)

    def _tail(self, az):
        """P(|V| > az) at the normalized points az >= 0, a 1-D array: one
        special-function call."""
        b = self.beta
        if self.family is Family.GG:
            return regularized_gamma_q(1.0 / b, az**b)
        return incomplete_beta_regularized(b / (az * az + b), b / 2.0, 0.5)

    def score(self, x):
        """Logarithmic density derivative f'(x)/f(x); a float for a float."""
        if self.family is Family.GG and self.beta <= 1.0:
            raise ValueError(
                "score is undefined at the origin for GG noise with beta <= 1"
            )
        z = _row(x) / self.delta
        b = self.beta
        with np.errstate(over="ignore"):  # |z|**(beta-1) or z*z is inf
            if self.family is Family.GG:
                out = -b * np.sign(z) * np.abs(z) ** (b - 1.0)
            else:
                den = b + z * z  # inf where z*z overflows: the score is -(b+1)/z
                with np.errstate(divide="ignore", invalid="ignore"):
                    out = np.where(np.isinf(den), -(b + 1.0) / z, -(b + 1.0) * z / den)
        return _shaped(out / self.delta, x)

    # ---- information and sampling ----------------------------------

    def fisher_continuous(self) -> float:
        """Fisher information of one continuous observation about location.

        For GG noise this is finite only for beta >= 1.  The beta = 1
        (Laplace) value 1/delta^2 is the known limit; the density is not
        differentiable at 0 there, so it is special-cased.
        """
        b = self.beta
        if self.family is Family.GG:
            if b < 1.0:
                raise ValueError(
                    f"Fisher information is not finite for GG noise with beta={b} < 1"
                )
            if b == 1.0:
                info_n = 1.0
            else:
                info_n = (
                    b
                    * (b - 1.0)
                    * math.exp(math.lgamma(1.0 - 1.0 / b) - math.lgamma(1.0 / b))
                )
        else:
            info_n = (b + 1.0) / (b + 3.0)
        return info_n / self.delta**2

    def sample(self, rng: np.random.Generator, size=None):
        """Draw an array of shape ``size`` of i.i.d. samples (one float when
        ``size`` is None): one row of ``sample_block`` in C order, with the
        same bits.  Draws split into pieces give the same values as drawn
        in one piece.
        """
        out = np.empty(() if size is None else size)
        self.sample_block([rng], out.reshape(1, -1))  # a view: fills ``out``
        return float(out) if size is None else out

    def sample_block(self, rngs, out: np.ndarray) -> np.ndarray:
        """Fill row i of the (rows, steps) float64 matrix ``out`` with i.i.d.
        samples drawn from ``rngs[i]``, and return ``out``.

        Each row's raw draws come from one numpy call that draws them one
        after another, so a row drawn in pieces gets the same values as
        drawn in one piece: the Monte Carlo engine draws each replication's
        noise in time blocks.  The family's transform and the scale are then
        applied to the whole matrix, by the GG sampler a few rows at a time
        (``SCRATCH_ELEMENTS``).

        GG, beta = 2: V = delta / sqrt(2) * Z with Z from ``standard_normal``.
        GG, other beta: V = delta * (2 e^(-E) - 1) * W^(1/beta), one
        ``standard_gamma`` call drawing the pairs W ~ Gamma(1 + 1/beta),
        E ~ Exp(1); 2 e^(-E) - 1 is uniform on (-1, 1) (Nardon and Pianca,
        J. Stat. Comput. Simul., 2009).
        ST, beta = 1 or 2: the inverse CDF at u from ``random``, taken at
        w = (2u - 1) + 2^-53, which is exact and an odd multiple of 2^-53
        strictly inside (-1, 1) for every u, 0 included:
        V = delta * tan(w pi/2) (Cauchy) or
        V = delta * w / sqrt((1 - w^2)/2), computed as
        delta * sqrt(2) * sinh(artanh w).  Both are finite, and odd in w
        bit for bit.
        ST, other beta: V = delta * T with T from ``standard_t``.
        """
        b, scale = self.beta, self.delta
        if self.family is Family.ST and b in (1.0, 2.0):
            for rng, row in zip(rngs, out):
                rng.random(out=row)
            out *= 2.0
            out -= 1.0 - 2.0**-53  # (2u - 1) + 2^-53, exactly
            if b == 1.0:
                out *= math.pi / 2.0
                np.tan(out, out=out)
            else:  # sqrt(2) sinh(artanh w), in place: no scratch
                np.arctanh(out, out=out)
                np.sinh(out, out=out)
                scale *= math.sqrt(2.0)
        elif self.family is Family.ST:
            for rng, row in zip(rngs, out):
                row[:] = rng.standard_t(b, size=len(row))
        elif b == 2.0:
            for rng, row in zip(rngs, out):
                rng.standard_normal(out=row)
            scale /= math.sqrt(2.0)
        else:
            _generalized_gaussian(rngs, out, b)
        if scale != 1.0:
            out *= scale
        return out


def _row(x) -> np.ndarray:
    """``x`` as a 1-D float array: a float is one element, so it runs
    through the same numpy loops as an array (numpy's scalar ``pow`` may
    differ from its array loop in the last bit)."""
    return np.asarray(x, dtype=float).reshape(-1)


def _shaped(out: np.ndarray, x):
    """``out``, computed on ``_row(x)``, in the shape of ``x``: a float
    for a 0-d ``x``."""
    shape = np.shape(x)
    return out.reshape(shape) if shape else float(out[0])


def _generalized_gaussian(rngs, out: np.ndarray, beta: float) -> None:
    """(2 e^(-E) - 1) W^(1/beta) into row i of ``out``, the pairs
    (W, E) ~ (Gamma(1 + 1/beta), Exp(1)) drawn from ``rngs[i]``."""
    shapes = np.array([1.0 + 1.0 / beta, 1.0])
    rows = max(1, min(len(out), SCRATCH_ELEMENTS // max(1, out.shape[1])))
    pairs = np.empty((rows, out.shape[1], 2))
    for j in range(0, len(out), rows):
        tile = out[j:j + rows]
        p = pairs[:len(tile)]
        for rng, row in zip(rngs[j:j + rows], p):
            rng.standard_gamma(shapes, out=row)
        np.negative(p[..., 1], out=tile)
        np.exp(tile, out=tile)
        tile *= 2.0
        tile -= 1.0
        tile *= np.power(p[..., 0], 1.0 / beta, out=p[..., 0])


def gg(beta: float, delta: float = 1.0) -> NoiseModel:
    return NoiseModel(Family.GG, beta, delta)


def st(beta: float, delta: float = 1.0) -> NoiseModel:
    return NoiseModel(Family.ST, beta, delta)


#: the seven shape configurations used throughout the loss evaluations
STANDARD_SHAPES = (
    (Family.GG, 1.5),
    (Family.GG, 2.0),
    (Family.GG, 2.5),
    (Family.GG, 3.0),
    (Family.ST, 1.0),
    (Family.ST, 2.0),
    (Family.ST, 3.0),
)
