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

from .special import (
    incomplete_beta_regularized,
    regularized_gamma_p,
    regularized_gamma_q,
)


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
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    # ---- densities -------------------------------------------------

    def pdf(self, x):
        """Density f(x); accepts scalars or arrays."""
        z = np.asarray(x, dtype=float) / self.delta
        if self.family is Family.GG:
            norm = self.beta / (2.0 * math.gamma(1.0 / self.beta))
            out = norm * np.exp(-np.abs(z) ** self.beta)
        else:
            b = self.beta
            norm = math.exp(
                math.lgamma((b + 1.0) / 2.0) - math.lgamma(b / 2.0)
            ) / math.sqrt(b * math.pi)
            out = norm * (1.0 + z * z / b) ** (-(b + 1.0) / 2.0)
        out = out / self.delta
        return float(out) if np.isscalar(x) else out

    def cdf(self, x):
        """Distribution function F(x); accepts scalars or arrays."""
        if isinstance(x, float) or np.isscalar(x):
            return self._cdf_normalized(float(x) / self.delta)
        with np.errstate(over="ignore"):  # |z|**beta or z*z is inf, as for a float
            return self._cdf_normalized(np.asarray(x, dtype=float) / self.delta)

    def _cdf_normalized(self, z):
        if not isinstance(z, float):
            return 0.5 * (1.0 + np.sign(z) * self._tail(np.abs(z), False))
        if math.isnan(z):
            return math.nan
        if z == 0.0:
            return 0.5
        sign = 1.0 if z > 0.0 else -1.0
        return 0.5 * (1.0 + sign * self._tail(abs(z), False))

    def sf(self, x):
        """Survival function 1 - F(x), accurate deep in the upper tail."""
        if isinstance(x, float) or np.isscalar(x):
            return self._sf_normalized(float(x) / self.delta)
        with np.errstate(over="ignore"):  # |z|**beta or z*z is inf, as for a float
            return self._sf_normalized(np.asarray(x, dtype=float) / self.delta)

    def _sf_normalized(self, z):
        if not isinstance(z, float):
            out = np.empty(z.shape)
            upper = z > 0.0
            out[upper] = 0.5 * self._tail(z[upper], True)
            out[~upper] = 1.0 - self._cdf_normalized(z[~upper])
            return out
        if z <= 0.0:
            return 1.0 - self._cdf_normalized(z)
        if math.isinf(z):
            return 0.0
        return 0.5 * self._tail(z, True)

    def _tail(self, az, upper: bool):
        """P(|V| > az) if ``upper``, else P(|V| <= az), at the normalized
        point az >= 0 (a float or an array): one special-function call."""
        b = self.beta
        if self.family is Family.GG:
            if isinstance(az, float):
                arg = math.inf if az > 1e150 else az**b
            else:
                arg = np.where(az > 1e150, np.inf, az**b)
            return (regularized_gamma_q if upper else regularized_gamma_p)(1.0 / b, arg)
        tail = incomplete_beta_regularized(b / (az * az + b), b / 2.0, 0.5)
        return tail if upper else 1.0 - tail

    def score(self, x):
        """Logarithmic density derivative f'(x)/f(x)."""
        if self.family is Family.GG and self.beta <= 1.0:
            raise ValueError(
                "score is undefined at the origin for GG noise with beta <= 1"
            )
        z = np.asarray(x, dtype=float) / self.delta
        b = self.beta
        if self.family is Family.GG:
            out = -b * np.sign(z) * np.abs(z) ** (b - 1.0)
        else:
            out = -(b + 1.0) * z / (b + z * z)
        out = out / self.delta
        return float(out) if np.isscalar(x) else out

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
        """Draw i.i.d. samples.

        GG: |V| = delta * G^(1/beta) with G ~ Gamma(1/beta), random sign.
        ST: V = delta * Z / sqrt(C/beta) with Z standard normal and C
        chi-square with beta degrees of freedom.
        """
        b = self.beta
        n = 1 if size is None else size
        if self.family is Family.GG:
            g = rng.gamma(1.0 / b, size=n)
            sign = rng.integers(0, 2, size=n) * 2 - 1
            out = self.delta * sign * g ** (1.0 / b)
        else:
            z = rng.standard_normal(n)
            c = rng.chisquare(b, size=n)
            out = self.delta * z / np.sqrt(c / b)
        return float(out[0]) if size is None else out


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
