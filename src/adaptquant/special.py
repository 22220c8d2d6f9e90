"""Incomplete gamma and incomplete beta functions.

Self-contained implementations using the classic split: a power series for
small arguments and a modified Lentz continued fraction for large ones,
with the switch at x = a + 1 for the gamma function and at
x = (a + 1) / (a + b + 2) for the beta function.

The argument ``x`` may be a float or a numpy array; the shapes ``a`` and
``b`` are floats.  Both run on numpy: a float is a one-element array, and
returns a float.  The recurrences run elementwise and retire each element
once it has converged, so an element's value does not depend on the others
in its array, and a float call and an array call agree bit for bit.

Conventions:

* ``incomplete_gamma_lower(a, x)`` is the unregularized lower incomplete
  gamma, so ``incomplete_gamma_lower(a, inf) == gamma(a)``.
* ``incomplete_beta_regularized(x, a, b)`` is the regularized incomplete
  beta I_x(a, b), mapping [0, 1] onto [0, 1].
"""

import math

import numpy as np

_MAX_ITER = 500
_EPS = 3.0e-16
_TINY = 1.0e-300


def regularized_gamma_p(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    return _by_region(x, math.inf, (0.0, 1.0), a + 1.0,
                      lambda v: _gamma_p_series(a, v),
                      lambda v: 1.0 - _gamma_q_contfrac(a, v))


def regularized_gamma_q(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction for large x, so it stays
    accurate deep in the tail where 1 - P would cancel.
    """
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    return _by_region(x, math.inf, (1.0, 0.0), a + 1.0,
                      lambda v: 1.0 - _gamma_p_series(a, v),
                      lambda v: _gamma_q_contfrac(a, v))


def incomplete_gamma_lower(a: float, x):
    """Unregularized lower incomplete gamma gamma(a, x)."""
    return regularized_gamma_p(a, x) * math.gamma(a)


def incomplete_beta_regularized(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return _by_region(x, 1.0, (0.0, 1.0), (a + 1.0) / (a + b + 2.0),
                      lambda v: _beta_front(v, a, b) * _beta_contfrac(v, a, b) / a,
                      lambda v: 1.0 - _beta_front(v, a, b)
                      * _beta_contfrac(1.0 - v, b, a) / b)


def _by_region(x, upper, at_ends, switch, below, above):
    """Evaluate one of the functions above on its domain [0, upper].

    The endpoints 0 and ``upper`` take the values ``at_ends``; any other
    point goes to ``below`` under the switch point and to ``above`` from it
    on (NaN included), each side as one 1-D array.  A float (any 0-d input)
    is evaluated as a one-element array and returned as a float.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    bad = (flat < 0.0) | (flat > upper)
    if bad.any():
        raise ValueError(f"argument x must be in [0, {upper}], got {flat[bad][0]}")
    out = np.empty(flat.shape)
    at_zero, at_upper = flat == 0.0, flat == upper
    out[at_zero], out[at_upper] = at_ends
    inner = ~(at_zero | at_upper)
    under = flat < switch
    for part, fn in ((inner & under, below), (inner & ~under, above)):
        if part.any():
            out[part] = fn(flat[part])
    return out.reshape(x.shape) if x.ndim else float(out[0])


# The kernels below take a 1-D array and run one recurrence on all of its
# elements, retiring each through an ``_Active`` once it has converged.


class _Active:
    """The elements of an array iteration that are still running.

    Converged elements are written to the output and dropped from the
    iteration state, so none of them is updated again, and each element
    runs the iteration sequence it would run alone.
    """

    def __init__(self, n: int):
        self.index = np.arange(n)
        self.out = np.empty(n)

    def retire(self, done, value, *state):
        """Store ``value`` where ``done``; return the state without those."""
        self.out[self.index[done]] = value[done]
        keep = ~done
        self.index = self.index[keep]
        return [s[keep] for s in state]

    def finish(self, value):
        self.out[self.index] = value
        return self.out


def _floor_tiny(v):
    """The Lentz guard: |v| below ``_TINY`` becomes ``_TINY``."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _gamma_p_series(a, x):
    active = _Active(x.size)
    prefactor = np.exp(-x + a * np.log(x) - math.lgamma(a))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        done = abs(term) < abs(total) * _EPS
        if done.any():
            x, term, total = active.retire(done, total, x, term, total)
            if not x.size:
                break
    return active.finish(total) * prefactor


def _gamma_q_contfrac(a, x):
    active = _Active(x.size)
    prefactor = np.exp(-x + a * np.log(x) - math.lgamma(a))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = _floor_tiny(an * d + b)
        c = _floor_tiny(b + an / c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = abs(delta - 1.0) < _EPS
        if done.any():
            b, c, d, h = active.retire(done, h, b, c, d, h)
            if not h.size:
                break
    return active.finish(h) * prefactor


def _beta_front(x, a, b):
    return np.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * np.log(x)
        + b * np.log1p(-x)
    )


def _beta_contfrac(x, a, b):
    active = _Active(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _floor_tiny(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        delta = d * c
        h *= delta
        done = abs(delta - 1.0) < _EPS
        if done.any():
            x, c, d, h = active.retire(done, h, x, c, d, h)
            if not h.size:
                break
    return active.finish(h)
