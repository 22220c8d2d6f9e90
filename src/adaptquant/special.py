"""Incomplete gamma and incomplete beta functions.

Self-contained implementations using the classic split: a power series for
small arguments and a modified Lentz continued fraction for large ones,
with the switch at x = a + 1 for the gamma function and at
x = (a + 1) / (a + b + 2) for the beta function.

The argument ``x`` may be a float or a numpy array; the shapes ``a`` and
``b`` are floats.  A float runs on plain Python floats and ``math``.  An
array runs the same recurrences elementwise and retires each element once
it has converged, so every element goes through exactly the scalar
iteration sequence.  Only the prefactors differ: numpy's ``exp``/``log``/
``log1p`` may differ from libm in the last bit.

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
                      lambda v, active: _gamma_p_series(a, v, active),
                      lambda v, active: 1.0 - _gamma_q_contfrac(a, v, active))


def regularized_gamma_q(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction for large x, so it stays
    accurate deep in the tail where 1 - P would cancel.
    """
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    return _by_region(x, math.inf, (1.0, 0.0), a + 1.0,
                      lambda v, active: 1.0 - _gamma_p_series(a, v, active),
                      lambda v, active: _gamma_q_contfrac(a, v, active))


def incomplete_gamma_lower(a: float, x):
    """Unregularized lower incomplete gamma gamma(a, x)."""
    return regularized_gamma_p(a, x) * math.gamma(a)


def incomplete_beta_regularized(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return _by_region(x, 1.0, (0.0, 1.0), (a + 1.0) / (a + b + 2.0),
                      lambda v, active: _beta_front(v, a, b)
                      * _beta_contfrac(v, a, b, active) / a,
                      lambda v, active: 1.0 - _beta_front(v, a, b)
                      * _beta_contfrac(1.0 - v, b, a, active) / b)


def _by_region(x, upper, at_ends, switch, below, above):
    """Evaluate one of the functions above on its domain [0, upper].

    The endpoints 0 and ``upper`` take the values ``at_ends``; any other
    point goes to ``below`` under the switch point and to ``above`` from it
    on (NaN included).  A float is passed on as it is, with no ``_Active``;
    an array is split into the two sides, each passed on as one 1-D array
    with its own ``_Active``.
    """
    if not isinstance(x, np.ndarray):
        if x < 0.0 or x > upper:
            raise ValueError(f"argument x must be in [0, {upper}], got {x}")
        if x == 0.0:
            return at_ends[0]
        if x == upper:
            return at_ends[1]
        return (below if x < switch else above)(x, None)
    x = np.asarray(x, dtype=float)
    bad = (x < 0.0) | (x > upper)
    if bad.any():
        raise ValueError(f"argument x must be in [0, {upper}], got {x[bad].flat[0]}")
    out = np.empty(x.shape)
    at_zero, at_upper = x == 0.0, x == upper
    out[at_zero], out[at_upper] = at_ends
    inner = ~(at_zero | at_upper)
    under = x < switch
    for part, fn in ((inner & under, below), (inner & ~under, above)):
        if part.any():
            v = x[part]
            out[part] = fn(v, _Active(v.size))
    return out


# The kernels below take a float, or a 1-D array with the ``_Active`` that
# tracks it.  Only the Lentz guards and the convergence test dispatch on
# which, through a local flag, so both run one recurrence and a float never
# touches numpy: scalar mean-field integrations run these loops millions of
# times.


class _Active:
    """The elements of an array iteration that are still running.

    Converged elements are written to the output and dropped from the
    iteration state, so none of them is updated again.
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
    """Array form of the Lentz guard ``if abs(v) < _TINY: v = _TINY``."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _gamma_p_series(a, x, active=None):
    scalar = active is None
    xp = math if scalar else np
    prefactor = xp.exp(-x + a * xp.log(x) - math.lgamma(a))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if scalar:
            if abs(term) < abs(total) * _EPS:
                break
        else:
            done = abs(term) < abs(total) * _EPS
            if done.any():
                x, term, total = active.retire(done, total, x, term, total)
                if not x.size:
                    break
    if not scalar:
        total = active.finish(total)
    return total * prefactor


def _gamma_q_contfrac(a, x, active=None):
    scalar = active is None
    xp = math if scalar else np
    prefactor = xp.exp(-x + a * xp.log(x) - math.lgamma(a))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        if scalar:
            if abs(d) < _TINY:
                d = _TINY
            if abs(c) < _TINY:
                c = _TINY
        else:
            d, c = _floor_tiny(d), _floor_tiny(c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if scalar:
            if abs(delta - 1.0) < _EPS:
                break
        else:
            done = abs(delta - 1.0) < _EPS
            if done.any():
                b, c, d, h = active.retire(done, h, b, c, d, h)
                if not h.size:
                    break
    if not scalar:
        h = active.finish(h)
    return h * prefactor


def _beta_front(x, a, b):
    xp = np if isinstance(x, np.ndarray) else math
    return xp.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * xp.log(x)
        + b * xp.log1p(-x)
    )


def _beta_contfrac(x, a, b, active=None):
    scalar = active is None
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if scalar:
        if abs(d) < _TINY:
            d = _TINY
    else:
        d = _floor_tiny(d)
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        if scalar:
            if abs(d) < _TINY:
                d = _TINY
            if abs(c) < _TINY:
                c = _TINY
        else:
            d, c = _floor_tiny(d), _floor_tiny(c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        if scalar:
            if abs(d) < _TINY:
                d = _TINY
            if abs(c) < _TINY:
                c = _TINY
        else:
            d, c = _floor_tiny(d), _floor_tiny(c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if scalar:
            if abs(delta - 1.0) < _EPS:
                break
        else:
            done = abs(delta - 1.0) < _EPS
            if done.any():
                x, c, d, h = active.retire(done, h, x, c, d, h)
                if not h.size:
                    break
    if not scalar:
        h = active.finish(h)
    return h
