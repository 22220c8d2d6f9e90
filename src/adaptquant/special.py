"""Incomplete gamma and incomplete beta functions.

Self-contained implementations using the classic split: a power series for
small arguments and a modified Lentz continued fraction for large ones,
with the switch at x = a + 1 for the gamma function and at
x = (a + 1) / (a + b + 2) for the beta function.

The argument ``x`` may be a float or a numpy array; the shapes ``a`` and
``b`` are floats.  Both run on numpy: a float is a one-element array, and
returns a float.

Each kernel runs one recurrence on a 1-D array of points, a few in-place
numpy calls per iteration for all of them.  A point retires at its first
converged iteration: its value is stored then, and the rest of its
iterations run on NaN and are dropped once at most half of the points are
still running.  So each point runs the operations it would run alone, in
the same order; its value does not depend on the others in its array, and
a float call and an array call agree bit for bit.

The beta function runs one continued fraction for both sides of its
switch: a point above it is the point 1 - x of I_{1-x}(b, a), by
I_x(a, b) = 1 - I_{1-x}(b, a).  The gamma continued fraction gives
Q(a, x) = e^(-x) x^a / Gamma(a) times a fraction that is positive and
finite, so where that prefactor underflows to 0 the value is +0.0 and its
fraction is not run.

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

# the constants the loops pass to ufuncs, as 0-d arrays: numpy converts a
# Python float operand anew on every call, at about half the cost of a
# one-element operation
_ONE_0D, _TINY_0D, _EPS_0D = (np.array(v) for v in (1.0, _TINY, _EPS))


def regularized_gamma_p(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    return _by_region(x, math.inf, (0.0, 1.0), a + 1.0,
                      _sides(lambda v: _gamma_p_series(a, v),
                             lambda v: 1.0 - _gamma_q_contfrac(a, v)))


def regularized_gamma_q(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction for large x, so it stays
    accurate deep in the tail where 1 - P would cancel.
    """
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    return _by_region(x, math.inf, (1.0, 0.0), a + 1.0,
                      _sides(lambda v: 1.0 - _gamma_p_series(a, v),
                             lambda v: _gamma_q_contfrac(a, v)))


def incomplete_gamma_lower(a: float, x):
    """Unregularized lower incomplete gamma gamma(a, x)."""
    return regularized_gamma_p(a, x) * math.gamma(a)


def incomplete_beta_regularized(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    return _by_region(x, 1.0, (0.0, 1.0), (a + 1.0) / (a + b + 2.0),
                      lambda v, k: _beta_inner(v, k, a, b))


def _by_region(x, upper, at_ends, switch, inner):
    """Evaluate one of the functions above on its domain [0, upper].

    The endpoints 0 and ``upper`` take the values ``at_ends``.  The other
    points go to ``inner(v, k)`` as one 1-D array ``v``: the ``k`` under
    the switch point first, then those from it on (NaN included).  A float
    (any 0-d input) is evaluated as a one-element array and returned as a
    float.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    bad = (flat < 0.0) | (flat > upper)
    if np.count_nonzero(bad):
        raise ValueError(f"argument x must be in [0, {upper}], got {flat[bad][0]}")
    out = np.empty(flat.shape)
    at_zero, at_upper = flat == 0.0, flat == upper
    out[at_zero], out[at_upper] = at_ends
    inner_points = ~(at_zero | at_upper)
    under = flat < switch
    below = np.flatnonzero(inner_points & under)
    at = np.concatenate((below, np.flatnonzero(inner_points & ~under)))
    if at.size:
        out[at] = inner(flat[at], below.size)
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _sides(below, above):
    """The ``inner`` of ``_by_region`` running ``below`` and ``above`` on
    the two sides of the switch, each only if it holds a point."""
    def inner(v, k):
        if k == v.size:
            return below(v)
        if not k:
            return above(v)
        return np.concatenate((below(v[:k]), above(v[k:])))
    return inner


# The kernels below take a nonempty 1-D array and run one recurrence on all
# of its elements, retiring each through an ``_Active`` once it has
# converged.


class _Active:
    """The rows of an array iteration and the values of those retired.

    ``retire`` stores a row's value at its first converged iteration and
    sets its ``guard`` state variable to NaN.  NaN runs through every later
    operation of the row and never tests converged, so the row is not
    stored again, and no row's operations depend on another's.  A row whose
    guard turned NaN by itself is NaN from then on and never converges; its
    value is the NaN ``out`` starts with.
    """

    def __init__(self, n: int):
        self.out = np.full(n, np.nan)
        self.index = np.arange(n)
        self.running = n

    def retire(self, done, count, value, guard, state):
        """Store ``value`` at the ``count`` rows ``done`` and NaN their guard.

        Returns ``state``, cut to the rows whose guard is not NaN once at
        most half of its rows are still running: each entry is an array
        with the rows along its last axis, ``guard`` a view into one of
        them.
        """
        self.out[self.index[done]] = value[done]
        guard[done] = np.nan
        self.running -= count
        if not self.running or 2 * self.running > guard.size:
            return state
        keep = ~np.isnan(guard)
        self.index = self.index[keep]
        self.running = self.index.size
        return [s.compress(keep, axis=-1) for s in state]

    def finish(self, value, guard):
        """``out``, with ``value`` at the rows not yet retired."""
        if self.running:
            live = ~np.isnan(guard)
            self.out[self.index[live]] = value[live]
        return self.out


def _floor_tiny(v):
    """The Lentz guard, in place: |v| below ``_TINY`` becomes ``_TINY``."""
    small = np.less(np.abs(v), _TINY_0D)
    if np.count_nonzero(small):
        v[small] = _TINY


def _converged(delta):
    """|delta - 1| < ``_EPS``, taken in place in ``delta``."""
    np.subtract(delta, _ONE_0D, delta)
    return np.less(np.abs(delta, delta), _EPS_0D)


# The loops below call the ufuncs with an ``out`` array rather than
# through ``*=`` and the like, which cost twice as much on a few elements.


def _gamma_prefactor(a, x):
    return np.exp(-x + a * np.log(x) - math.lgamma(a))


def _gamma_p_series(a, x):
    prefactor = _gamma_prefactor(a, x)
    active = _Active(x.size)
    ap = a
    term = np.full(x.size, 1.0 / a)
    total = term.copy()
    for _ in range(_MAX_ITER):
        ap += 1.0
        np.multiply(term, x / ap, term)
        np.add(total, term, total)
        # no abs: x > 0, so every term and the total are positive
        done = np.less(term, np.multiply(total, _EPS_0D))
        count = np.count_nonzero(done)
        if count:
            x, term, total = active.retire(done, count, total, term, (x, term, total))
            if not active.running:
                break
    return active.finish(total, term) * prefactor


def _gamma_q_contfrac(a, x):
    prefactor = _gamma_prefactor(a, x)
    run = prefactor != 0.0
    if np.count_nonzero(run) == x.size:
        return _gamma_q_fraction(a, x) * prefactor
    # the fraction is positive and finite, so these values are 0 * h = +0.0
    out = np.zeros(x.size)
    if np.count_nonzero(run):
        out[run] = _gamma_q_fraction(a, x[run]) * prefactor[run]
    return out


def _gamma_q_fraction(a, x):
    active = _Active(x.size)
    b = x + 1.0 - a
    dc = np.empty((2, x.size))  # the Lentz d and c as rows, one guard for both
    d, c = dc
    np.divide(1.0, b, d)
    h = d.copy()
    c.fill(1.0 / _TINY)
    for i in range(1, _MAX_ITER + 1):
        np.add(b, 2.0, b)
        done = _converged(_lentz_step(-i * (i - a), b, dc, d, c, h))
        count = np.count_nonzero(done)
        if count:
            b, dc, h = active.retire(done, count, h, d, (b, dc, h))
            if not active.running:
                break
            d, c = dc
    return active.finish(h, d)


def _lentz_step(an, bn, dc, d, c, h):
    """One modified Lentz step, in place: d = 1 / (an d + bn) and
    c = bn + an / c, each with the guard, then h *= d c; returns d c.
    ``d`` and ``c`` are the rows of ``dc``.  Floating-point sums and
    products commute, so d an + bn has the bits of an d + bn."""
    np.multiply(d, an, d)
    np.divide(an, c, c)
    np.add(dc, bn, dc)
    _floor_tiny(dc)
    np.divide(_ONE_0D, d, d)
    delta = np.multiply(d, c)
    np.multiply(h, delta, h)
    return delta


def _beta_inner(v, k, a, b):
    """I_v(a, b) at the ``k`` points under the switch, then at those above."""
    front = np.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * np.log(v)
        + b * np.log1p(-v)
    )
    w = v.copy()
    np.subtract(1.0, v[k:], out=w[k:])
    out = front * _beta_contfrac(w, k, a, b)
    out[:k] /= a
    out[k:] /= b
    np.subtract(1.0, out[k:], out=out[k:])
    return out


def _beta_contfrac(x, k, a, b):
    """The fraction of I_x(a, b) at the rows ``[:k]`` and of I_x(b, a) at
    the others."""
    active = _Active(x.size)
    k0 = k
    qab = a + b
    dc = np.empty((2, x.size))  # the Lentz d and c as rows, one guard for both
    d, c = dc
    aa = np.empty(x.size)
    sides = _beta_sides(x, aa, k, a, b)
    for p, q, xs, part in sides:
        np.multiply(xs, qab, part)
        np.divide(part, p + 1.0, part)
    np.subtract(_ONE_0D, aa, d)
    _floor_tiny(d)
    np.divide(_ONE_0D, d, d)
    h = d.copy()
    c.fill(1.0)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for p, q, xs, part in sides:
            np.multiply(xs, m * (q - m), part)
            np.divide(part, (p - 1.0 + m2) * (p + m2), part)
        _lentz_step(aa, _ONE_0D, dc, d, c, h)
        for p, q, xs, part in sides:
            np.multiply(xs, -(p + m) * (qab + m), part)
            np.divide(part, (p + m2) * (p + 1.0 + m2), part)
        done = _converged(_lentz_step(aa, _ONE_0D, dc, d, c, h))
        count = np.count_nonzero(done)
        if count:
            x, dc, h, aa = active.retire(done, count, h, d, (x, dc, h, aa))
            if not active.running:
                break
            d, c = dc
            # rows keep their order: the first side is those among the first k0
            k = int(np.searchsorted(active.index, k0))
            sides = _beta_sides(x, aa, k, a, b)
    return active.finish(h, d)


def _beta_sides(x, aa, k, a, b):
    """(p, q, x rows, aa rows) for each side holding a row: the shapes
    (a, b) at the rows [:k], (b, a) at the others."""
    return [(p, q, x[rows], aa[rows])
            for p, q, rows in ((a, b, slice(0, k)), (b, a, slice(k, x.size)))
            if rows.start < rows.stop]
