import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from adaptquant import simulator
from adaptquant.noise import STANDARD_SHAPES, NoiseModel
from adaptquant.quantizer import design_uniform


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240815)


_DESIGN_CACHE = {}


@pytest.fixture(scope="session")
def cached_design():
    """design(family, beta, nbits, delta=1) with session-wide caching.

    The c_delta grid search is the expensive part; several test modules
    need the same handful of designs.
    """

    def _get(family, beta, nbits, delta=1.0):
        key = (family, beta, nbits, delta)
        if key not in _DESIGN_CACHE:
            model = NoiseModel(family, beta, delta)
            spec, design = design_uniform(model, 2**nbits)
            _DESIGN_CACHE[key] = (model, spec, design)
        return _DESIGN_CACHE[key]

    return _get


@pytest.fixture(scope="session")
def seven_noises():
    return [NoiseModel(fam, beta) for fam, beta in STANDARD_SHAPES]


@pytest.fixture(scope="session")
def fisher_quadrature():
    """Quadrature of (f'/f)^2 f over the real line, with f' a central
    difference of ``pdf``: an oracle for ``fisher_continuous`` that shares
    none of its closed forms."""

    def _integrate(model):
        h = 1e-6 * model.delta

        def integrand(x):
            f = model.pdf(x)
            if f == 0.0:
                return 0.0
            fp = (model.pdf(x + h) - model.pdf(x - h)) / (2.0 * h)
            return fp * fp / f

        total = 0.0
        # piecewise to help the adaptive rule near the peak and in the tails
        breaks = [0.0, 1.0, 5.0, 30.0, math.inf]
        for lo, hi in zip(breaks, breaks[1:]):
            total += quad(lambda x: integrand(x * model.delta) * model.delta,
                          lo, hi, limit=200)[0]
        return 2.0 * total  # even integrand

    return _integrate


@pytest.fixture
def forks(monkeypatch):
    """Make the engine split a chunk on any machine and record the children
    it forks; every one of them must have been waited for by the end of the
    test."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator.os, "fork", counting_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
