"""Reference kernel: a fixed piece of work timed between ops and set-ups.

A shared virtual machine changes speed for seconds to minutes at a time
(on the 2-vCPU guest the benchmark was written on, a fixed pure-Python
loop took between 6 and 12 ms depending on the minute).  Op wall times
inherit that swing, so their spread across runs says more about the host
than about the program.  The benchmark therefore times this kernel right
before and after every op and reports op time at a fixed machine speed:

    ref_seconds = op_seconds * NOMINAL_S / (mean kernel time around the op)

The kernel mixes the kinds of work the workloads do: an interpreter loop,
small-object churn through a frozen dataclass with numpy scalar indexing
(the online estimator's pattern), a numpy sort and a memory-streaming
numpy reduction.  It never calls the package, so a change to the program
moves op times and leaves the kernel alone.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

#: kernel time that defines the reference speed: roughly its time on an
#: idle 2-vCPU Intel Xeon (family 6 model 143) KVM guest.  A reference
#: second is a wall second scaled to a machine that runs the kernel in
#: exactly this long.
NOMINAL_S = 4.0e-3


@dataclasses.dataclass(frozen=True)
class _State:
    x: float = 0.0
    k: int = 0


class Reference:
    """The kernel's inputs, made once; ``seconds()`` times one kernel run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(50_000)
        self.big = rng.standard_normal(500_000)
        self.levels = np.array([0.3, 0.9, 1.7, 2.9])
        self.ys = rng.standard_normal(1000).tolist()

    def seconds(self) -> float:
        """One timed kernel run, after an untimed one that refills the
        caches the op before it evicted; so the figure does not depend on
        how much memory the program touches."""
        self._run()
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def _run(self) -> None:
        s = 0
        for i in range(20_000):
            s += i * i
        np.sort(self.small)
        state = _State()
        for y in self.ys:
            d = y - state.x
            j = min(int(abs(d) * 2.0), 3)
            state = dataclasses.replace(
                state, x=state.x + 0.01 * math.copysign(1.0, d) * self.levels[j],
                k=state.k + 1)
        float((self.big * self.big).sum())
