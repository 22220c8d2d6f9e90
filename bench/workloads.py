"""The benchmark's workloads: inputs made from a seed, one op, output checks.

An op is one call of a public entry point of the package.  Ops are issued
in passes (a pass is the smallest group of ops with a balanced input mix),
back to back from one client.  Every op returns an output record; checks
run on those records after the timed loop, so the checkers (scipy among
them) neither take op time nor raise the workload's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adaptquant import cli, estimator
from adaptquant.analysis import PerformancePrediction
from adaptquant.estimator import EstimatorState, GainSchedule, ScheduleKind
from adaptquant.noise import gg
from adaptquant.quantizer import DEFAULT_CDELTA_GRID, design_uniform


@dataclass
class Op:
    """One op's input and, after it ran, its output record."""

    args: object
    units: int                 # replication-steps (design: grid points)
    label: str = ""
    seconds: float = 0.0
    ref_seconds: float = 0.0   # reference kernel time around the op
    traced: bool = False
    output: object = None
    error: str | None = None
    io_bytes: int = 0


def _cli(argv) -> int:
    """Run the command in-process, its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Interface every workload implements; ``name`` and ``pass_size``
    (ops per pass) are set by each."""

    def setup(self, seed: int, work_dir: Path) -> None:
        """Make the run's inputs from the seed (no op is run here)."""
        raise NotImplementedError

    def next_pass(self) -> list[Op]:
        raise NotImplementedError

    def run_op(self, op: Op, out_dir: Path):
        """The timed call; returns the raw output record."""
        raise NotImplementedError

    def shrink(self, op: Op):
        """Untimed, right after the op: the part of its output the check
        needs, so that kept outputs do not grow the run's memory."""
        return op.output

    def check(self, op: Op) -> str | None:
        """None when the op's output is correct, else why it is not."""
        raise NotImplementedError

    def run_checks(self, ops: list[Op]) -> list[tuple[str, str | None]]:
        """Untimed per-run checks, each one more op: [(what, error)]."""
        return []


# ---- design_table --------------------------------------------------------


#: I_q printed by the design command must match scipy within this share
IQ_RTOL = 1e-9

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_values(grid):
    lo, hi, step = grid
    return np.round(np.arange(lo, hi + step / 2, step), 12)


def scipy_info(family: str, beta: float, nbits: int, c_delta: float) -> float:
    """Quantized Fisher information at unit-spaced thresholds, from scipy."""
    from scipy import stats

    dist = stats.gennorm(beta) if family == "gg" else stats.t(beta)
    edges = c_delta * np.arange(2 ** nbits // 2)
    sf = np.append(dist.sf(edges), 0.0)
    pdf = np.append(dist.pdf(edges), 0.0)
    probs, drops = -np.diff(sf), -np.diff(pdf)
    return float(2.0 * np.sum(drops ** 2 / probs))


@dataclass
class DesignTable(Workload):
    """``design`` for both families and nbits 1..5, beta drawn per op."""

    name = "design_table"
    nbits: tuple = (1, 2, 3, 4, 5)
    grid: tuple = DEFAULT_CDELTA_GRID
    beta_range: dict = field(default_factory=lambda: {"gg": (1.5, 3.0),
                                                     "st": (1.0, 3.0)})

    @property
    def pass_size(self):
        return 2 * len(self.nbits)

    def setup(self, seed, work_dir):
        rng = np.random.default_rng([seed, 1])
        self.phase = {family: float(rng.random()) for family in self.beta_range}
        self.drawn = 0
        self.grid_points = len(_grid_values(self.grid))

    def next_pass(self):
        # beta = lo + (hi - lo) * frac(phase + k / golden ratio): never
        # repeats, and fills the range evenly however many passes a run
        # makes, so op-cost differences between betas do not move the
        # run's median; the seed sets the phase
        ops = []
        for nb in self.nbits:
            for family, (lo, hi) in self.beta_range.items():
                u = (self.phase[family] + self.drawn * _INV_GOLDEN) % 1.0
                beta = lo + (hi - lo) * u
                ops.append(Op((family, beta, nb), self.grid_points,
                              f"{family} beta={beta!r} nbits={nb}"))
            self.drawn += 1
        return ops

    def run_op(self, op, out_dir):
        family, beta, nb = op.args
        rc = _cli(["design", "--noise", family, "--beta", repr(beta),
                   "--nbits", str(nb), "--grid-min", repr(self.grid[0]),
                   "--grid-max", repr(self.grid[1]),
                   "--grid-step", repr(self.grid[2]), "--out", str(out_dir)])
        if rc != 0:
            return rc, None
        (table,) = out_dir.glob("design_*.txt")
        return rc, _read_kv(table)

    def expected_info(self, family, beta, nb, c_delta):
        return scipy_info(family, beta, nb, c_delta)

    def check(self, op):
        rc, table = op.output
        if rc != 0:
            return f"exit code {rc}"
        family, beta, nb = op.args
        c = float(table["c_delta"])
        iq = float(table["iq"])
        ref = self.expected_info(family, beta, nb, c)
        if not abs(iq - ref) <= IQ_RTOL * ref:
            return f"I_q {iq!r} vs scipy {ref!r} at c_delta={c}"
        values = _grid_values(self.grid)
        pos = int(np.argmin(np.abs(values - c)))
        if abs(values[pos] - c) > 1e-9:
            return f"c_delta {c} is not on the grid"
        for j in (pos - 1, pos + 1):
            if 0 <= j < len(values):
                other = self.expected_info(family, beta, nb, float(values[j]))
                if other > ref * (1.0 + IQ_RTOL):
                    return f"neighbour c_delta={values[j]} is better: {other!r} > {ref!r}"
        return None


# ---- mc_constant and mc_drift_long ----------------------------------------


#: standard errors allowed between simulated and theory loss
LOSS_Z = 5.0


def loss_band_db(replications: int) -> float:
    """Allowed |simulated - theory| loss in dB for R replications.

    The loss compares an average of squared errors with its prediction;
    treating each replication as one independent squared Gaussian error
    gives the relative standard error sqrt(2 / R), which bounds the
    time-averaged tracking cases from above.
    """
    return 10.0 * math.log10(1.0 + LOSS_Z * math.sqrt(2.0 / replications))


_CONSTANT_CFG = """\
[signal]
kind = constant
x0 = 0

[noise]
family = gg
beta = 2
delta = 1

[quantizer]
mode = quantized
nbits = 2
cdelta = auto

[run]
replications = {replications}
horizon = {horizon}
burn_in = 0
seed = 0
initial_offset = 0
"""

_DRIFT_CFG = """\
[signal]
kind = wiener_drift
x0 = 0
sigma_w = 1e-4
u = 1e-4

[noise]
family = st
beta = 2
delta = 1

[quantizer]
mode = quantized
nbits = 3
cdelta = auto

[run]
replications = {replications}
horizon = {horizon}
burn_in = {burn_in}
seed = 0

[drift_estimator]
gain = 1e-5
initial = true
"""


@dataclass
class Simulate(Workload):
    """``simulate`` on one config, a fresh seed per op."""

    pass_size = 1
    name: str
    template: str
    replications: int
    horizon: int
    burn_in: int = 0
    threads: int = 1
    check_threads: int | None = None   # also replayed at this thread count

    def setup(self, seed, work_dir):
        self.rng = np.random.default_rng([seed, 2])
        self.config = work_dir / f"{self.name}.cfg"
        self.config.write_text(self.template.format(
            replications=self.replications, horizon=self.horizon,
            burn_in=self.burn_in))
        self.work_dir = work_dir

    def next_pass(self):
        op_seed = int(self.rng.integers(0, 2**31))
        return [Op(op_seed, self.replications * self.horizon, f"seed={op_seed}")]

    def _simulate(self, op_seed, threads, out_dir):
        rc = _cli(["simulate", "--config", str(self.config),
                   "--seed", str(op_seed), "--threads", str(threads),
                   "--out", str(out_dir)])
        stem = self.config.stem
        summary = _read_kv(out_dir / f"{stem}.summary")
        digest = hashlib.sha256((out_dir / f"{stem}.csv").read_bytes()).hexdigest()
        return rc, summary, digest

    def run_op(self, op, out_dir):
        return self._simulate(op.args, self.threads, out_dir)

    def expected_loss_db(self, summary):
        return float(summary["theory_loss_db"])

    def check(self, op):
        rc, summary, _ = op.output
        if rc != 0:
            return f"exit code {rc}"
        if int(summary["diverged"]) != 0:
            return f"{summary['diverged']} replications diverged"
        sim = float(summary["simulated_loss_db"])
        theory = self.expected_loss_db(summary)
        band = loss_band_db(self.replications)
        if not abs(sim - theory) <= band:
            return f"simulated loss {sim:.4f} dB vs theory {theory:.4f} dB (band {band:.4f})"
        return None

    def run_checks(self, ops):
        first = ops[0]
        if first.output is None:
            return [("replay", "first op produced no output")]
        runs = [("replay", self.threads)]
        if self.check_threads is not None:
            runs.append((f"threads={self.check_threads}", self.check_threads))
        out = []
        for what, threads in runs:
            try:
                rc, _, digest = self._simulate(
                    first.args, threads, reset_dir(self.work_dir / "check"))
            except Exception as exc:  # the check op failed; record why
                out.append((what, f"{type(exc).__name__}: {exc}"))
                continue
            if rc != 0:
                out.append((what, f"exit code {rc}"))
            elif digest != first.output[2]:
                out.append((what, "CSV differs from the first op's"))
            else:
                out.append((what, None))
        return out


def mc_constant(replications=2048, horizon=2000):
    return Simulate("mc_constant", _CONSTANT_CFG, replications, horizon)


def mc_drift_long(replications=1024, horizon=4000, burn_in=400):
    return Simulate("mc_drift_long", _DRIFT_CFG, replications, horizon,
                    burn_in=burn_in, check_threads=2)


# ---- online_scalar --------------------------------------------------------


#: tracking MSE must lie within [1/TRACK_FACTOR, TRACK_FACTOR] x prediction
TRACK_FACTOR = 4.0
#: constant case: the final error must lie within this many predicted stds
CONSTANT_SIGMAS = 6.0


@dataclass
class Stream:
    kind: ScheduleKind
    ys: list            # observations, as Python floats
    truth: np.ndarray   # parameter path
    schedule: GainSchedule
    u: float = 0.0         # drift; the estimator starts at the true drift
    sigma_w: float = 0.0


@dataclass
class OnlineScalar(Workload):
    """One stream through ``estimator.step_quantized``, one step at a time."""

    name = "online_scalar"
    pass_size = 3
    length: int = 20000
    pool_passes: int = 6      # distinct streams per schedule, cycled
    sigma_w: float = 1e-2     # wiener streams
    drift: float = 1e-4       # wiener_drift streams: u = sigma_w

    def setup(self, seed, work_dir):
        rng = np.random.default_rng([seed, 3])
        self.model = gg(2.0)
        self.spec, self.design = design_uniform(self.model, 4)
        info = self.design.info
        n = self.length
        self.pool = []
        for _ in range(self.pool_passes):
            x = np.full(n, rng.uniform(-1.0, 1.0))
            self.pool.append(Stream(
                ScheduleKind.CONSTANT, (x + self.model.sample(rng, n)).tolist(),
                x, GainSchedule(ScheduleKind.CONSTANT, info)))
            x = np.cumsum(self.sigma_w * rng.standard_normal(n))
            self.pool.append(Stream(
                ScheduleKind.WIENER, (x + self.model.sample(rng, n)).tolist(),
                x, GainSchedule(ScheduleKind.WIENER, info, sigma_w=self.sigma_w),
                sigma_w=self.sigma_w))
            x = np.cumsum(self.drift + self.drift * rng.standard_normal(n))
            self.pool.append(Stream(
                ScheduleKind.WIENER_DRIFT, (x + self.model.sample(rng, n)).tolist(),
                x, GainSchedule(ScheduleKind.WIENER_DRIFT, info,
                                sigma_w=self.drift, drift_gain=1e-5),
                u=self.drift, sigma_w=self.drift))
        self.next_index = 0

    def next_pass(self):
        ops = []
        for i in range(self.pass_size):
            index = (self.next_index + i) % len(self.pool)
            stream = self.pool[index]
            ops.append(Op(stream, self.length, f"{stream.kind.value} #{index}"))
        self.next_index = (self.next_index + self.pass_size) % len(self.pool)
        return ops

    def run_op(self, op, out_dir):
        stream = op.args
        design, spec, schedule = self.design, self.spec, stream.schedule
        step = estimator.step_quantized
        state = EstimatorState(0.0, u_hat=stream.u)
        x_hat = []
        for y in stream.ys:
            state = step(state, y, design, spec, schedule)
            x_hat.append(state.x_hat)
        return x_hat

    def shrink(self, op):
        """(squared final error, mean squared error over the second half)."""
        err = np.asarray(op.output) - op.args.truth
        return float(err[-1] ** 2), float(np.mean(err[len(err) // 2:] ** 2))

    def expected_mse(self, stream):
        """analysis prediction for the checked error statistic."""
        pred = PerformancePrediction(self.design.info)
        if stream.kind is ScheduleKind.CONSTANT:
            return pred.var_constant(self.length)
        if stream.kind is ScheduleKind.WIENER:
            return pred.mse_wiener(stream.sigma_w)
        return pred.mse_drift(stream.u)

    def check(self, op):
        stream = op.args
        final_sq, mse_half = op.output
        expected = self.expected_mse(stream)
        if stream.kind is ScheduleKind.CONSTANT:
            ratio = final_sq / expected
            if not ratio <= CONSTANT_SIGMAS ** 2:
                return f"final squared error {ratio:.3g} x the predicted variance"
            return None
        ratio = mse_half / expected
        if not 1.0 / TRACK_FACTOR <= ratio <= TRACK_FACTOR:
            return f"{stream.kind.value}: tracking MSE {ratio:.3g} x the prediction"
        return None


#: workload name -> factory at benchmark size
WORKLOADS = {"design_table": DesignTable, "mc_constant": mc_constant,
             "mc_drift_long": mc_drift_long, "online_scalar": OnlineScalar}
NAMES = tuple(WORKLOADS)


def make(name: str) -> Workload:
    return WORKLOADS[name]()
