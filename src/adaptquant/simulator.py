"""Monte Carlo engine: replicated estimator runs, MSE curves, simulated losses.

Replications are vectorized in fixed-size chunks, run one after another;
each replication owns an RNG stream derived from (seed, replication index),
and the chunk sums are added in chunk order, so results are bit-identical
for a given seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .estimator import GainSchedule, SignalKind, advance, direction
from .noise import NoiseModel
from .quantizer import QuantizerDesign, QuantizerSpec, build_design

#: replications per vectorized chunk; fixed, because the floating-point sum
#: of the chunk results depends on where the chunks split
CHUNK_SIZE = 512

#: a replication whose estimate exceeds this many noise scales is aborted
DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SignalModel:
    """Parameter evolution: constant, random walk, or random walk with drift."""

    kind: SignalKind
    x0: float = 0.0
    sigma_w: float = 0.0
    u: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", SignalKind(self.kind))
        for name in ("x0", "sigma_w", "u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind is SignalKind.CONSTANT and (self.sigma_w != 0.0 or self.u != 0.0):
            raise ValueError("constant signal requires sigma_w = 0 and u = 0")
        if self.kind is SignalKind.WIENER and (self.sigma_w <= 0.0 or self.u != 0.0):
            raise ValueError("wiener signal requires sigma_w > 0 and u = 0")
        if self.kind is SignalKind.WIENER_DRIFT and (self.sigma_w <= 0.0 or self.u == 0.0):
            raise ValueError("wiener_drift signal requires sigma_w > 0 and u != 0")


def generate_path(signal: SignalModel, horizon: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample X_1..X_horizon of the parameter process."""
    if signal.kind is SignalKind.CONSTANT:
        return np.full(horizon, signal.x0)
    incr = signal.u + signal.sigma_w * rng.standard_normal(horizon)
    return signal.x0 + np.cumsum(incr)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment.

    ``quantizer`` None selects the continuous-measurement reference
    algorithm.  ``drift_initial`` None initializes the drift estimate at
    the true drift (oracle warm start); the default is 0.
    """

    signal: SignalModel
    noise: NoiseModel
    quantizer: QuantizerSpec | None
    replications: int = 10_000
    horizon: int = 2000
    burn_in: int = 0
    seed: int = 0
    initial_offset: float = 0.0
    drift_gain: float = 1e-5
    drift_initial: float | None = 0.0
    u_floor: float = 1e-8

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not (self.horizon > self.burn_in >= 0):
            raise ValueError(
                f"need horizon > burn_in >= 0, got {self.horizon}, {self.burn_in}"
            )
        if not (0.0 < self.drift_gain < math.inf and 0.0 < self.u_floor < math.inf):
            raise ValueError("drift_gain and u_floor must be positive and finite, "
                             f"got {self.drift_gain}, {self.u_floor}")
        starts = (self.initial_offset, self.drift_initial or 0.0)
        if not all(map(math.isfinite, starts)):
            raise ValueError(f"initial_offset, drift_initial must be finite: {starts}")


@dataclass
class ExperimentResult:
    mse_curve: np.ndarray
    theory_mse_curve: np.ndarray
    asymptotic_mse: float
    simulated_loss_db: float
    theory_loss_db: float
    diverged: int
    metadata: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def loss_curve_db(self) -> np.ndarray:
        """Per-step simulated loss relative to the continuous-case reference."""
        md = self.metadata
        baseline = analysis.PerformancePrediction(md["ic"]).mse_curve(
            md["signal_kind"], len(self.mse_curve), md["sigma_w"], md["u"])
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.mse_curve / baseline)


class DivergenceError(RuntimeError):
    """Raised when every replication diverged."""


# ---- core chunked simulation ------------------------------------------


def _chunk_errors(config: ExperimentConfig, design, rep_lo, rep_hi):
    """Squared-error matrix for replications [rep_lo, rep_hi) plus divergers."""
    signal, noise = config.signal, config.noise
    horizon = config.horizon
    rngs = [np.random.default_rng([config.seed, rep]) for rep in range(rep_lo, rep_hi)]
    paths = np.vstack([generate_path(signal, horizon, rng) for rng in rngs])
    noises = np.vstack([noise.sample(rng, horizon) for rng in rngs])
    n_rep = rep_hi - rep_lo

    info = noise.fisher_continuous() if design is None else design.info
    schedule = GainSchedule(signal.kind, info, signal.sigma_w,
                            config.drift_gain, config.u_floor)
    u_hat = np.full(n_rep, signal.u if config.drift_initial is None
                    else config.drift_initial)

    x_hat = np.full(n_rep, signal.x0 + config.initial_offset)
    limit = DIVERGENCE_FACTOR * noise.delta
    dead = np.zeros(n_rep, dtype=bool)
    err2 = np.empty((n_rep, horizon))

    for k in range(1, horizon + 1):
        x = paths[:, k - 1]
        diff = x + noises[:, k - 1] - x_hat
        d = (-noise.score(diff) if design is None
             else direction(diff, design.thresholds, design.levels))
        x_hat, u_hat = advance(schedule, k, x_hat, u_hat, d)
        # written so that a NaN estimate counts as diverged
        newly_dead = (~dead) & ~(np.abs(x_hat) <= limit)
        if newly_dead.any():
            dead |= newly_dead
            x_hat = np.where(dead, x, x_hat)
        e = x_hat - x
        err2[:, k - 1] = e * e

    diverged = (rep_lo + np.flatnonzero(dead)).tolist()
    sumsq = err2[~dead].sum(axis=0)
    return sumsq, int(n_rep - dead.sum()), diverged


def _aggregate(config: ExperimentConfig, design):
    total = np.zeros(config.horizon)
    alive = 0
    diverged = []
    for lo in range(0, config.replications, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, config.replications)
        sumsq, n_alive, div = _chunk_errors(config, design, lo, hi)
        total += sumsq
        alive += n_alive
        diverged.extend(div)
    if alive == 0:
        raise DivergenceError(
            f"all {config.replications} replications diverged: {diverged[:10]}..."
        )
    return total / alive, diverged


# ---- experiment drivers -----------------------------------------------


def _continuous_info(noise: NoiseModel):
    try:
        return noise.fisher_continuous()
    except ValueError:
        return math.nan


def _finalize(config: ExperimentConfig, info: float, mse, diverged,
              quantized: bool, t0: float) -> ExperimentResult:
    signal, kind = config.signal, config.signal.kind
    ic = _continuous_info(config.noise)
    theory, baseline = [
        analysis.PerformancePrediction(i).mse_curve(
            kind, config.horizon, signal.sigma_w, signal.u) for i in (info, ic)]
    if kind is SignalKind.CONSTANT:
        # normalized variance k * mse_k at the last step
        asym, sim = config.horizon * mse[-1], mse[-1]
    else:
        asym = sim = float(np.mean(mse[config.burn_in:]))
    sim_loss = 10.0 * math.log10(sim / baseline[-1])
    theory_loss = 0.0
    if quantized:
        theory_loss = analysis.loss_db(kind, info, ic) if ic == ic else math.nan

    meta = {
        "mode": "quantized" if quantized else "continuous",
        "signal_kind": kind.value,
        "x0": config.signal.x0,
        "sigma_w": config.signal.sigma_w,
        "u": config.signal.u,
        "family": config.noise.family.value,
        "beta": config.noise.beta,
        "delta": config.noise.delta,
        "replications": config.replications,
        "horizon": config.horizon,
        "burn_in": config.burn_in,
        "seed": config.seed,
        "initial_offset": config.initial_offset,
        "drift_gain": config.drift_gain,
        "drift_initial": ("true" if config.drift_initial is None
                          else config.drift_initial),
        "info": info,
        "ic": ic,
    }
    if quantized:
        meta["nbits"] = config.quantizer.nbits
        meta["c_delta"] = config.quantizer.c_delta
    return ExperimentResult(
        mse_curve=mse,
        theory_mse_curve=theory,
        asymptotic_mse=asym,
        simulated_loss_db=sim_loss,
        theory_loss_db=theory_loss,
        diverged=len(diverged),
        metadata=meta,
        wall_time_s=time.perf_counter() - t0,
    )


def run_experiment(config: ExperimentConfig, *,
                   design: QuantizerDesign | None = None) -> ExperimentResult:
    """Run the quantized-observation experiment described by ``config``.

    ``design`` may be passed to reuse a precomputed design table; otherwise
    it is built from the config's quantizer spec.  A passed design must have
    that spec's geometry (level count, step and cell edges); its levels and
    information are taken as given.
    """
    if config.quantizer is None:
        raise ValueError("config has no quantizer spec; use run_continuous_reference")
    t0 = time.perf_counter()
    if design is None:
        design = build_design(config.noise, config.quantizer)
    else:
        _check_geometry(design, config)
    mse, diverged = _aggregate(config, design)
    return _finalize(config, design.info, mse, diverged, True, t0)


def _check_geometry(design: QuantizerDesign, config: ExperimentConfig) -> None:
    spec = config.quantizer
    step = spec.c_delta * config.noise.delta
    if len(design.levels) != spec.n_intervals // 2:
        raise ValueError(f"design has {len(design.levels)} levels, the config's "
                         f"{spec.n_intervals}-cell quantizer needs {spec.n_intervals // 2}")
    if design.step != step:
        raise ValueError(f"design step {design.step!r} is not the config's "
                         f"c_delta * delta = {step!r}")
    if not np.array_equal(design.thresholds, spec.finite_tau * step):
        raise ValueError(f"design thresholds {design.thresholds.tolist()} are not "
                         f"the config's tau * step {(spec.finite_tau * step).tolist()}")


def run_continuous_reference(config: ExperimentConfig) -> ExperimentResult:
    """Run the continuous-measurement reference algorithm."""
    t0 = time.perf_counter()
    info = config.noise.fisher_continuous()
    if config.noise.family.value == "gg" and config.noise.beta <= 1.0:
        raise ValueError("continuous reference requires a differentiable density")
    mse, diverged = _aggregate(config, None)
    return _finalize(config, info, mse, diverged, False, t0)


# ---- persistence -------------------------------------------------------


def write_result_csv(result: ExperimentResult, path) -> None:
    """CSV with '#'-prefixed metadata lines and columns k, mse, theory_mse.

    Numeric cells carry 12 significant digits.  Wall time is deliberately
    excluded so identical (config, seed) runs produce byte-identical files.
    """
    lines = ["# adaptquant experiment result"]
    for key in sorted(result.metadata):
        lines.append(f"# {key} = {result.metadata[key]}")
    lines.append("k,mse,theory_mse")
    for i, (m, t) in enumerate(zip(result.mse_curve, result.theory_mse_curve), 1):
        lines.append(f"{i},{m:.12g},{t:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(result: ExperimentResult, path) -> None:
    """Plain-text summary: losses, information values and run metadata."""
    lines = []
    for key in sorted(result.metadata):
        lines.append(f"{key} = {result.metadata[key]}")
    lines.append(f"asymptotic_mse = {result.asymptotic_mse:.12g}")
    lines.append(f"simulated_loss_db = {result.simulated_loss_db:.12g}")
    lines.append(f"theory_loss_db = {result.theory_loss_db:.12g}")
    lines.append(f"diverged = {result.diverged}")
    lines.append(f"wall_time_s = {result.wall_time_s:.3f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
