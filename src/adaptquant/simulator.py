"""Monte Carlo engine: replicated estimator runs, MSE curves, simulated losses.

Replications are vectorized in chunks of ``CHUNK_SIZE``, run one after
another.  Where ``os.fork`` exists, two CPUs are usable and no other
``threading`` thread runs, a chunk of more than ``PAIRWISE_BLOCK``
replications runs as two halves at once, the upper one in a forked child,
split where numpy's pairwise sum splits the chunk's rows: the two halves'
sums add up to the bits of the whole chunk's sum.  The child returns its
sums through shared memory; if it fails, its half runs again in the caller.
Replication r of a run with seed s draws its path and its noise
from two sub-streams of its own: the children 0 and 1 of
``SeedSequence([s, r]).spawn(2)`` (a constant signal draws no path).  The
streams of a whole chunk are seeded in one pass by ``_seed_words``, a
vectorized port of numpy's ``SeedSequence`` pinned to it bit for bit.  A
chunk advances in time blocks: the paths, observations and estimates of
a block are time-major (steps, replications) matrices of at most
``BLOCK_ELEMENTS`` floats, a step's estimates written over the observations
it consumed, and only the per-step sum of squared errors is kept, so
memory does not grow with the horizon.  A block's noise is drawn by
``NoiseModel.sample_block``: one numpy call per replication fills its row
with raw draws, and the family's transform runs once over the block; one
``np.add`` over the transposed rows fills the time-major paths (x0 +
walk), another the observations (path + noise).  numpy's draws give the
same values in one piece as split into blocks, so the results do not
depend on the block length; the chunk sums are added in chunk order, so
results are bit-identical for a given seed.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal as _signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .estimator import DEFAULT_DRIFT_GAIN, GainSchedule, SignalKind, advance, direction
from .noise import Family, NoiseModel
from .quantizer import QuantizerSpec, build_design

#: replications per vectorized chunk; fixed, because the floating-point sum
#: of the chunk results depends on where the chunks split
CHUNK_SIZE = 2048

#: floats per work matrix: a chunk is run in time blocks of
#: BLOCK_ELEMENTS // replications steps (256 at a full chunk)
BLOCK_ELEMENTS = 2**19

#: numpy's pairwise sum adds a contiguous row of at most this many floats
#: in eight accumulators; a longer row of n is summed as its first h and
#: last n - h elements, h = n//2 - (n//2) % 8, added once at the end
PAIRWISE_BLOCK = 128

#: a replication whose estimate exceeds this many noise scales is dropped
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


def generate_path(signal: SignalModel, rngs, sums: np.ndarray) -> None:
    """Advance the random walks X_k - x0 of a moving signal in place, one
    row of ``sums`` per generator in ``rngs``: column 0 holds each walk's
    current value and columns 1.. receive its next values.

    The running sum is carried in front of the new increments, so a walk
    has the same bits however its steps are split into blocks.  A constant
    signal has no walk: the engine broadcasts x0.
    """
    for rng, row in zip(rngs, sums):
        rng.standard_normal(out=row[1:])
    incr = sums[:, 1:]
    incr *= signal.sigma_w
    incr += signal.u
    np.cumsum(sums, axis=1, out=sums)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment.

    ``quantizer`` None selects the continuous-measurement reference
    algorithm, which needs a differentiable density (GG beta > 1, or
    Student's t).  ``drift_initial`` None initializes the drift estimate at
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
    drift_gain: float = DEFAULT_DRIFT_GAIN
    drift_initial: float | None = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not (self.horizon > self.burn_in >= 0):
            raise ValueError(
                f"need horizon > burn_in >= 0, got {self.horizon}, {self.burn_in}"
            )
        if not 0.0 < self.drift_gain < math.inf:
            raise ValueError(
                f"drift_gain must be positive and finite, got {self.drift_gain}")
        starts = (self.initial_offset, self.drift_initial or 0.0)
        if not all(map(math.isfinite, starts)):
            raise ValueError(f"initial_offset, drift_initial must be finite: {starts}")
        if self.quantizer is None:
            self.noise.fisher_continuous()  # raises where it is not finite
            if self.noise.family is Family.GG and self.noise.beta <= 1.0:
                raise ValueError("continuous reference requires a differentiable density")


@dataclass
class ExperimentResult:
    mse_curve: np.ndarray
    theory_mse_curve: np.ndarray
    #: the continuous-observation MSE curve the losses are measured against
    baseline_mse_curve: np.ndarray
    asymptotic_mse: float
    simulated_loss_db: float
    theory_loss_db: float
    diverged: int
    metadata: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def loss_curve_db(self) -> np.ndarray:
        """Per-step simulated loss relative to the continuous-case reference."""
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.mse_curve / self.baseline_mse_curve)


class DivergenceError(RuntimeError):
    """Raised when every replication diverged."""


# ---- core chunked simulation ------------------------------------------


#: the constants of numpy's ``SeedSequence`` (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hasher(init: int, mult: int):
    """The running hash of ``SeedSequence``: each call xors its uint32
    array argument with the hash constant, advances the constant by
    ``mult``, multiplies by the new constant and folds the high half in."""
    const = init

    def hash_step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        value ^= value >> 16
        return value
    return hash_step


def _seed_words(seed: int, reps, key: int) -> np.ndarray:
    """``SeedSequence([seed, rep], spawn_key=(key,)).generate_state(4,
    np.uint64)`` for every rep in ``reps``, as a (len(reps), 4) array.

    A port of numpy's ``SeedSequence`` to uint32 arrays, one element per
    replication: the hash constants do not depend on the data, so each
    step is one array operation across all replications.  Pinned against
    ``np.random.SeedSequence`` by a test.
    """
    reps = np.asarray(reps, dtype=np.int64)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if len(reps) and not 0 <= reps.min() <= reps.max() <= _MASK32:
        raise ValueError(
            f"replications must lie in [0, 2**32), got {reps.min()}..{reps.max()}")
    # the assembled entropy: the seed's 32-bit words, then rep, padded
    # with zeros to the pool size, then the spawn key
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(len(reps), w, dtype=np.uint32) for w in words]
    entropy.append(reps.astype(np.uint32))
    entropy += [np.zeros(len(reps), dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    entropy.append(np.full(len(reps), key, dtype=np.uint32))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> 16
        return result

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(value) for value in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))

    # generate_state: eight uint32 words drawn from the pool in turn, paired
    # as lo | hi << 32, so that nothing depends on the host's byte order
    generate = _hasher(_INIT_B, _MULT_B)
    state = np.empty((len(reps), 4), dtype=np.uint64)
    for i in range(4):
        j = 2 * i % _POOL_SIZE
        state[:, i] = generate(pool[j])
        state[:, i] |= generate(pool[j + 1]).astype(np.uint64) << np.uint64(32)
    return state


@functools.cache
def _seed_words_type():
    """The seed type handed to ``np.random.PCG64``, built on first use: it
    must subclass numpy.random's ``ISeedSequence``, and importing
    numpy.random (about 10 ms) is left to the first run, not paid by every
    import of the package."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The state words of one seed sequence, computed in advance: all
        that PCG64 asks of its seed is ``generate_state(4, np.uint64)``."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return SeedWords


def _streams(seed: int, reps, key: int) -> list[np.random.Generator]:
    """Sub-stream ``key`` (0 path, 1 noise) of each replication in ``reps``:
    the ``key``-th child of ``SeedSequence([seed, rep]).spawn(2)``, seeded
    from ``_seed_words`` in one pass over all of ``reps``."""
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(words)))
            for words in _seed_words(seed, reps, key)]


def _replication_errors(config: ExperimentConfig, design, reps: np.ndarray,
                        block_reps: int | None = None):
    """Per-step Σe² over replications ``reps`` and the mask of those that diverged.

    Works in the time blocks of a run over ``block_reps`` replications
    (default ``len(reps)``), on three fixed matrices of at most
    ``BLOCK_ELEMENTS`` floats, so memory does not depend on the horizon.
    Divergence is checked at the end of each block.  A diverged
    replication runs on and its sum is kept: the caller reruns without it.
    """
    signal, noise = config.signal, config.noise
    n_rep = len(reps)
    moving = signal.kind is not SignalKind.CONSTANT
    path_rngs = _streams(config.seed, reps, 0) if moving else None
    noise_rngs = _streams(config.seed, reps, 1)
    block = min(config.horizon, max(1, BLOCK_ELEMENTS // (block_reps or n_rep)))

    info = noise.fisher_continuous() if design is None else design.info
    schedule = GainSchedule(signal.kind, info, signal.sigma_w, config.drift_gain)
    u_hat = np.full(n_rep, signal.u if config.drift_initial is None
                    else config.drift_initial)

    x_hat = np.full(n_rep, signal.x0 + config.initial_offset)
    limit = DIVERGENCE_FACTOR * noise.delta
    dead = np.zeros(n_rep, dtype=bool)
    sumsq = np.empty(config.horizon)
    # per-replication draws (column 0 carries the walks), and the time-major
    # paths and observations of one block, each filled by an add over the
    # draws' transpose; step i overwrites row i of the observations with its
    # estimates
    draws = np.zeros((n_rep, block + 1))
    paths = (np.empty((block, n_rep)) if moving
             else np.broadcast_to(signal.x0, (block, n_rep)))
    obs = np.empty((block, n_rep))

    for start in range(0, config.horizon, block):
        steps = min(block, config.horizon - start)
        if moving:
            generate_path(signal, path_rngs, draws[:, :steps + 1])
            np.add(draws[:, 1:steps + 1].T, signal.x0, out=paths[:steps])
            draws[:, 0] = draws[:, steps]
        noise.sample_block(noise_rngs, draws[:, 1:steps + 1])
        np.add(draws[:, 1:steps + 1].T, paths[:steps], out=obs[:steps])
        for i in range(steps):
            k = start + i + 1
            diff = obs[i] - x_hat
            d = (-noise.score(diff) if design is None
                 else direction(diff, design.thresholds, design.levels))
            x_hat, u_hat = advance(schedule, k, x_hat, u_hat, d)
            obs[i] = x_hat
        x_hats = obs[:steps]
        # max and min propagate NaN, so a NaN estimate counts as diverged;
        # no temporary of the block's size
        dead |= ~((x_hats.max(axis=0) <= limit) & (x_hats.min(axis=0) >= -limit))
        x_hats -= paths[:steps]
        x_hats *= x_hats  # the squared errors
        sumsq[start:start + steps] = x_hats.sum(axis=1)
    return sumsq, dead


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _splits(n: int) -> bool:
    """Whether a chunk of ``n`` replications runs as two halves: more than
    ``PAIRWISE_BLOCK`` of them, ``os.fork``, two usable CPUs, and no thread
    started through ``threading`` beside this one, since a forked child
    holds only the calling thread and any lock another thread held."""
    return (n > PAIRWISE_BLOCK and hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1)


def _split_errors(config: ExperimentConfig, design, reps: np.ndarray):
    """``_replication_errors`` over ``reps``, as two halves at once.

    The parent runs ``reps[:h]`` while a forked child runs ``reps[h:]``,
    with h the split point of numpy's pairwise sum over ``len(reps)``
    elements, so the added halves have the bits of the sum in one piece.
    Both halves take the time blocks of the whole of ``reps``, so the two
    processes hold the matrices one would.  The child writes its sums and
    its divergence flags (as 0.0/1.0) into shared memory and exits 0.  A
    child that exits otherwise, having raised or been killed, has its half
    run again here: the half is deterministic, so that gives the same sums
    or raises the same exception.  Runs in one piece unless ``_splits``, or
    when no shared memory or process can be made.  The child is always
    waited for.
    """
    n = len(reps)
    if not _splits(n):
        return _replication_errors(config, design, reps)
    h = n // 2 - n // 2 % 8
    try:
        shared = np.frombuffer(mmap.mmap(-1, 8 * (config.horizon + n - h)))
        pid = os.fork()
    except OSError:  # no shared memory or no process: the same sums in one piece
        return _replication_errors(config, design, reps)
    if pid == 0:
        status = 1
        try:
            shared[:config.horizon], shared[config.horizon:] = _replication_errors(
                config, design, reps[h:], n)
            status = 0
        finally:
            os._exit(status)
    try:
        head = _replication_errors(config, design, reps[:h], n)
    except BaseException:
        os.kill(pid, _signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        tail = shared[:config.horizon], shared[config.horizon:] != 0.0
    else:
        tail = _replication_errors(config, design, reps[h:], n)
    return head[0] + tail[0], np.concatenate([head[1], tail[1]])


def _chunk_errors(config: ExperimentConfig, design, rep_lo, rep_hi):
    """Per-step Σe² over the replications in [rep_lo, rep_hi) that never
    diverged, their count, and the ids of the diverged ones.

    A chunk in which some replication diverged is run once more over the
    survivors, split at their own count; they draw the same values from
    their own streams.
    """
    reps = np.arange(rep_lo, rep_hi)
    diverged = []
    while len(reps):
        # a diverged replication may overflow before its block ends; a
        # forked half inherits this errstate
        with np.errstate(over="ignore", invalid="ignore"):
            sumsq, dead = _split_errors(config, design, reps)
        if not dead.any():
            break
        diverged.extend(reps[dead].tolist())
        reps = reps[~dead]
    else:  # every replication diverged
        sumsq = np.zeros(config.horizon)
    return sumsq, len(reps), sorted(diverged)


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


def _finalize(config: ExperimentConfig, design, mse, diverged,
              t0: float) -> ExperimentResult:
    signal, kind = config.signal, config.signal.kind
    quantized = design is not None
    ic = _continuous_info(config.noise)
    info = design.info if quantized else ic
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
        baseline_mse_curve=baseline,
        asymptotic_mse=asym,
        simulated_loss_db=sim_loss,
        theory_loss_db=theory_loss,
        diverged=len(diverged),
        metadata=meta,
        wall_time_s=time.perf_counter() - t0,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the experiment described by ``config``: the quantized estimator
    on the design built from its quantizer spec, or the continuous-measurement
    reference when the spec is None."""
    t0 = time.perf_counter()
    design = (None if config.quantizer is None
              else build_design(config.noise, config.quantizer))
    mse, diverged = _aggregate(config, design)
    return _finalize(config, design, mse, diverged, t0)


def run_continuous_reference(config: ExperimentConfig) -> ExperimentResult:
    """``run_experiment`` on a config without a quantizer spec."""
    if config.quantizer is not None:
        raise ValueError("config has a quantizer spec; use run_experiment")
    return run_experiment(config)


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
