"""Monte Carlo engine: determinism, theory agreement, and CSV output."""

import errno
import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dataclasses import replace

from adaptquant.estimator import (
    DEFAULT_DRIFT_GAIN,
    EstimatorState,
    GainSchedule,
    step_continuous,
    step_quantized,
)
from adaptquant.noise import Family, NoiseModel, gg, st
from adaptquant.quantizer import QuantizerSpec, build_design, design_uniform
from adaptquant import simulator
from adaptquant.simulator import (
    CHUNK_SIZE,
    DivergenceError,
    ExperimentConfig,
    SignalKind,
    SignalModel,
    generate_path,
    run_continuous_reference,
    run_experiment,
    write_result_csv,
    write_summary,
)


def make_config(**overrides):
    base = dict(
        signal=SignalModel(SignalKind.CONSTANT),
        noise=gg(2.0),
        quantizer=QuantizerSpec.uniform(4, 0.69),
        replications=200,
        horizon=300,
        seed=123,
        initial_offset=2.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_signal_model_validation():
    SignalModel(SignalKind.CONSTANT, x0=1.0)
    SignalModel(SignalKind.WIENER, sigma_w=0.1)
    SignalModel(SignalKind.WIENER_DRIFT, sigma_w=1e-4, u=1e-4)
    with pytest.raises(ValueError):
        SignalModel(SignalKind.CONSTANT, sigma_w=0.1)
    with pytest.raises(ValueError):
        SignalModel(SignalKind.WIENER, sigma_w=0.0)
    with pytest.raises(ValueError):
        SignalModel(SignalKind.WIENER_DRIFT, sigma_w=0.1, u=0.0)
    # NaN passes every comparison, so each field is checked to be finite
    for bad in (math.nan, math.inf, -math.inf):
        for name, kind, fields in [
            ("x0", SignalKind.CONSTANT, dict(x0=bad)),
            ("x0", SignalKind.WIENER, dict(x0=bad, sigma_w=0.1)),
            ("sigma_w", SignalKind.WIENER, dict(sigma_w=bad)),
            ("sigma_w", SignalKind.WIENER_DRIFT, dict(sigma_w=bad, u=1e-4)),
            ("u", SignalKind.WIENER_DRIFT, dict(sigma_w=0.1, u=bad)),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SignalModel(kind, **fields)


def test_generate_path_statistics():
    sig = SignalModel(SignalKind.WIENER_DRIFT, x0=1.0, sigma_w=0.01, u=0.5)
    sums = np.zeros((400, 101))
    generate_path(sig, [np.random.default_rng(i) for i in range(400)], sums)
    paths = sig.x0 + sums[:, 1:]
    # mean follows the drift line, variance grows linearly
    np.testing.assert_allclose(paths[:, -1].mean(), 1.0 + 0.5 * 100, rtol=1e-3)
    assert paths[:, -1].var() == pytest.approx(100 * 0.01**2, rel=0.3)


def test_config_validation():
    for overrides in [
        dict(replications=0),
        dict(horizon=10, burn_in=10),
        dict(drift_gain=-1.0),
        dict(drift_gain=0.0),
        dict(initial_offset=math.nan),
        dict(initial_offset=math.inf),
        dict(drift_initial=math.nan),
    ]:
        with pytest.raises(ValueError):
            make_config(**overrides)
    with pytest.raises(ValueError, match="seed"):
        make_config(seed=-1)


def test_determinism_same_seed_and_threads():
    cfg = make_config(replications=CHUNK_SIZE + 100)  # spans two chunks
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    np.testing.assert_array_equal(a.mse_curve, b.mse_curve)


def test_different_seed_changes_result():
    a = run_experiment(make_config(seed=1))
    b = run_experiment(make_config(seed=2))
    assert not np.array_equal(a.mse_curve, b.mse_curve)


def test_constant_signal_matches_theory():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    cfg = make_config(noise=m, quantizer=spec, replications=3000,
                      horizon=800, initial_offset=0.0, seed=7)
    res = run_experiment(cfg)
    k = np.arange(1, cfg.horizon + 1)
    np.testing.assert_allclose(res.theory_mse_curve, 1.0 / (k * design.info),
                               rtol=1e-12)
    # normalized tail within a few percent of the asymptotic constant
    tail = res.mse_curve[-200:] * k[-200:] * design.info
    assert abs(tail.mean() - 1.0) < 0.08
    assert res.diverged == 0


def test_wiener_signal_matches_theory():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    sig = SignalModel(SignalKind.WIENER, sigma_w=0.01)
    cfg = make_config(signal=sig, noise=m, quantizer=spec, replications=400,
                      horizon=4000, burn_in=1000, initial_offset=0.0, seed=11)
    res = run_experiment(cfg)
    predicted = 0.01 / math.sqrt(design.info)
    np.testing.assert_allclose(res.theory_mse_curve, predicted)
    assert res.asymptotic_mse == pytest.approx(predicted, rel=0.05)


def test_drift_signal_matches_theory():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    u = 1e-3
    sig = SignalModel(SignalKind.WIENER_DRIFT, sigma_w=1e-3, u=u)
    cfg = make_config(signal=sig, noise=m, quantizer=spec, replications=300,
                      horizon=4000, burn_in=1000, initial_offset=0.0,
                      seed=13, drift_initial=None)  # oracle warm start
    res = run_experiment(cfg)
    predicted = 3.0 * (u / (4.0 * design.info)) ** (2.0 / 3.0)
    assert res.asymptotic_mse == pytest.approx(predicted, rel=0.2)


def test_continuous_reference_constant():
    m = st(1.0)  # heavy-tailed noise, information 1/2
    cfg = make_config(noise=m, quantizer=None, replications=2000,
                      horizon=2500, initial_offset=0.0, seed=17)
    res = run_continuous_reference(cfg)
    k = np.arange(1, cfg.horizon + 1)
    np.testing.assert_allclose(res.theory_mse_curve, 1.0 / (k * 0.5),
                               rtol=1e-12)
    tail = res.mse_curve[-200:] * k[-200:] * 0.5
    assert abs(tail.mean() - 1.0) < 0.1
    assert res.diverged == 0


def test_quantized_never_beats_continuous_loss():
    m = gg(2.0)
    spec, design = design_uniform(m, 2)
    cfg = make_config(noise=m, quantizer=spec, replications=2000,
                      horizon=600, initial_offset=0.0, seed=19)
    res = run_experiment(cfg)
    # theory loss for 1-bit Gaussian-type noise is the classic 1.96 dB
    assert res.theory_loss_db == pytest.approx(1.9612, abs=5e-5)
    assert res.simulated_loss_db == pytest.approx(res.theory_loss_db, abs=0.35)


def test_loss_curve_db_shape_and_tail():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    # an initial offset gives an elevated loss curve that decays back
    cfg = make_config(noise=m, quantizer=spec, replications=400,
                      horizon=600, initial_offset=3.0, seed=23)
    res = run_experiment(cfg)
    curve = res.loss_curve_db()
    assert curve.shape == res.mse_curve.shape
    assert curve[0] > res.theory_loss_db + 3.0
    assert curve[-1] < curve[0] - 3.0
    # starting at the true value the tail sits near the theoretical loss
    cfg0 = make_config(noise=m, quantizer=spec, replications=1500,
                       horizon=600, initial_offset=0.0, seed=23)
    res0 = run_experiment(cfg0)
    curve0 = res0.loss_curve_db()
    assert abs(curve0[-50:].mean() - res0.theory_loss_db) < 0.5


def test_metadata_contents():
    res = run_experiment(make_config())
    md = res.metadata
    assert md["signal_kind"] == "constant"
    assert md["family"] == "gg"
    assert md["beta"] == 2.0
    assert md["replications"] == 200
    assert md["seed"] == 123
    assert res.wall_time_s > 0.0


def test_csv_roundtrip(tmp_path):
    res = run_experiment(make_config(replications=50, horizon=40))
    out = tmp_path / "result.csv"
    write_result_csv(res, out)
    text = out.read_text()
    lines = text.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert meta  # metadata present as comments
    assert not any("wall" in ln.lower() for ln in meta)  # timing excluded
    assert body[0] == "k,mse,theory_mse"
    data = np.loadtxt(body[1:], delimiter=",", skiprows=1) if False else \
        np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    assert data.shape == (40, 3)
    np.testing.assert_array_equal(data[:, 0], np.arange(1, 41))
    np.testing.assert_allclose(data[:, 1], res.mse_curve, rtol=1e-11)
    # values written with 12 significant digits
    sample = body[1].split(",")[1]
    mantissa = sample.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa.split("e")[0]) <= 12


def test_write_summary_mentions_wall_time(tmp_path):
    res = run_experiment(make_config(replications=50, horizon=40))
    out = tmp_path / "summary.txt"
    write_summary(res, out)
    assert "wall" in out.read_text().lower()


def use_design(monkeypatch, design):
    """Make ``run_experiment`` run on ``design`` whatever its config's spec."""
    monkeypatch.setattr(simulator, "build_design", lambda noise, spec: design)


def test_all_replications_diverging_raises(monkeypatch):
    """A grossly mis-scaled gain drives every replication past the guard."""
    from adaptquant.quantizer import QuantizerDesign, interval_stats
    from adaptquant.simulator import DivergenceError

    m = gg(2.0)
    spec = QuantizerSpec.uniform(2, 1.0)
    probs, drops = interval_stats(m, np.array([]))
    # absurd levels make the fixed-gain recursion blow up
    design = QuantizerDesign(probs, drops, np.array([1e9]),
                             info=4.0 / math.pi, thresholds=np.array([]))
    sig = SignalModel(SignalKind.WIENER, sigma_w=1.0)
    cfg = make_config(signal=sig, noise=m, quantizer=spec, replications=20,
                      horizon=100, burn_in=10, seed=29)
    use_design(monkeypatch, design)
    with pytest.raises(DivergenceError, match=re.escape(
            "all 20 replications diverged: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]...")):
        run_experiment(cfg)


def _nan_level_case():
    """A config whose design has a NaN outer level: some replications diverge."""
    m = gg(2.0)
    spec = QuantizerSpec.uniform(4, 2.0)  # outer cell beyond 2 noise scales
    design = build_design(m, spec)
    one_nan = replace(design, levels=np.array([design.levels[0], np.nan]))
    return make_config(noise=m, quantizer=spec, initial_offset=0.0), one_nan


def test_nan_level_counts_as_diverged(monkeypatch):
    """A NaN estimate is caught by the divergence guard, not averaged in."""
    cfg, one_nan = _nan_level_case()
    use_design(monkeypatch, one_nan)
    res = run_experiment(cfg)
    assert 0 < res.diverged < cfg.replications
    assert np.all(np.isfinite(res.mse_curve))
    assert math.isfinite(res.simulated_loss_db)
    use_design(monkeypatch, replace(one_nan, levels=np.array([np.nan, np.nan])))
    with pytest.raises(DivergenceError):
        run_experiment(cfg)


def test_overflowing_replications_diverge_without_a_warning(monkeypatch):
    """An estimate that overflows to inf, then NaN, within a block is caught
    at the block's end; the engine's errstate keeps numpy quiet meanwhile."""
    cfg, one_nan = _nan_level_case()
    use_design(monkeypatch, replace(one_nan, levels=np.array([one_nan.levels[0], 1e308])))
    cfg = replace(cfg, signal=SignalModel(SignalKind.WIENER, sigma_w=10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="all 200 replications diverged"):
            run_experiment(cfg)


def test_run_experiment_builds_the_design_of_its_config(monkeypatch):
    """The only design a run can see is the one built from its own spec."""
    built = []
    monkeypatch.setattr(simulator, "build_design",
                        lambda noise, spec: built.append(spec) or build_design(noise, spec))
    cfg = make_config(replications=10, horizon=20)
    assert run_experiment(cfg).metadata["nbits"] == 2
    assert built == [cfg.quantizer]
    with pytest.raises(TypeError):
        run_experiment(cfg, design=build_design(cfg.noise, cfg.quantizer))


@pytest.mark.parametrize("beta, match", [
    (1.0, "requires a differentiable density"),  # Laplace: finite I_c, no score
    (0.5, "not finite"),                         # rejected by fisher_continuous
])
def test_continuous_reference_rejects_gg_without_a_score(beta, match):
    with pytest.raises(ValueError, match=match):
        make_config(noise=gg(beta), quantizer=None, replications=2, horizon=3)


def test_one_runner_for_both_modes(tmp_path):
    with pytest.raises(ValueError, match="has a quantizer spec"):
        run_continuous_reference(make_config(replications=2, horizon=3))
    cfg = make_config(noise=st(2.0), quantizer=None, replications=20, horizon=30)
    for name, run in [("experiment", run_experiment),
                      ("reference", run_continuous_reference)]:
        result = run(cfg)
        assert result.metadata["mode"] == "continuous"
        write_result_csv(result, tmp_path / f"{name}.csv")
    assert ((tmp_path / "experiment.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


PARITY_SIGNALS = [
    SignalModel(SignalKind.CONSTANT, x0=0.5),
    SignalModel(SignalKind.WIENER, x0=0.5, sigma_w=0.01),
    SignalModel(SignalKind.WIENER_DRIFT, x0=0.5, sigma_w=1e-3, u=1e-3),
]


def _replication_zero(cfg):
    """Observations and path of replication 0, drawn as the engine draws them:
    the path from the first and the noise from the second child stream of
    ``SeedSequence([seed, 0])``, each in one piece."""
    path_rng, noise_rng = map(np.random.default_rng,
                              np.random.SeedSequence([cfg.seed, 0]).spawn(2))
    sums = np.zeros((1, cfg.horizon + 1))
    generate_path(cfg.signal, [path_rng], sums)  # all 0 for a constant signal
    path = cfg.signal.x0 + sums[0, 1:]
    return path, path + cfg.noise.sample(noise_rng, cfg.horizon)


def _scalar_errors(cfg, info, step):
    """Squared errors of the scalar API fed replication 0 one step at a time."""
    sig = cfg.signal
    path, ys = _replication_zero(cfg)
    schedule = GainSchedule(sig.kind, info, sig.sigma_w, cfg.drift_gain)
    state = EstimatorState(sig.x0 + cfg.initial_offset,
                           u_hat=sig.u if cfg.drift_initial is None
                           else cfg.drift_initial)
    err2 = np.empty(cfg.horizon)
    for k in range(cfg.horizon):
        state = step(state, float(ys[k]), schedule)
        e = state.x_hat - path[k]
        err2[k] = e * e
    return err2


def _assert_quantized_parity(noise, nbits, signal, drift_initial, horizon, seed):
    spec, design = design_uniform(noise, 2**nbits)
    cfg = make_config(signal=signal, noise=noise, quantizer=spec, replications=1,
                      horizon=horizon, seed=seed, drift_initial=drift_initial,
                      initial_offset=1.5)
    res = run_experiment(cfg)
    err2 = _scalar_errors(
        cfg, design.info,
        lambda state, y, schedule: step_quantized(state, y, design, spec, schedule))
    assert np.array_equal(err2, res.mse_curve)


@pytest.mark.parametrize("signal", PARITY_SIGNALS, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("drift_initial", [0.0, None])
def test_scalar_api_matches_engine_quantized(signal, drift_initial):
    _assert_quantized_parity(gg(2.0), 3, signal, drift_initial, horizon=400, seed=123)


@settings(max_examples=100, deadline=None)
@given(hs.builds(NoiseModel, hs.sampled_from(Family), hs.floats(0.5, 10.0)),
       hs.integers(1, 5), hs.sampled_from(PARITY_SIGNALS),
       hs.sampled_from([0.0, None]), hs.integers(0, 2**32 - 1))
def test_scalar_api_matches_engine_quantized_property(noise, nbits, signal,
                                                      drift_initial, seed):
    _assert_quantized_parity(noise, nbits, signal, drift_initial, horizon=60, seed=seed)


@pytest.mark.parametrize("signal", PARITY_SIGNALS, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("noise", [gg(1.5), gg(1.7), st(2.0)],
                         ids=["gg1.5", "gg1.7", "st2"])
def test_scalar_api_matches_engine_continuous(signal, noise):
    cfg = make_config(signal=signal, noise=noise, quantizer=None, replications=1,
                      horizon=400, drift_initial=None, initial_offset=1.5)
    res = run_continuous_reference(cfg)
    err2 = _scalar_errors(
        cfg, noise.fisher_continuous(),
        lambda state, y, schedule: step_continuous(state, y, noise, schedule))
    assert np.array_equal(err2, res.mse_curve)


# ---- streaming engine: time blocks, per-replication sub-streams --------


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.gamma(0.5, size=n),
    lambda rng, n: rng.integers(0, 2, size=n),
    lambda rng, n: rng.standard_normal(n),
    lambda rng, n: rng.standard_normal(out=np.empty(n)),
    lambda rng, n: rng.chisquare(2.0, size=n),
    lambda rng, n: rng.standard_t(2.0, size=n),
    lambda rng, n: rng.gamma(np.array([0.5, 1.0]), size=(n, 2)),
    lambda rng, n: rng.standard_gamma(np.array([1.4, 1.0]), out=np.empty((n, 2))),
    lambda rng, n: rng.random(out=np.empty(n)),
], ids=["gamma", "integers", "standard_normal", "standard_normal_out", "chisquare",
        "standard_t", "gamma_pairs", "standard_gamma_pairs_out", "random_out"])
def test_draws_do_not_depend_on_the_split(draw):
    """The engine draws in time blocks; block-length independence rests on
    numpy giving the same values drawn as 7 + 13 as drawn as 20.  Each
    sampler makes one such call (two calls, e.g. normal then chi-square,
    would interleave differently per block)."""
    split = np.random.default_rng(99)
    whole = draw(np.random.default_rng(99), 20)
    assert np.array_equal(np.concatenate([draw(split, 7), draw(split, 13)]), whole)


def _assert_streams_match(seed, reps):
    for key in (0, 1):
        words = simulator._seed_words(seed, reps, key)
        streams = simulator._streams(seed, reps, key)
        for rep, row, stream in zip(reps, words, streams):
            ss = np.random.SeedSequence([seed, rep], spawn_key=(key,))
            assert np.array_equal(row, ss.generate_state(4, np.uint64)), (seed, rep, key)
            assert np.array_equal(stream.standard_normal(100),
                                  np.random.default_rng(ss).standard_normal(100))


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 1, 2**100])
def test_streams_match_numpy_seed_sequence(seed):
    """The one-pass seeding is numpy's ``SeedSequence`` bit for bit: its
    state words and the first draws of its generators."""
    _assert_streams_match(seed, [0, 1, 1000, 2**32 - 1])
    for bad in ([2**32], [0, -1]):
        with pytest.raises(ValueError):
            simulator._streams(seed, bad, 1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        simulator._seed_words(-1 - seed, [0], 0)


@settings(max_examples=100, deadline=None)
@given(hs.integers(0, 2**128 - 1), hs.lists(hs.integers(0, 2**32 - 1), max_size=5))
def test_streams_match_numpy_seed_sequence_property(seed, reps):
    _assert_streams_match(seed, reps)


def _block_cases():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    drift = SignalModel(SignalKind.WIENER_DRIFT, x0=0.5, sigma_w=1e-3, u=1e-3)
    return {
        "constant": (make_config(noise=m, quantizer=spec), design),
        "drift": (make_config(signal=drift, noise=st(2.0), quantizer=None,
                              drift_initial=None), None),
        "diverging": _nan_level_case(),
    }


@pytest.mark.parametrize("case", ["constant", "drift", "diverging"])
def test_aggregate_does_not_depend_on_the_block_length(case, monkeypatch):
    cfg, design = _block_cases()[case]
    mse, diverged = simulator._aggregate(cfg, design)
    # 200 replications: one block of 300 steps, then blocks of 7 steps
    monkeypatch.setattr(simulator, "BLOCK_ELEMENTS", 7 * cfg.replications + 5)
    mse_split, diverged_split = simulator._aggregate(cfg, design)
    assert np.array_equal(mse, mse_split)
    assert diverged == diverged_split
    assert (len(diverged) > 0) == (case == "diverging")


def test_diverged_replications_leave_the_sum():
    """The chunk reruns its survivors, whose streams are their own, so its
    sum is the sum of their squared errors run one replication at a time."""
    cfg, design = _nan_level_case()
    sumsq, alive, diverged = simulator._chunk_errors(cfg, design, 0, cfg.replications)
    survivors = sorted(set(range(cfg.replications)) - set(diverged))
    assert 0 < len(diverged) and alive == len(survivors)
    alone = [simulator._replication_errors(cfg, design, np.array([r]))
             for r in survivors]
    assert not any(dead.any() for _, dead in alone)
    np.testing.assert_allclose(sumsq, np.sum([e for e, _ in alone], axis=0),
                               rtol=1e-12, atol=0.0)


def _chunk_peak_growth():
    """tracemalloc's peak over a 256-replication chunk, 20000 steps less 2000."""
    sig = SignalModel(SignalKind.WIENER, sigma_w=0.01)
    spec, design = design_uniform(gg(2.0), 4)
    peaks = []
    for horizon in (2000, 20_000):
        cfg = make_config(signal=sig, quantizer=spec, replications=256,
                          horizon=horizon, initial_offset=0.0)
        tracemalloc.start()
        try:
            simulator._chunk_errors(cfg, design, 0, cfg.replications)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[1] - peaks[0], peaks


def test_chunk_memory_does_not_grow_with_the_horizon(monkeypatch):
    """A chunk keeps one time block of draws and estimates, not the horizon.

    On one CPU the chunk runs in this process and is measured whole."""
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    growth, peaks = _chunk_peak_growth()
    # one float64 matrix of the whole chunk would be 41 MB at 20000 steps
    assert growth < 3e6, peaks


def test_split_chunk_memory_does_not_grow_with_the_horizon(monkeypatch):
    """On two CPUs the lower half runs here, and must take the block
    length of the whole chunk, not of its own count."""
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    growth, peaks = _chunk_peak_growth()
    assert growth < 3e6, peaks


def test_one_default_drift_gain():
    """The schedule and the experiment take their drift gain from one constant."""
    schedule = GainSchedule(SignalKind.WIENER_DRIFT, 1.0, sigma_w=1e-3)
    assert schedule.drift_gain == make_config().drift_gain == DEFAULT_DRIFT_GAIN


# ---- a chunk run as two halves in two processes ---------------------------


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _split_point(n):
    return n // 2 - n // 2 % 8


@pytest.mark.parametrize("n", [129, 130, 136, 1000, 1024, 2000, 2047, 2048])
def test_numpy_sum_splits_where_the_engine_splits(n):
    """numpy's pairwise sum of a row of n > PAIRWISE_BLOCK floats is the sum
    of its halves at the engine's split point, bit for bit, both for one
    row and for the rows of a time-major block; a numpy that split
    elsewhere would move the engine's bytes, and fails here instead."""
    assert n > simulator.PAIRWISE_BLOCK
    h = _split_point(n)
    rng = np.random.default_rng(n)
    block = rng.lognormal(0.0, 3.0, size=(5, n))  # many binades: rounding shows
    row = block[0].copy()
    assert row.sum() == row[:h].sum() + row[h:].sum()
    head, tail = block[:, :h].copy(), block[:, h:].copy()
    assert np.array_equal(block.sum(axis=1), head.sum(axis=1) + tail.sum(axis=1))


def _split_cases(reps):
    spec, _ = design_uniform(gg(2.0), 4)
    drift = SignalModel(SignalKind.WIENER_DRIFT, x0=0.5, sigma_w=1e-3, u=1e-3)
    common = dict(replications=reps, horizon=120, initial_offset=0.5)
    return {
        "constant": make_config(quantizer=spec, **common),
        "drift": make_config(signal=drift, noise=st(2.0), quantizer=spec,
                             drift_initial=None, **common),
        "continuous": make_config(signal=SignalModel(SignalKind.WIENER, sigma_w=0.01),
                                  noise=st(3.0), quantizer=None, **common),
    }


@needs_fork
@pytest.mark.parametrize("reps", [129, 1000, CHUNK_SIZE + 1])
@pytest.mark.parametrize("case", ["constant", "drift", "continuous"])
def test_split_halves_give_the_bytes_of_one_process(case, reps, forks, monkeypatch):
    """The split run has the bytes of the run in one process, and leaves no
    descriptor open where ``/proc/self/fd`` lists them."""
    cfg = _split_cases(reps)[case]
    fds = os.listdir if os.path.isdir("/proc/self/fd") else lambda _: []
    before = len(fds("/proc/self/fd"))
    split = run_experiment(cfg)
    assert len(fds("/proc/self/fd")) == before
    # every chunk of more than PAIRWISE_BLOCK replications forked once
    assert len(forks) == 1
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    whole = run_experiment(cfg)
    assert len(forks) == 1
    assert np.array_equal(split.mse_curve, whole.mse_curve)
    assert split.diverged == whole.diverged == 0


@needs_fork
def test_split_halves_agree_on_diverged_replications(forks, monkeypatch):
    """The NaN-level case diverges in both halves; the survivors rerun split
    at their own count and give the same ids and sums as in one process."""
    cfg, one_nan = _nan_level_case()
    cfg = replace(cfg, replications=1000)  # about 230 survivors
    split = simulator._chunk_errors(cfg, one_nan, 0, cfg.replications)
    assert len(forks) == 2  # the chunk, then its survivors
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    sumsq, alive, diverged = simulator._chunk_errors(cfg, one_nan, 0, cfg.replications)
    h = _split_point(cfg.replications)
    assert min(diverged) < h <= max(diverged)
    assert np.array_equal(split[0], sumsq)
    assert split[1:] == (alive, diverged)


class UpperHalfError(Exception):
    """Raised in one half of a chunk by the test below."""


class Unpicklable(Exception):
    """Holds a lock, so it cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TwoArguments(Exception):
    """Pickles, but does not unpickle: its constructor wants two arguments."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@needs_fork
@pytest.mark.parametrize("error", [UpperHalfError, RuntimeWarning, FloatingPointError,
                                   Unpicklable, TwoArguments])
@pytest.mark.parametrize("half", ["child", "parent"])
def test_an_exception_in_either_half_reaches_the_caller(error, half, forks, monkeypatch):
    """An exception in either half is raised in the caller as its own type,
    with its own traceback: a failed child's half is run again here, and a
    failed half here is not followed by the child's."""
    run_half = simulator._replication_errors
    upper = []  # whether each half run in this process is the upper one

    def failing(config, design, reps, *rest):
        upper.append(bool(reps[0] > 0))
        if upper[-1] == (half == "child"):
            message = f"raised in the {half}"
            raise error(message, 7) if error is TwoArguments else error(message)
        return run_half(config, design, reps, *rest)
    monkeypatch.setattr(simulator, "_replication_errors", failing)
    cfg = make_config(replications=300, horizon=50)
    with pytest.raises(error, match=f"raised in the {half}") as raised:
        run_experiment(cfg)
    assert "failing" in [entry.name for entry in raised.traceback]
    assert upper == ([False, True] if half == "child" else [False])
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_pipe_or_process_runs_the_chunk_in_one_piece(call, forks, monkeypatch):
    """When the shared memory that carries the child's sums back (the "pipe"
    case) or the child cannot be made, the chunk runs in this process with
    the same bytes."""
    cfg = make_config(replications=300, horizon=50)
    whole = run_experiment(cfg)
    assert len(forks) == 1

    def refused(*args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    if call == "pipe":
        monkeypatch.setattr(simulator.mmap, "mmap", refused)
    else:
        monkeypatch.setattr(simulator.os, "fork", refused)
    alone = run_experiment(cfg)
    assert np.array_equal(alone.mse_curve, whole.mse_curve)
    assert len(forks) == 1


@needs_fork
def test_a_child_that_ends_without_a_result_has_its_half_rerun(forks, monkeypatch):
    """A child that exits before writing its sums, as if killed, leaves the
    bytes of the run in one process: its half runs again here."""
    cfg = make_config(replications=300, horizon=50)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    whole = run_experiment(cfg)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    run_half = simulator._replication_errors
    parent = os.getpid()

    def vanishing(config, design, reps, *rest):
        if os.getpid() != parent:
            os._exit(3)
        return run_half(config, design, reps, *rest)
    monkeypatch.setattr(simulator, "_replication_errors", vanishing)
    rerun = run_experiment(cfg)
    assert np.array_equal(rerun.mse_curve, whole.mse_curve)
    assert len(forks) == 1


def test_small_chunks_and_single_cpus_stay_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(simulator.os, "fork", no_fork)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    run_experiment(make_config(replications=simulator.PAIRWISE_BLOCK, horizon=50))
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    run_experiment(make_config(replications=1000, horizon=50))


def test_a_running_thread_keeps_the_chunk_in_one_process(monkeypatch):
    """A forked child would hold only the calling thread, and any lock the
    other one held: with a second thread running, nothing is forked."""
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(simulator.os, "fork", no_fork)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        run_experiment(make_config(replications=1000, horizon=50))
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
