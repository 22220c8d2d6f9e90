"""Monte Carlo engine: determinism, theory agreement, and CSV output."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dataclasses import replace

from adaptquant.estimator import (
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


def test_generate_path_statistics(rng):
    const = generate_path(SignalModel(SignalKind.CONSTANT, x0=3.0), 50, rng)
    np.testing.assert_array_equal(const, 3.0)
    sig = SignalModel(SignalKind.WIENER_DRIFT, x0=1.0, sigma_w=0.01, u=0.5)
    paths = np.array([generate_path(sig, 100, np.random.default_rng(i))
                      for i in range(400)])
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
    path = generate_path(cfg.signal, cfg.horizon, path_rng)
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
@pytest.mark.parametrize("noise", [gg(1.5), st(2.0)], ids=["gg1.5", "st2"])
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


def test_chunk_memory_does_not_grow_with_the_horizon():
    """A chunk keeps one time block of draws and estimates, not the horizon."""
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
    # one float64 matrix of the whole chunk would be 41 MB at 20000 steps
    assert peaks[1] - peaks[0] < 3e6, peaks
