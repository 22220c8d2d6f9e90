"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line,
and fails loudly when the stated tolerance is not met.  The Monte Carlo
criteria run at desk scale (minutes in total) with fixed seeds.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from adaptquant import analysis
from adaptquant.analysis import (
    bcrb_asymptotic,
    bcrb_asymptotic_approx,
    bcrb_recursion,
    check_stability,
    loss_db,
    ode_mean_trajectory,
    sigma_inf_general,
)
from adaptquant.noise import STANDARD_SHAPES, Family, NoiseModel, gg, st
from adaptquant.quantizer import (
    design_uniform,
    fisher_quantized,
    interval_stats,
    optimize_cdelta,
)
from adaptquant.simulator import (
    ExperimentConfig,
    SignalKind,
    SignalModel,
    run_experiment,
    write_result_csv,
)


def report(num: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {tag}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_01_fisher_information_oracle(fisher_quadrature):
    worst = 0.0
    for family, beta in STANDARD_SHAPES:
        m = NoiseModel(family, beta)
        analytic = m.fisher_continuous()
        numeric = fisher_quadrature(m)
        worst = max(worst, abs(analytic - numeric) / numeric)
    report(1, worst <= 1e-6, f"worst relative error {worst:.2e}")


def test_criterion_02_one_bit_gaussian_anchor():
    m = gg(2.0)
    probs, drops = interval_stats(m, np.array([]))  # 1 bit: no finite edge
    iq = fisher_quantized(probs, drops)
    ratio = m.fisher_continuous() / iq
    lq = loss_db(SignalKind.CONSTANT, iq, m.fisher_continuous())
    ok = abs(ratio - math.pi / 2.0) <= 1e-9 and abs(lq - 1.9612) <= 1e-3
    report(2, ok, f"ratio {ratio:.12f}, loss {lq:.5f} dB")


def test_criterion_03_laplace_degeneracy():
    m = gg(1.0)
    grid = np.round(np.arange(0.01, 10.0 + 0.005, 0.01), 12)
    infos, level_spread = [], 0.0
    for c in grid:
        # 2 bits: the one finite edge sits at the step c * delta = c
        probs, drops = interval_stats(m, np.array([c]))
        infos.append(fisher_quantized(probs, drops))
        levels = drops / probs
        level_spread = max(level_spread, float(levels.max() - levels.min()))
    spread = max(infos) - min(infos)
    ok = spread < 1e-10 and level_spread < 1e-10
    report(3, ok, f"info spread {spread:.2e}, level spread {level_spread:.2e}")


def _one_bit_loss_closed_form_db(family, beta):
    """1-bit loss I_c / (4 f(0)^2) in dB, from gamma functions alone.

    The single threshold sits at the offset, so the quantized information is
    4 f(0)^2 whatever c_delta is.  GG: Gamma(2 - 1/b) Gamma(1/b).  ST with
    nu = b: ((nu+1)/(nu+3)) / (4 f(0)^2), with
    f(0) = Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2)).
    """
    if family is Family.GG:
        ratio = math.gamma(2.0 - 1.0 / beta) * math.gamma(1.0 / beta)
    else:
        nu = beta
        f0 = math.exp(math.lgamma((nu + 1.0) / 2.0)
                      - math.lgamma(nu / 2.0)) / math.sqrt(nu * math.pi)
        ratio = ((nu + 1.0) / (nu + 3.0)) / (4.0 * f0 * f0)
    return 10.0 * math.log10(ratio)


def test_criterion_04_loss_table_ranges():
    one_bit, two_bit, monotone_ok = {}, {}, True
    anchor_misses = {}
    for family, beta in STANDARD_SHAPES:
        m = NoiseModel(family, beta)
        ic = m.fisher_continuous()
        losses = []
        for nbits in range(1, 6):
            _, design = optimize_cdelta(m, 2 ** nbits)
            losses.append(loss_db(SignalKind.CONSTANT, design.info, ic))
        key = f"{family.value}{beta:g}"
        one_bit[key] = losses[0]
        two_bit[key] = losses[1]
        monotone_ok &= bool(np.all(np.diff(losses) <= 1e-12))
        exact = _one_bit_loss_closed_form_db(family, beta)
        if not abs(losses[0] - exact) <= 1e-9:
            anchor_misses[key] = (losses[0], exact)
    two_ok = all(v < 1.0 for v in two_bit.values())
    failures = [f"1-bit {k}: {v:.12f} dB, closed form {e:.12f} dB"
                for k, (v, e) in anchor_misses.items()]
    bad = {k: round(v, 4) for k, v in one_bit.items() if not 0.0 < v <= 4.5}
    if bad:
        failures.append(f"1-bit out of (0, 4.5]: {bad}")
    if not two_ok:
        failures.append("2-bit >= 1 dB: " + str({
            k: round(v, 4) for k, v in two_bit.items() if not v < 1.0}))
    if not monotone_ok:
        failures.append("loss not monotone in nbits")
    report(4, not failures,
           "; ".join(failures) if failures else
           "1-bit losses match closed forms, all ranges hold")


def test_criterion_05_optimal_levels_never_beaten():
    rng = np.random.default_rng(20240820)
    pool = [(fam, beta, nbits) for fam, beta in STANDARD_SHAPES
            for nbits in (1, 2, 3, 4)]
    picks = rng.choice(len(pool), size=5, replace=False)
    worst_margin = math.inf
    for idx in picks:
        fam, beta, nbits = pool[idx]
        m = NoiseModel(fam, beta)
        spec, design = design_uniform(m, 2 ** nbits)
        best = 1.0 / design.info
        for _ in range(1000):
            levels = rng.uniform(0.05, 5.0, size=2 ** nbits // 2)
            s = sigma_inf_general(levels, design.probs, design.drops)
            worst_margin = min(worst_margin, s - best)
    report(5, worst_margin >= -1e-12, f"worst margin {worst_margin:.3e}")


def test_criterion_06_constant_monte_carlo():
    m = gg(2.0)
    sig = SignalModel(SignalKind.CONSTANT)
    ok, details = True, []
    for nbits in (2, 3):
        spec, design = design_uniform(m, 2 ** nbits)
        cfg = ExperimentConfig(sig, m, spec, replications=10_000,
                               horizon=2000, seed=20240801)
        res = run_experiment(cfg)
        normalized = res.mse_curve[-1] * 2000 * design.info
        ok &= abs(normalized - 1.0) <= 0.10
        # decreasing loss curve from a displaced start
        off = ExperimentConfig(sig, m, spec, replications=10_000,
                               horizon=2000, seed=20240801,
                               initial_offset=10.0)
        curve = run_experiment(off).loss_curve_db()
        l_theory = res.theory_loss_db
        decreasing = (curve[-1] < curve[len(curve) // 2]
                      and abs(curve[-1] - l_theory)
                      < abs(curve[len(curve) // 2] - l_theory))
        ok &= decreasing
        details.append(f"nb{nbits} kMSE*Iq={normalized:.4f} "
                       f"decay={'yes' if decreasing else 'no'}")
    report(6, ok, "; ".join(details))


def test_criterion_07_wiener_monte_carlo():
    sigma_w = 0.001
    ok, details = True, []
    for m in (gg(2.0), st(1.0)):
        for nbits in (2, 4):
            spec, design = design_uniform(m, 2 ** nbits)
            sig = SignalModel(SignalKind.WIENER, sigma_w=sigma_w)
            cfg = ExperimentConfig(sig, m, spec, replications=2000,
                                   horizon=20_000, burn_in=1000,
                                   seed=20240802)
            res = run_experiment(cfg)
            predicted = sigma_w / math.sqrt(design.info)
            rel = res.asymptotic_mse / predicted - 1.0
            gap = res.simulated_loss_db - res.theory_loss_db
            ok &= abs(rel) <= 0.10 and abs(gap) <= 0.3
            details.append(f"{m.family.value}{m.beta:g}/nb{nbits} "
                           f"mse{rel:+.3f} loss{gap:+.3f}dB")
    report(7, ok, "; ".join(details))


def test_criterion_08_dithering_at_large_sigma_w():
    m = gg(2.0)
    sigma_w = 0.1
    sims, theories = [], []
    for nbits in (1, 2, 3, 4):
        spec, design = design_uniform(m, 2 ** nbits)
        sig = SignalModel(SignalKind.WIENER, sigma_w=sigma_w)
        cfg = ExperimentConfig(sig, m, spec, replications=2000,
                               horizon=5000, burn_in=1000, seed=20240803)
        res = run_experiment(cfg)
        sims.append(res.simulated_loss_db)
        theories.append(res.theory_loss_db)
    below = all(s < t for s, t in zip(sims, theories))
    decreasing = bool(np.all(np.diff(sims) < 0.0))
    report(8, below and decreasing,
           "sim " + "/".join(f"{v:.3f}" for v in sims)
           + " vs theory " + "/".join(f"{v:.3f}" for v in theories))


def test_criterion_09_drift_monte_carlo():
    u = sigma_w = 1e-4
    ok, details = True, []
    for m in (gg(2.0), st(1.0)):
        for nbits in (2, 4):
            spec, design = design_uniform(m, 2 ** nbits)
            sig = SignalModel(SignalKind.WIENER_DRIFT, sigma_w=sigma_w, u=u)
            cfg = ExperimentConfig(sig, m, spec, replications=1000,
                                   horizon=20_000, burn_in=1000,
                                   seed=20240804, drift_gain=1e-5,
                                   drift_initial=None)  # start at true drift
            res = run_experiment(cfg)
            predicted = 3.0 * (u / (4.0 * design.info)) ** (2.0 / 3.0)
            rel = res.asymptotic_mse / predicted - 1.0
            offset = res.simulated_loss_db - res.theory_loss_db
            ok &= abs(rel) <= 0.20 and -0.15 < offset < 0.5
            details.append(f"{m.family.value}{m.beta:g}/nb{nbits} "
                           f"mse{rel:+.3f} offset{offset:+.3f}dB")
    report(9, ok, "; ".join(details))


def test_criterion_10_bcrb_consistency():
    worst_fp, worst_approx = 0.0, 0.0
    for ic in (0.5, 1.0, 2.0):
        for sw in (1e-4, 1e-3):
            closed = bcrb_asymptotic(ic, sw)
            fixed_point = 1.0 / bcrb_recursion(ic, sw, 200_000)[-1]
            worst_fp = max(worst_fp, abs(closed - fixed_point))
            approx = bcrb_asymptotic_approx(ic, sw)
            worst_approx = max(worst_approx, abs(closed - approx) / closed)
    ok = worst_fp <= 1e-10 and worst_approx < 1e-3
    report(10, ok, f"fixed-point gap {worst_fp:.2e}, "
                   f"approx gap {worst_approx:.2e}")


def test_criterion_11_stability_and_ode_convergence():
    stable = True
    for family, beta in STANDARD_SHAPES:
        m = NoiseModel(family, beta)
        for nbits in range(1, 6):
            _, design = design_uniform(m, 2 ** nbits)
            stable &= check_stability(m, design).passed
    m = gg(2.0)
    _, design = design_uniform(m, 8)
    traj = ode_mean_trajectory(m, design, x0_hat=5.0 * m.delta,
                               x=0.0, horizon=10_000)
    final = abs(traj[-1])
    ok = stable and final < 1e-3 * m.delta
    report(11, ok, f"all designs stable: {stable}, "
                   f"final mean error {final:.3e}")


def test_criterion_12_deterministic_csv(tmp_path):
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    sig = SignalModel(SignalKind.WIENER, sigma_w=0.01)
    cfg = ExperimentConfig(sig, m, spec, replications=1500, horizon=400,
                           burn_in=100, seed=20240805)
    blobs = []
    for tag in ("a", "b"):
        res = run_experiment(cfg)
        path = tmp_path / f"{tag}.csv"
        write_result_csv(res, path)
        blobs.append(path.read_bytes())
    ok = all(b == blobs[0] for b in blobs[1:])
    report(12, ok, "byte-identical across repeats")
