"""Command-line front end.

Subcommands:

* ``design``     : optimize and print/persist a quantizer design table
* ``loss-table`` : CSV of quantization losses over noises and bit counts
* ``simulate``   : run one Monte Carlo experiment from a config file
* ``figures``    : emit the CSV sets behind the standard loss/tracking plots

Experiment configuration lives in INI-style files (see configs/ for
examples); command-line flags override file values.  Every run writes a
manifest echoing the fully resolved configuration.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, analysis, simulator
from .noise import STANDARD_SHAPES, Family, NoiseModel
from .quantizer import (
    DEFAULT_CDELTA_GRID,
    QuantizerSpec,
    build_design,
    design_uniform,
    optimize_cdelta,
    save_design,
)
from .simulator import (
    ExperimentConfig,
    SignalKind,
    SignalModel,
    run_continuous_reference,
    run_experiment,
    write_result_csv,
    write_summary,
)

SEVEN_NOISES = [(fam.value, beta) for fam, beta in STANDARD_SHAPES]


def _fmt(x):
    return f"{x:.12g}"


def _grid_from_args(args):
    return (args.grid_min, args.grid_max, args.grid_step)


def _write_manifest(out_dir: Path, name: str, entries: dict) -> None:
    lines = [f"version = {__version__}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())]
    (out_dir / f"{name}.manifest").write_text("\n".join(lines) + "\n")


# ---- design -------------------------------------------------------------


def cmd_design(args) -> int:
    model = NoiseModel(Family(args.noise), args.beta, args.delta)
    n_intervals = 2**args.nbits
    grid = _grid_from_args(args)
    try:
        ic = model.fisher_continuous()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec, design = design_uniform(model, n_intervals, grid)
    lq = analysis.loss_constant_db(design.info, ic)
    print(f"noise       : {model.family.value} beta={model.beta} delta={model.delta}")
    print(f"n_intervals : {n_intervals} (nbits={args.nbits})")
    print(f"c_delta*    : {_fmt(spec.c_delta)}")
    print(f"eta*        : {' '.join(_fmt(v) for v in design.levels)}")
    print(f"I_q         : {_fmt(design.info)}")
    print(f"I_c         : {_fmt(ic)}")
    print(f"L_q (dB)    : {lq:.4f}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"design_{model.family.value}{model.beta:g}_nb{args.nbits}"
    save_design(out_dir / f"{name}.txt", model, spec, design)
    _write_manifest(out_dir, name, {
        "subcommand": "design", "noise": args.noise, "beta": args.beta,
        "delta": args.delta, "nbits": args.nbits, "grid": grid,
    })
    print(f"design table written to {out_dir / (name + '.txt')}")
    return 0


# ---- loss table ---------------------------------------------------------


def _parse_noises(text):
    out = []
    for item in text.split(","):
        fam, _, beta = item.strip().partition(":")
        out.append((fam, float(beta)))
    return out


def _loss_rows(noises, nbits_list, grid=DEFAULT_CDELTA_GRID, delta=1.0):
    """CSV lines (header first) of the three losses per noise and bit count."""
    rows = ["family,beta,nbits,c_delta,iq,lq_db,lq_wiener_db,lq_drift_db"]
    for fam, beta in noises:
        model = NoiseModel(Family(fam), beta, delta)
        ic = model.fisher_continuous()
        for nb in nbits_list:
            c_delta, iq = optimize_cdelta(model, 2**nb, grid)
            losses = [analysis.loss_db(kind, iq, ic) for kind in SignalKind]
            rows.append(",".join([fam, _fmt(beta), str(nb), _fmt(c_delta), _fmt(iq)]
                                 + [_fmt(v) for v in losses]))
    return rows


def cmd_loss_table(args) -> int:
    noises = _parse_noises(args.noises) if args.noises else SEVEN_NOISES
    grid = _grid_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "loss_table.csv"
    lines = (["# adaptquant loss table", f"# grid = {grid}"]
             + _loss_rows(noises, args.nbits, grid, args.delta))
    path.write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, "loss_table", {
        "subcommand": "loss-table", "noises": noises, "nbits": args.nbits,
        "grid": grid, "delta": args.delta,
    })
    print(f"loss table written to {path}")
    return 0


# ---- simulate -----------------------------------------------------------


#: every section and key an experiment file may set
CONFIG_KEYS = {
    "signal": {"kind", "x0", "sigma_w", "u"},
    "noise": {"family", "beta", "delta"},
    "quantizer": {"mode", "nbits", "cdelta", "grid_min", "grid_max", "grid_step"},
    "run": {"replications", "horizon", "burn_in", "seed", "initial_offset"},
    "drift_estimator": {"gain", "initial"},
}


def load_experiment_config(path, seed_override=None) -> tuple[ExperimentConfig, str]:
    """Parse an INI experiment file into an ExperimentConfig.

    Returns (config, mode) where mode is 'quantized' or 'continuous'.
    A section or key outside ``CONFIG_KEYS`` raises ValueError, so a typo
    cannot silently fall back to a default.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for section in [parser.default_section] + parser.sections():
        if section not in CONFIG_KEYS and section != parser.default_section:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in CONFIG_KEYS.get(section, ()):
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
    sig = parser["signal"]
    signal = SignalModel(
        kind=SignalKind(sig.get("kind", "constant")),
        x0=sig.getfloat("x0", 0.0),
        sigma_w=sig.getfloat("sigma_w", 0.0),
        u=sig.getfloat("u", 0.0),
    )
    noi = parser["noise"]
    noise = NoiseModel(Family(noi.get("family", "gg")),
                       noi.getfloat("beta", 2.0), noi.getfloat("delta", 1.0))
    qua = parser["quantizer"] if parser.has_section("quantizer") else {}
    mode = qua.get("mode", "quantized")
    spec = None
    if mode == "quantized":
        nbits = int(qua.get("nbits", "2"))
        if nbits < 1:
            raise ValueError(f"{path}: [quantizer] nbits must be >= 1, got {nbits}")
        cdelta_raw = qua.get("cdelta", "auto")
        if cdelta_raw == "auto":
            grid = (float(qua.get("grid_min", DEFAULT_CDELTA_GRID[0])),
                    float(qua.get("grid_max", DEFAULT_CDELTA_GRID[1])),
                    float(qua.get("grid_step", DEFAULT_CDELTA_GRID[2])))
            cdelta, _ = optimize_cdelta(noise, 2**nbits, grid)
        else:
            cdelta = float(cdelta_raw)
        spec = QuantizerSpec.uniform(2**nbits, cdelta)
    elif mode != "continuous":
        raise ValueError(f"unknown quantizer mode {mode!r}")
    run = parser["run"] if parser.has_section("run") else {}
    drift = parser["drift_estimator"] if parser.has_section("drift_estimator") else {}
    drift_initial_raw = drift.get("initial", "0")
    drift_initial = None if drift_initial_raw == "true" else float(drift_initial_raw)
    config = ExperimentConfig(
        signal=signal,
        noise=noise,
        quantizer=spec,
        replications=int(run.get("replications", "10000")),
        horizon=int(run.get("horizon", "2000")),
        burn_in=int(run.get("burn_in", "0")),
        seed=(seed_override if seed_override is not None
              else int(run.get("seed", "0"))),
        initial_offset=float(run.get("initial_offset", "0")),
        drift_gain=float(drift.get("gain", "1e-5")),
        drift_initial=drift_initial,
    )
    return config, mode


def cmd_simulate(args) -> int:
    config, mode = load_experiment_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(args.config).stem
    if mode == "continuous":
        result = run_continuous_reference(config)
    else:
        result = run_experiment(config)
    write_result_csv(result, out_dir / f"{name}.csv")
    write_summary(result, out_dir / f"{name}.summary")
    manifest = dict(result.metadata)
    manifest.update({"subcommand": "simulate", "config": str(args.config)})
    _write_manifest(out_dir, name, manifest)
    print(f"{name}: simulated_loss = {result.simulated_loss_db:.4f} dB, "
          f"theory = {result.theory_loss_db:.4f} dB, "
          f"diverged = {result.diverged}")
    frac = result.diverged / config.replications
    return 0 if frac < 0.5 else 2


# ---- figures ------------------------------------------------------------


def _figure_config(signal, noise, nbits, args, burn_in, horizon, reps):
    cdelta, _ = optimize_cdelta(noise, 2**nbits)
    return ExperimentConfig(
        signal=signal, noise=noise,
        quantizer=QuantizerSpec.uniform(2**nbits, cdelta),
        replications=reps, horizon=horizon, burn_in=burn_in,
        seed=args.seed, drift_initial=None,
    )


def cmd_figures(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    nb_all = [1, 2, 3, 4, 5]
    nb_sim = [2, 3, 4, 5]

    # loss table over the seven standard noises
    (out_dir / "fig_loss_table.csv").write_text(
        "# theoretical quantization losses\n"
        + "\n".join(_loss_rows(SEVEN_NOISES, nb_all)) + "\n")

    reps = args.replications
    sample_every = max(1, args.horizon // 200)
    results = {}  # by config: fig_wiener_sigma repeats the sigma_w = 0.001 runs

    def run(cfg):
        if cfg not in results:
            results[cfg] = run_experiment(cfg)
        return results[cfg]

    # constant-case convergence curves
    rows = ["family,beta,nbits,k,loss_sim_db,loss_theory_db"]
    for fam, beta in SEVEN_NOISES:
        noise = NoiseModel(Family(fam), beta)
        for nb in nb_sim:
            cfg = _figure_config(SignalModel(SignalKind.CONSTANT), noise, nb,
                                 args, 0, args.horizon, reps)
            cfg = replace(cfg, initial_offset=10.0)
            res = run(cfg)
            curve = res.loss_curve_db()
            for k in range(sample_every, args.horizon + 1, sample_every):
                rows.append(f"{fam},{_fmt(beta)},{nb},{k},"
                            f"{_fmt(curve[k - 1])},{_fmt(res.theory_loss_db)}")
    (out_dir / "fig_constant.csv").write_text(
        "# simulated vs theoretical loss, constant parameter\n"
        + "\n".join(rows) + "\n")

    # wiener tracking losses, small increments
    horizon_w = max(args.horizon, 4000)
    burn_w = horizon_w // 4
    rows = ["family,beta,nbits,sigma_w,loss_sim_db,loss_theory_db"]
    for fam, beta in SEVEN_NOISES:
        noise = NoiseModel(Family(fam), beta)
        for nb in nb_sim:
            cfg = _figure_config(
                SignalModel(SignalKind.WIENER, sigma_w=0.001), noise, nb,
                args, burn_w, horizon_w, reps)
            res = run(cfg)
            rows.append(f"{fam},{_fmt(beta)},{nb},0.001,"
                        f"{_fmt(res.simulated_loss_db)},{_fmt(res.theory_loss_db)}")
    (out_dir / "fig_wiener.csv").write_text(
        "# simulated vs theoretical loss, random-walk parameter\n"
        + "\n".join(rows) + "\n")

    # wiener: fast vs slow parameter motion (dithering comparison)
    rows = ["family,beta,nbits,sigma_w,loss_sim_db,loss_theory_db"]
    for fam, beta in [("gg", 2.0), ("st", 1.0)]:
        noise = NoiseModel(Family(fam), beta)
        for sigma_w in (0.1, 0.001):
            for nb in nb_sim:
                cfg = _figure_config(
                    SignalModel(SignalKind.WIENER, sigma_w=sigma_w), noise, nb,
                    args, burn_w, horizon_w, reps)
                res = run(cfg)
                rows.append(f"{fam},{_fmt(beta)},{nb},{_fmt(sigma_w)},"
                            f"{_fmt(res.simulated_loss_db)},"
                            f"{_fmt(res.theory_loss_db)}")
    (out_dir / "fig_wiener_sigma.csv").write_text(
        "# simulated loss at two random-walk speeds\n" + "\n".join(rows) + "\n")

    # drifting random walk, oracle-initialized drift estimator
    rows = ["family,beta,nbits,u,sigma_w,drift_gain,loss_sim_db,loss_theory_db"]
    for fam, beta in [("gg", 2.0), ("st", 1.0)]:
        noise = NoiseModel(Family(fam), beta)
        for nb in nb_sim:
            cfg = _figure_config(
                SignalModel(SignalKind.WIENER_DRIFT, sigma_w=1e-4, u=1e-4),
                noise, nb, args, burn_w, horizon_w, reps)
            res = run(cfg)
            rows.append(f"{fam},{_fmt(beta)},{nb},1e-04,1e-04,1e-05,"
                        f"{_fmt(res.simulated_loss_db)},{_fmt(res.theory_loss_db)}")
    (out_dir / "fig_drift.csv").write_text(
        "# simulated vs theoretical loss, drifting random walk\n"
        + "\n".join(rows) + "\n")

    _write_manifest(out_dir, "figures", {
        "subcommand": "figures", "replications": reps, "horizon": args.horizon,
        "seed": args.seed,
    })
    print(f"figure CSVs written to {out_dir}")
    return 0


# ---- argument parsing ---------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    """A comma list of positive ints, e.g. ``1,2,3``."""
    return [_positive_int(item) for item in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptquant",
        description="Adaptive estimation from quantized noisy observations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_grid(p):
        p.add_argument("--grid-min", type=float, default=DEFAULT_CDELTA_GRID[0])
        p.add_argument("--grid-max", type=float, default=DEFAULT_CDELTA_GRID[1])
        p.add_argument("--grid-step", type=float, default=DEFAULT_CDELTA_GRID[2])

    p = sub.add_parser("design", help="optimize a quantizer design")
    p.add_argument("--noise", choices=["gg", "st"], required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--nbits", type=_positive_int, required=True)
    add_grid(p)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("loss-table", help="loss table over noises and bit counts")
    p.add_argument("--noises", default=None,
                   help="comma list of family:beta, e.g. gg:2,st:1 "
                        "(default: the seven standard shapes)")
    p.add_argument("--nbits", type=_positive_ints, default="1,2,3,4,5")
    p.add_argument("--delta", type=float, default=1.0)
    add_grid(p)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_loss_table)

    p = sub.add_parser("simulate", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted and ignored: the engine runs on one thread")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figures", help="emit the standard figure CSV set")
    p.add_argument("--out", default="out/figures")
    p.add_argument("--replications", type=int, default=2000)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
