"""Command-line front end.

Subcommands:

* ``design``     : optimize and print/persist a quantizer design table
* ``loss-table`` : CSV of quantization losses over noises and bit counts
* ``simulate``   : run one Monte Carlo experiment from a config file
* ``figures``    : emit the CSV sets behind the standard loss/tracking plots

Experiment configuration lives in INI-style files (see configs/ for
examples); command-line flags override file values.  Every run writes a
manifest echoing the fully resolved configuration.  Input a command cannot
use ends it with one ``error:`` line and exit code 1, before it writes
anything.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from pathlib import Path

from . import __version__, analysis
from .noise import STANDARD_SHAPES, Family, NoiseModel
from .quantizer import (
    DEFAULT_CDELTA_GRID,
    MAX_NBITS,
    QuantizerSpec,
    design_uniform,
    optimize_cdelta,
    save_design,
)
from .simulator import (
    DivergenceError,
    ExperimentConfig,
    SignalKind,
    SignalModel,
    run_experiment,
    write_result_csv,
    write_summary,
)

SEVEN_NOISES = [(fam.value, beta) for fam, beta in STANDARD_SHAPES]


def _fmt(x):
    return f"{x:.12g}"


def _grid_from_args(args):
    return (args.grid_min, args.grid_max, args.grid_step)


def _intervals(nbits: int, name: str) -> int:
    """2**nbits, once the bit count ``name`` is known to be in 1..MAX_NBITS
    (a huge count would build a huge integer first)."""
    if not 1 <= nbits <= MAX_NBITS:
        raise ValueError(f"{name} must be >= 1 and <= MAX_NBITS = {MAX_NBITS}, "
                         f"got {nbits}")
    return 2**nbits


def _write_manifest(out_dir: Path, name: str, entries: dict) -> None:
    lines = [f"version = {__version__}"]
    lines += [f"{k} = {v}" for k, v in sorted(entries.items())]
    (out_dir / f"{name}.manifest").write_text("\n".join(lines) + "\n")


# ---- design -------------------------------------------------------------


def cmd_design(args) -> int:
    n_intervals = _intervals(args.nbits, "--nbits")
    grid = _grid_from_args(args)
    model = NoiseModel(Family(args.noise), args.beta, args.delta)
    ic = model.fisher_continuous()
    spec, design = design_uniform(model, n_intervals, grid)
    lq = analysis.loss_db(SignalKind.CONSTANT, design.info, ic)
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
    """(family, beta) pairs of ``--noises``, a comma list of family:beta."""
    out = []
    for item in text.split(","):
        fam, _, beta = item.strip().partition(":")
        try:
            out.append((Family(fam).value, float(beta)))
        except ValueError:
            families = " or ".join(f.value for f in Family)
            raise ValueError(f"--noises item {item!r}: expected family:beta "
                             f"with family {families}") from None
    return out


def _loss_rows(noises, nbits_list, grid=DEFAULT_CDELTA_GRID, delta=1.0):
    """CSV lines (header first) of the three losses per noise and bit count."""
    sizes = [(nb, _intervals(nb, "--nbits")) for nb in nbits_list]
    rows = ["family,beta,nbits,c_delta,iq,lq_db,lq_wiener_db,lq_drift_db"]
    for fam, beta in noises:
        model = NoiseModel(Family(fam), beta, delta)
        ic = model.fisher_continuous()
        for nb, n_intervals in sizes:
            c_delta, design = optimize_cdelta(model, n_intervals, grid)
            losses = [analysis.loss_db(kind, design.info, ic) for kind in SignalKind]
            rows.append(",".join([fam, _fmt(beta), str(nb), _fmt(c_delta),
                                  _fmt(design.info)]
                                 + [_fmt(v) for v in losses]))
    return rows


def cmd_loss_table(args) -> int:
    grid = _grid_from_args(args)
    noises = _parse_noises(args.noises) if args.noises else SEVEN_NOISES
    rows = _loss_rows(noises, args.nbits, grid, args.delta)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "loss_table.csv"
    lines = ["# adaptquant loss table", f"# grid = {grid}"] + rows
    path.write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, "loss_table", {
        "subcommand": "loss-table", "noises": noises, "nbits": args.nbits,
        "grid": grid, "delta": args.delta,
    })
    print(f"loss table written to {path}")
    return 0


# ---- simulate -----------------------------------------------------------


def _float_or_none(word):
    """Parser of a number, or of ``word`` standing for None."""
    return lambda text: None if text == word else float(text)


#: the experiment file schema, section -> key -> parser; a key that a file
#: leaves out is not passed, so it takes the default of the field it sets
CONFIG_KEYS = {
    "signal": {"kind": SignalKind, "x0": float, "sigma_w": float, "u": float},
    "noise": {"family": Family, "beta": float, "delta": float},
    "quantizer": {"mode": str, "nbits": int, "cdelta": _float_or_none("auto")},
    "run": {"replications": int, "horizon": int, "burn_in": int, "seed": int,
            "initial_offset": float},
    "drift_estimator": {"gain": float, "initial": _float_or_none("true")},
}


def load_experiment_config(path, seed_override=None) -> ExperimentConfig:
    """Parse an INI experiment file into an ExperimentConfig.

    ``config.quantizer`` is None for ``[quantizer] mode = continuous``.  A
    section or key outside ``CONFIG_KEYS`` raises ValueError, so a typo
    cannot silently fall back to a default; so does a key the run would not
    read (``nbits`` or ``cdelta`` in a continuous run, a ``[drift_estimator]``
    key when the signal does not drift), and a value a dataclass refuses,
    such as a nonzero ``burn_in`` on a constant signal, with the path in
    front.  The only defaults here are those no dataclass field holds:
    signal kind constant, GG noise with beta 2, and a quantized mode with 2
    bits and c_delta searched on ``DEFAULT_CDELTA_GRID``.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
    except configparser.Error as exc:  # not INI: no header, a repeated key
        raise ValueError(str(exc).replace("\n", " ")) from exc
    sections = {}
    for section in [parser.default_section, *parser.sections()]:
        if section not in CONFIG_KEYS and section != parser.default_section:
            raise ValueError(f"{path}: unknown section [{section}]")
        schema = CONFIG_KEYS.get(section, {})
        for key in parser[section]:
            if key not in schema:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
        sections[section] = values = {}
        for key, raw in parser.items(section):
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
    for name in ("signal", "noise"):
        if name not in sections:
            raise ValueError(f"{path}: missing section [{name}]")

    def build(make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:  # a dataclass's rule or a failed search, for this file
            raise ValueError(f"{path}: {exc}") from exc

    signal = build(SignalModel, **{"kind": SignalKind.CONSTANT, **sections["signal"]})
    noise = build(NoiseModel, **{"family": Family.GG, "beta": 2.0, **sections["noise"]})
    qua = {"mode": "quantized", "nbits": 2, "cdelta": None,
           **sections.get("quantizer", {})}
    mode = qua["mode"]
    if mode not in ("quantized", "continuous"):
        raise ValueError(f"{path}: [quantizer] mode = {mode!r}: "
                         f"unknown quantizer mode {mode!r}")
    # a key the run would not read is an error too, not a silent no-op
    unread = []
    if mode == "continuous":
        unread += [("quantizer", key, "mode = continuous") for key in ("nbits", "cdelta")]
    if signal.kind is not SignalKind.WIENER_DRIFT:
        unread += [("drift_estimator", key, f"[signal] kind = {signal.kind.value}")
                   for key in CONFIG_KEYS["drift_estimator"]]
    for section, key, setting in unread:
        if key in sections.get(section, {}):
            raise ValueError(f"{path}: [{section}] {key} is not read when {setting}")
    spec = None
    if mode == "quantized":
        n_intervals = _intervals(qua["nbits"], f"{path}: [quantizer] nbits")
        if qua["cdelta"] is None:
            spec, _ = build(design_uniform, noise, n_intervals)
        else:
            spec = build(QuantizerSpec.uniform, n_intervals, qua["cdelta"])
    run = sections.get("run", {})
    if seed_override is not None:
        run["seed"] = seed_override
    drift = {f"drift_{key}": value
             for key, value in sections.get("drift_estimator", {}).items()}
    return build(ExperimentConfig, signal, noise, spec, **run, **drift)


def cmd_simulate(args) -> int:
    config = load_experiment_config(args.config, args.seed)
    result = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(args.config).stem
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


#: the tracking figures of ``figures``, one row of simulated and theory loss
#: per noise, signal and bit count: file stem, comment line, descriptive
#: columns and the format of their cells, noises and signal models
TRACKING_FIGURES = (
    ("fig_wiener", "simulated vs theoretical loss, random-walk parameter",
     ("sigma_w",), ".12g", SEVEN_NOISES,
     [SignalModel(SignalKind.WIENER, sigma_w=0.001)]),
    ("fig_wiener_sigma", "simulated loss at two random-walk speeds",
     ("sigma_w",), ".12g", [("gg", 2.0), ("st", 1.0)],
     [SignalModel(SignalKind.WIENER, sigma_w=s) for s in (0.1, 0.001)]),
    ("fig_drift", "simulated vs theoretical loss, drifting random walk",
     ("u", "sigma_w", "drift_gain"), ".0e", [("gg", 2.0), ("st", 1.0)],
     [SignalModel(SignalKind.WIENER_DRIFT, sigma_w=1e-4, u=1e-4)]),
)


def cmd_figures(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    nb_sim = [2, 3, 4, 5]
    results = {}  # by config: fig_wiener_sigma repeats the sigma_w = 0.001 runs

    def run(signal, noise, nbits, **settings):
        """The c_delta-searched quantized run, the drift estimate started at
        the true drift."""
        spec, _ = design_uniform(noise, 2**nbits)
        cfg = ExperimentConfig(signal, noise, spec, replications=args.replications,
                               seed=args.seed, drift_initial=None, **settings)
        if cfg not in results:
            results[cfg] = run_experiment(cfg)
        return results[cfg]

    def write(name, comment, rows):
        (out_dir / f"{name}.csv").write_text(f"# {comment}\n" + "\n".join(rows) + "\n")

    write("fig_loss_table", "theoretical quantization losses",
          _loss_rows(SEVEN_NOISES, [1, 2, 3, 4, 5]))

    # constant-case convergence curves, sampled at about 200 steps
    sample_every = max(1, args.horizon // 200)
    rows = ["family,beta,nbits,k,loss_sim_db,loss_theory_db"]
    for fam, beta in SEVEN_NOISES:
        noise = NoiseModel(Family(fam), beta)
        for nb in nb_sim:
            res = run(SignalModel(SignalKind.CONSTANT), noise, nb,
                      horizon=args.horizon, initial_offset=10.0)
            curve = res.loss_curve_db()
            for k in range(sample_every, args.horizon + 1, sample_every):
                rows.append(f"{fam},{_fmt(beta)},{nb},{k},"
                            f"{_fmt(curve[k - 1])},{_fmt(res.theory_loss_db)}")
    write("fig_constant", "simulated vs theoretical loss, constant parameter", rows)

    horizon = max(args.horizon, 4000)
    for name, comment, columns, cell_format, noises, signals in TRACKING_FIGURES:
        rows = [",".join(["family,beta,nbits", *columns, "loss_sim_db,loss_theory_db"])]
        for fam, beta in noises:
            noise = NoiseModel(Family(fam), beta)
            for signal in signals:
                for nb in nb_sim:
                    res = run(signal, noise, nb, horizon=horizon, burn_in=horizon // 4)
                    rows.append(",".join(
                        [fam, _fmt(beta), str(nb)]
                        + [format(res.metadata[c], cell_format) for c in columns]
                        + [_fmt(res.simulated_loss_db), _fmt(res.theory_loss_db)]))
        write(name, comment, rows)

    _write_manifest(out_dir, "figures", {
        "subcommand": "figures", "replications": args.replications,
        "horizon": args.horizon, "seed": args.seed,
    })
    print(f"figure CSVs written to {out_dir}")
    return 0


# ---- argument parsing ---------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    """A comma list of positive ints, e.g. ``1,2,3``."""
    return [_positive_int(item) for item in text.split(",")]


@functools.cache  # one parse tree per process; parse_args leaves it unchanged
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
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted and ignored: the engine runs a chunk as two "
                        "processes where two CPUs are usable")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figures", help="emit the standard figure CSV set")
    p.add_argument("--out", default="out/figures")
    p.add_argument("--replications", type=_positive_int, default=2000)
    p.add_argument("--horizon", type=_positive_int, default=2000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DivergenceError) as exc:  # DesignError, no file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
