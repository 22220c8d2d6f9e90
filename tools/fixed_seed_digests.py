"""Print a sha256 digest of every output of a fixed set of CLI runs.

The runs go through ``adaptquant.cli.main`` in a fresh temporary directory:

* ``simulate`` on each ``configs/*.cfg``, given by its relative path, at the
  config's own seed;
* ``simulate`` on a small constant-signal GG beta = 2 config at 1 bit and at
  ``MAX_NBITS``, written by this script as ``lookup/constant_gg2_nb<n>.cfg``;
  with the 2..5-bit ``figures`` runs they take ``estimator.direction``'s
  array search through every round count from 0 to ``MAX_NBITS - 1``;
* ``simulate`` in continuous mode (the engine's unquantized reference,
  through ``NoiseModel.score``) for GG beta = 1.7 with drift, ST beta = 3
  on a random walk and GG beta = 2.5 on a constant, written by this script
  as ``continuous/<name>.cfg``;
* ``figures --replications 16 --horizon 64``;
* ``loss-table`` with its defaults;
* ``design`` for GG beta = 2 and ST beta = 2.5 at 1, 3 and 5 bits, whose
  standard output is digested too, as ``design/<table name>.stdout``;
* more ``design`` runs, each into a directory of its own, that meet the
  c_delta search's geometry cache in the state the runs before them left:
  GG beta = 2 and ST beta = 2.5 at 5 bits with delta = 1 (an entry the
  runs above and ``loss-table`` filled), then with delta = 0.7; ST beta =
  2.5 at 5 bits on a grid of its own; GG beta = 2 at 8 bits; GG beta = 2
  and ST beta = 2.5 at 1 bit with delta = 0.7 on a grid of their own, whose
  search takes the grid's first point alone.

One ``sha256  name`` line is printed per output, sorted by name, with the
``wall_time_s`` line of each ``.summary`` file left out of its digest; every
other byte is fixed by the inputs.  The CSVs round the MSE curve to 12
digits, which can hide a last-ulp change in the recursion, so one more line
per Monte Carlo run, in run order, digests the raw bytes of its
``mse_curve``, read through a wrapper of ``cli.run_experiment``:
``mse_curve/<run index>_<signal>_<noise>_<nbits or continuous>``.  That is
77 output lines and 81 run lines (4 configs, 2 lookup, 3 continuous and 72
``figures`` runs).  Two versions of the package that print the same lines
write the same bytes and compute the same curves.  PYTHONPATH chooses the
package under test, and the configs are those next to this script:

    PYTHONPATH=src python tools/fixed_seed_digests.py > change.txt
    PYTHONPATH=../parent/src python tools/fixed_seed_digests.py > parent.txt
    diff parent.txt change.txt  # no output: all 158 lines agree
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from adaptquant import cli
from adaptquant.quantizer import MAX_NBITS

ROOT = Path(__file__).resolve().parents[1]

#: the noises of the ``design`` runs
DESIGN_NOISES = (("gg", "2"), ("st", "2.5"))

#: (out directory, noise, beta, nbits, further arguments) of the ``design``
#: runs, in run order
DESIGNS = ([("design", noise, beta, nbits, []) for noise, beta in DESIGN_NOISES
            for nbits in (1, 3, 5)]
           + [(f"design_delta{delta}", noise, beta, 5, ["--delta", delta])
              for delta in ("1", "0.7") for noise, beta in DESIGN_NOISES]
           + [("design_grid", "st", "2.5", 5,
               ["--grid-min", "0.05", "--grid-max", "6", "--grid-step", "0.05"]),
              ("design_nb8", "gg", "2", 8, [])]
           + [(f"design_nb1_{noise}", noise, beta, 1,
               ["--delta", "0.7", "--grid-min", "0.05", "--grid-max", "6",
                "--grid-step", "0.05"]) for noise, beta in DESIGN_NOISES])

#: the small ``simulate`` config run at each bit count of ``LOOKUP_NBITS``
LOOKUP_CONFIG = """\
[signal]
kind = constant
[noise]
family = gg
beta = 2
[quantizer]
nbits = {nbits}
[run]
replications = 64
horizon = 200
seed = 20
initial_offset = 3
"""
LOOKUP_NBITS = (1, MAX_NBITS)

#: the continuous-mode ``simulate`` configs: name -> (noise, signal) lines
CONTINUOUS_CONFIG = """\
[signal]
{signal}
[noise]
{noise}
[quantizer]
mode = continuous
[run]
replications = 64
horizon = 200
seed = 21
initial_offset = 3
"""
CONTINUOUS_RUNS = {
    "gg1.7_wiener_drift": ("family = gg\nbeta = 1.7",
                           "kind = wiener_drift\nsigma_w = 1e-3\nu = 1e-3"),
    "st3_wiener": ("family = st\nbeta = 3", "kind = wiener\nsigma_w = 0.1"),
    "gg2.5_constant": ("family = gg\nbeta = 2.5", "kind = constant"),
}


def run(argv) -> str:
    """``cli.main(argv)``'s standard output; a nonzero exit code ends the script."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"adaptquant {' '.join(argv)} exited with {code}")
    return stdout.getvalue()


def write_outputs() -> None:
    """Every run of the set, into ``out/`` under the working directory."""
    for config in sorted(Path("configs").glob("*.cfg")):
        run(["simulate", "--config", str(config), "--out", "out/simulate"])
    Path("lookup").mkdir()
    for nbits in LOOKUP_NBITS:
        config = Path("lookup", f"constant_gg2_nb{nbits}.cfg")
        config.write_text(LOOKUP_CONFIG.format(nbits=nbits))
        run(["simulate", "--config", config.as_posix(), "--out", "out/simulate"])
    Path("continuous").mkdir()
    for name, (noise, signal) in CONTINUOUS_RUNS.items():
        config = Path("continuous", f"{name}.cfg")
        config.write_text(CONTINUOUS_CONFIG.format(noise=noise, signal=signal))
        run(["simulate", "--config", config.as_posix(), "--out", "out/simulate"])
    run(["figures", "--replications", "16", "--horizon", "64", "--out", "out/figures"])
    run(["loss-table", "--out", "out/loss-table"])
    for out, noise, beta, nbits, extra in DESIGNS:
        text = run(["design", "--noise", noise, "--beta", beta, "--nbits", str(nbits),
                    *extra, "--out", f"out/{out}"])
        name = f"design_{noise}{float(beta):g}_nb{nbits}.stdout"
        Path("out", out, name).write_text(text)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".summary":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time_s"))
    return hashlib.sha256(data).hexdigest()


def run_name(config) -> str:
    """``<signal>_<noise>_<nbits or continuous>`` of an ExperimentConfig."""
    quantizer = config.quantizer
    return (f"{config.signal.kind.value}_{config.noise.family.value}"
            f"{config.noise.beta:g}_"
            + ("continuous" if quantizer is None else f"nb{quantizer.nbits}"))


def main() -> int:
    print(f"# adaptquant from {Path(cli.__file__).parent}", file=sys.stderr)
    cwd = Path.cwd()
    run_experiment, curves = cli.run_experiment, []

    def recorded(config):
        result = run_experiment(config)
        curves.append((run_name(config), result.mse_curve.tobytes()))
        return result

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "configs", Path(tmp, "configs"))
        os.chdir(tmp)
        cli.run_experiment = recorded
        try:
            write_outputs()
            out = Path("out")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
        finally:
            cli.run_experiment = run_experiment
            os.chdir(cwd)
    for i, (name, data) in enumerate(curves):
        print(f"{hashlib.sha256(data).hexdigest()}  mse_curve/{i:03d}_{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
