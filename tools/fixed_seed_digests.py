"""Print a sha256 digest of every output of a fixed set of CLI runs.

The runs go through ``adaptquant.cli.main`` in a fresh temporary directory:

* ``simulate`` on each ``configs/*.cfg``, given by its relative path, at the
  config's own seed;
* ``simulate`` on a small constant-signal GG beta = 2 config at 1 bit and at
  ``MAX_NBITS``, written by this script as ``lookup/constant_gg2_nb<n>.cfg``;
  with the 2..5-bit ``figures`` runs they take ``estimator.direction``'s
  array search through every round count from 0 to ``MAX_NBITS - 1``;
* ``figures --replications 16 --horizon 64``;
* ``loss-table`` with its defaults;
* ``design`` for GG beta = 2 and ST beta = 2.5 at 1, 3 and 5 bits, whose
  standard output is digested too, as ``design/<table name>.stdout``.

One ``sha256  name`` line is printed per output, sorted by name, with the
``wall_time_s`` line of each ``.summary`` file left out of its digest; every
other byte is fixed by the inputs.  Two versions of the package that print
the same lines write the same bytes.  PYTHONPATH chooses the package under
test, and the configs are those next to this script:

    PYTHONPATH=src python tools/fixed_seed_digests.py > change.txt
    PYTHONPATH=../parent/src python tools/fixed_seed_digests.py > parent.txt
    diff parent.txt change.txt
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

#: (noise, beta, nbits) of the ``design`` runs
DESIGNS = [(noise, beta, nbits) for noise, beta in (("gg", "2"), ("st", "2.5"))
           for nbits in (1, 3, 5)]

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
    run(["figures", "--replications", "16", "--horizon", "64", "--out", "out/figures"])
    run(["loss-table", "--out", "out/loss-table"])
    for noise, beta, nbits in DESIGNS:
        text = run(["design", "--noise", noise, "--beta", beta, "--nbits", str(nbits),
                    "--out", "out/design"])
        name = f"design_{noise}{float(beta):g}_nb{nbits}.stdout"
        Path("out/design", name).write_text(text)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".summary":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"wall_time_s"))
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    print(f"# adaptquant from {Path(cli.__file__).parent}", file=sys.stderr)
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "configs", Path(tmp, "configs"))
        os.chdir(tmp)
        try:
            write_outputs()
            out = Path("out")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
