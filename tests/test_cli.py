"""Command-line interface: argument handling, outputs, exit codes."""

import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from adaptquant import cli
from adaptquant.cli import load_experiment_config, main
from adaptquant.simulator import run_experiment


def run_cli(args):
    return main(args)


def test_no_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_design_command(tmp_path, capsys):
    rc = main(["design", "--noise", "gg", "--beta", "2", "--nbits", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I_q" in out and "1.2732" in out  # 4/pi
    assert "1.9612" in out
    table = tmp_path / "design_gg2_nb1.txt"
    assert table.exists()
    assert (tmp_path / "design_gg2_nb1.manifest").exists()
    text = table.read_text()
    assert "iq = " in text and "eta = " in text


def test_design_command_rejects_heavy_gg(tmp_path, capsys):
    rc = main(["design", "--noise", "gg", "--beta", "0.5", "--nbits", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_design_roundtrips_through_loader(tmp_path):
    from adaptquant.quantizer import load_design

    main(["design", "--noise", "st", "--beta", "3", "--nbits", "2",
          "--out", str(tmp_path)])
    model, spec, design = load_design(tmp_path / "design_st3_nb2.txt")
    assert model.beta == 3.0
    assert spec.n_intervals == 4
    assert design.info > 0


def test_loss_table_command(tmp_path):
    rc = main(["loss-table", "--noises", "gg:2,st:1", "--nbits", "1,2",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = [ln for ln in (tmp_path / "loss_table.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0] == "family,beta,nbits,c_delta,iq,lq_db,lq_wiener_db,lq_drift_db"
    assert len(lines) == 1 + 4  # header + 2 noises x 2 bit counts
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["family"] == "gg" and row["nbits"] == "1"
    assert float(row["lq_db"]) == pytest.approx(1.9612, abs=5e-5)
    # half and two-thirds loss columns
    assert float(row["lq_wiener_db"]) == pytest.approx(1.9612 / 2, abs=5e-5)
    assert float(row["lq_drift_db"]) == pytest.approx(2 * 1.9612 / 3, abs=5e-5)


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


def test_load_experiment_config_quantized(tmp_path):
    cfg_path = write_config(tmp_path / "exp.cfg", """\
        [signal]
        kind = constant
        x0 = 0.0

        [noise]
        family = gg
        beta = 2.0

        [quantizer]
        mode = quantized
        nbits = 2
        cdelta = auto

        [run]
        replications = 100
        horizon = 50
        seed = 42
        initial_offset = 10
        """)
    config, mode = load_experiment_config(cfg_path)
    assert mode == "quantized"
    assert config.quantizer.n_intervals == 4
    assert config.quantizer.c_delta == pytest.approx(0.69)
    assert config.replications == 100
    assert config.seed == 42
    assert config.initial_offset == 10.0
    # seed override wins
    config2, _ = load_experiment_config(cfg_path, seed_override=7)
    assert config2.seed == 7


def test_load_experiment_config_continuous_and_drift(tmp_path):
    cfg_path = write_config(tmp_path / "exp.cfg", """\
        [signal]
        kind = wiener_drift
        sigma_w = 1e-4
        u = 1e-4

        [noise]
        family = st
        beta = 1.0

        [quantizer]
        mode = continuous

        [run]
        replications = 10
        horizon = 100

        [drift_estimator]
        gain = 1e-5
        initial = true
        """)
    config, mode = load_experiment_config(cfg_path)
    assert mode == "continuous"
    assert config.quantizer is None
    assert config.drift_gain == 1e-5
    assert config.drift_initial is None  # oracle warm start
    assert config.signal.u == 1e-4


@pytest.mark.parametrize("section, key, value, where", [
    ("signal", "u", "nan", "u must be finite"),
    ("quantizer", "nbits", "0", "nbits must be >= 1"),
    ("quantizer", "nbits", "-1", "nbits must be >= 1"),
])
def test_load_experiment_config_rejects_bad_values(tmp_path, section, key, value,
                                                   where):
    entries = {"signal": {"kind": "wiener_drift", "sigma_w": "0.1", "u": "1e-4"},
               "noise": {"family": "gg", "beta": "2.0"},
               "quantizer": {"cdelta": "0.69"}}
    entries[section][key] = value
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
        for name, body in entries.items()))
    with pytest.raises(ValueError, match=where):
        load_experiment_config(cfg_path)


def test_load_experiment_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_experiment_config(tmp_path / "nope.cfg")


def test_simulate_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "small.cfg", """\
        [signal]
        kind = constant

        [noise]
        family = gg
        beta = 2.0

        [quantizer]
        nbits = 2
        cdelta = 0.69

        [run]
        replications = 200
        horizon = 100
        seed = 5
        """)
    rc = main(["simulate", "--config", cfg_path, "--threads", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulated_loss" in out and "diverged = 0" in out
    csv = (tmp_path / "out" / "small.csv").read_text()
    body = [ln for ln in csv.splitlines() if not ln.startswith("#")]
    assert body[0] == "k,mse,theory_mse"
    assert len(body) == 1 + 100
    assert (tmp_path / "out" / "small.summary").exists()
    # the flag parses but reaches no engine, so the manifest does not record it
    assert "threads" not in (tmp_path / "out" / "small.manifest").read_text()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path / "s.cfg", """\
        [signal]
        kind = constant

        [noise]
        family = gg
        beta = 2.0

        [quantizer]
        nbits = 1
        cdelta = 1.0

        [run]
        replications = 64
        horizon = 50
        seed = 5
        """)
    main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg_path, "--seed", "99",
          "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "s.csv").read_text()
    b = (tmp_path / "b" / "s.csv").read_text()
    assert a != b


def test_figures_command_smoke(tmp_path, monkeypatch):
    configs = []

    def counting_run(config, **kwargs):
        configs.append(config)
        return run_experiment(config, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", counting_run)
    rc = main(["figures", "--out", str(tmp_path), "--replications", "16",
               "--horizon", "64"])
    assert rc == 0
    # 28 constant, 28 wiener, 8 fast wiener and 8 drift runs; the slow wiener
    # runs of fig_wiener_sigma.csv reuse those of fig_wiener.csv
    assert len(configs) == 72
    assert len(set(configs)) == 72
    expected = ["fig_loss_table.csv", "fig_constant.csv", "fig_wiener.csv",
                "fig_wiener_sigma.csv", "fig_drift.csv"]
    for name in expected:
        path = tmp_path / name
        assert path.exists(), name
        assert len(path.read_text().strip().splitlines()) > 1


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("body, where", [
    ("[run]\nreplication = 10\n", "'replication' in section [run]"),
    ("[drift_estimator]\ngian = 1e-5\n", "'gian' in section [drift_estimator]"),
    ("[DEFAULT]\nseed = 3\n", "'seed' in section [DEFAULT]"),
    ("[runs]\nreplications = 10\n", "section [runs]"),
])
def test_unknown_config_entries_rejected(tmp_path, body, where):
    cfg_path = write_config(tmp_path / "typo.cfg", """\
        [signal]
        kind = constant

        [noise]
        family = gg
        beta = 2.0

        [quantizer]
        cdelta = 0.69
        """)
    with open(cfg_path, "a") as fh:
        fh.write(body)
    with pytest.raises(ValueError, match=re.escape(where)):
        load_experiment_config(cfg_path)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_example_configs_load(path):
    config, mode = load_experiment_config(path)
    assert mode == "quantized" and config.quantizer is not None


def test_readme_config_block_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg_path = tmp_path / "readme.cfg"
    cfg_path.write_text(block)
    config, mode = load_experiment_config(cfg_path)
    assert mode == "quantized"
    assert config.signal.kind.value == "wiener_drift"


@pytest.mark.parametrize("subcommand", [["simulate", "--config", "x.cfg"]])
@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_must_be_positive(capsys, subcommand, threads):
    with pytest.raises(SystemExit):
        main(subcommand + ["--threads", threads])
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["design", "--noise", "gg", "--beta", "2", "--nbits", "0"],
    ["design", "--noise", "gg", "--beta", "2", "--nbits", "-1"],
    ["loss-table", "--nbits", "0,2"],
    ["loss-table", "--nbits", "2,-1"],
])
def test_nbits_must_be_positive(tmp_path, capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(tmp_path)])
    assert "--nbits" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
