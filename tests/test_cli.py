"""Command-line interface: argument handling, outputs, exit codes."""

import argparse
import hashlib
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from adaptquant import cli
from adaptquant.cli import load_experiment_config, main
from adaptquant.noise import Family, NoiseModel
from adaptquant.quantizer import MAX_NBITS, QuantizerSpec, optimize_cdelta
from adaptquant.simulator import (
    ExperimentConfig,
    SignalKind,
    SignalModel,
    run_experiment,
)


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


def test_design_command_rejects_gg_beta_below_the_floor(tmp_path, capsys):
    rc = main(["design", "--noise", "gg", "--beta", "0.005", "--nbits", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "MIN_GG_BETA" in capsys.readouterr().err


def test_design_command_rejects_a_bad_grid(tmp_path, capsys):
    rc = main(["design", "--noise", "gg", "--beta", "2", "--nbits", "2",
               "--grid-min", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid c_delta grid")
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("noises", ["gg", "xx:2"])
def test_loss_table_names_a_malformed_noises_item(tmp_path, capsys, noises):
    out = tmp_path / "out"
    assert main(["loss-table", "--noises", f"st:1,{noises}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --noises item {noises!r}: expected family:beta")
    assert err.count("\n") == 1
    assert not out.exists()


def test_loss_table_command_rejects_a_bad_grid(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["loss-table", "--grid-step", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid c_delta grid")
    assert not out.exists()


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
    config = load_experiment_config(cfg_path)
    assert config.quantizer.n_intervals == 4
    assert config.quantizer.c_delta == pytest.approx(0.69)
    assert config.replications == 100
    assert config.seed == 42
    assert config.initial_offset == 10.0
    # seed override wins
    config2 = load_experiment_config(cfg_path, seed_override=7)
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
    config = load_experiment_config(cfg_path)
    assert config.quantizer is None
    assert config.drift_gain == 1e-5
    assert config.drift_initial is None  # oracle warm start
    assert config.signal.u == 1e-4


@pytest.mark.parametrize("section, key, value, where", [
    ("signal", "u", "nan", "u must be finite"),
    ("quantizer", "nbits", "0", "nbits must be >= 1"),
    ("quantizer", "nbits", "-1", "nbits must be >= 1"),
    ("quantizer", "mode", "foo",
     r"bad\.cfg: \[quantizer\] mode = 'foo': unknown quantizer mode"),
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


@pytest.mark.parametrize("extra", ["", "[run]\n"], ids=["no_run", "empty_run"])
def test_omitted_keys_take_the_dataclass_defaults(tmp_path, extra):
    cfg_path = tmp_path / "minimal.cfg"
    cfg_path.write_text("[signal]\nkind = constant\n[noise]\nfamily = gg\n" + extra)
    noise = NoiseModel(Family.GG, 2.0)
    c_star, _ = optimize_cdelta(noise, 4)
    assert load_experiment_config(cfg_path) == ExperimentConfig(
        SignalModel(SignalKind.CONSTANT), noise, QuantizerSpec.uniform(4, c_star))


def test_drift_file_without_drift_estimator_takes_the_config_default(tmp_path):
    cfg_path = write_config(tmp_path / "drift.cfg", """\
        [signal]
        kind = wiener_drift
        sigma_w = 1e-4
        u = 1e-4

        [noise]
        family = gg

        [quantizer]
        cdelta = 0.69
        """)
    config = load_experiment_config(cfg_path)
    assert config.drift_gain == ExperimentConfig.drift_gain
    assert config.drift_initial == ExperimentConfig.drift_initial


@pytest.mark.parametrize("body, where", [
    ("[noise]\nfamily = gg\n", "missing section [signal]"),
    ("[signal]\nkind = constant\n", "missing section [noise]"),
    ("[signal]\n[noise]\n[quantizer]\nmode = analog\n", "unknown quantizer mode 'analog'"),
    ("[signal]\n[noise]\nbeta = inf\n", "beta must be positive and finite"),
    ("[signal]\n[noise]\n[run]\nreplications = many\n", "'many'"),
    ("[signal]\n[noise]\nbeta = two\n", "[noise] beta"),
    ("[signal]\nkind = sine\n[noise]\n", "[signal] kind"),
])
def test_incomplete_or_invalid_files_rejected(tmp_path, body, where):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(where)):
        load_experiment_config(cfg_path)


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


#: tiny fixed-seed runs, 64 replications x 50 steps, and the sha256 of the
#: CSV ``simulate`` writes for each.  They pin the RNG layout of every
#: replication, not only of replication 0: a change that moves the layout
#: must update these values and announce it.
LAYOUT_PINS = {
    "constant_gg2": ("""\
        [signal]
        kind = constant
        [noise]
        family = gg
        beta = 2
        [quantizer]
        nbits = 2
        cdelta = 0.6
        [run]
        replications = 64
        horizon = 50
        seed = 20240801
        initial_offset = 2
        """, "637b5692f6c6538a7af0b8cb1bca58fb5d541598501aff912f0741de3ba86b1c"),
    "wiener_gg2p5": ("""\
        [signal]
        kind = wiener
        sigma_w = 0.01
        [noise]
        family = gg
        beta = 2.5
        [quantizer]
        nbits = 2
        cdelta = 0.6
        [run]
        replications = 64
        horizon = 50
        seed = 20240802
        """, "2f8025970bb4470c65f71d56f2fbd7320b3f39a68c1bc733e775f013e6309e8e"),
    "drift_st2": ("""\
        [signal]
        kind = wiener_drift
        sigma_w = 1e-3
        u = 1e-3
        [noise]
        family = st
        beta = 2
        [quantizer]
        nbits = 2
        cdelta = 0.8
        [run]
        replications = 64
        horizon = 50
        seed = 20240803
        """, "6c8000ac163825ab6d91c9e39070034d9102ec1babbdd7ba958175e2235d882b"),
}


@pytest.mark.parametrize("name", LAYOUT_PINS)
def test_simulate_output_bytes_are_pinned(tmp_path, name):
    body, digest = LAYOUT_PINS[name]
    cfg_path = write_config(tmp_path / f"{name}.cfg", body)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    csv = (tmp_path / f"{name}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == digest


def test_figures_command_smoke(tmp_path, monkeypatch):
    configs = []

    def counting_run(config):
        configs.append(config)
        return run_experiment(config)

    monkeypatch.setattr(cli, "run_experiment", counting_run)
    rc = main(["figures", "--out", str(tmp_path), "--replications", "16",
               "--horizon", "64"])
    assert rc == 0
    # 28 constant, 28 wiener, 8 fast wiener and 8 drift runs; the slow wiener
    # runs of fig_wiener_sigma.csv reuse those of fig_wiener.csv
    assert len(configs) == 72
    assert len(set(configs)) == 72
    tracking = "family,beta,nbits,sigma_w,loss_sim_db,loss_theory_db"
    expected = {  # file -> (comment, column header, row count)
        "fig_loss_table": ("theoretical quantization losses",
                           "family,beta,nbits,c_delta,iq,lq_db,lq_wiener_db,lq_drift_db",
                           7 * 5),
        "fig_constant": ("simulated vs theoretical loss, constant parameter",
                         "family,beta,nbits,k,loss_sim_db,loss_theory_db", 28 * 64),
        "fig_wiener": ("simulated vs theoretical loss, random-walk parameter",
                       tracking, 28),
        "fig_wiener_sigma": ("simulated loss at two random-walk speeds", tracking, 16),
        "fig_drift": ("simulated vs theoretical loss, drifting random walk",
                      "family,beta,nbits,u,sigma_w,drift_gain,loss_sim_db,loss_theory_db",
                      8),
    }
    tables = {}
    for name, (comment, header, n_rows) in expected.items():
        comment_line, header_line, *rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert (comment_line, header_line) == (f"# {comment}", header), name
        assert len(rows) == n_rows, name
        tables[name] = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert {row["sigma_w"] for row in tables["fig_wiener"]} == {"0.001"}
    assert {(row["u"], row["sigma_w"], row["drift_gain"])
            for row in tables["fig_drift"]} == {("1e-04", "1e-04", "1e-05")}

    def losses(rows):
        return {(r["family"], r["beta"], r["nbits"]): (r["loss_sim_db"], r["loss_theory_db"])
                for r in rows}

    wiener = losses(tables["fig_wiener"])
    slow = losses(r for r in tables["fig_wiener_sigma"] if r["sigma_w"] == "0.001")
    assert sorted(slow) == [(fam, beta, str(nb)) for fam, beta in (("gg", "2"), ("st", "1"))
                            for nb in range(2, 6)]
    assert all(wiener[key] == cells for key, cells in slow.items())


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("body, where", [
    ("[run]\nreplication = 10\n", "'replication' in section [run]"),
    ("[drift_estimator]\ngian = 1e-5\n", "'gian' in section [drift_estimator]"),
    ("[DEFAULT]\nseed = 3\n", "'seed' in section [DEFAULT]"),
    ("[runs]\nreplications = 10\n", "section [runs]"),
    # the c_delta grid of cdelta = auto is DEFAULT_CDELTA_GRID, not a setting
    ("grid_min = 0.01\n", "'grid_min' in section [quantizer]"),
    ("grid_max = 10.0\n", "'grid_max' in section [quantizer]"),
    ("grid_step = 0.01\n", "'grid_step' in section [quantizer]"),
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
    config = load_experiment_config(path)
    assert config.quantizer is not None


def test_readme_config_block_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg_path = tmp_path / "readme.cfg"
    cfg_path.write_text(block)
    config = load_experiment_config(cfg_path)
    assert config.quantizer is not None
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


@pytest.mark.parametrize("flag", ["--replications", "--horizon"])
def test_figures_counts_must_be_positive(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["figures", flag, "0", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "x.cfg", "--seed", "-1"],
    ["figures", "--seed", "-1"],
])
def test_negative_seed_flag_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_seed_in_config_rejected(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "neg.cfg", """\
        [signal]
        kind = constant
        [noise]
        family = gg
        [quantizer]
        cdelta = 0.69
        [run]
        seed = -1
        """)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err
    assert not out.exists()


RUN = "[run]\nreplications = 4\nhorizon = 10\n"


@pytest.mark.parametrize("text, message", [
    (None, "config file not found"),
    ("[signal]\n[noise]\nbeta = 1\n[quantizer]\nmode = continuous\n" + RUN,
     "requires a differentiable density"),
    ("[signal]\n[noise]\nbeta = 0.5\n[quantizer]\nmode = continuous\n" + RUN,
     "not finite"),
    ("[signal]\n[noise]\n[quantizer]\nnbits = 3\ncdelta = 30\n" + RUN,
     "vanishing probability mass"),
    ("kind = constant\n", "File contains no section headers"),
    ("[signal]\n[noise]\n[noise]\n", "section 'noise' already exists"),
    (f"[signal]\n[noise]\n[quantizer]\nnbits = {MAX_NBITS + 1}\n" + RUN,
     f"[quantizer] nbits must be >= 1 and <= MAX_NBITS = {MAX_NBITS}, "
     f"got {MAX_NBITS + 1}"),
], ids=["missing_file", "continuous_gg1", "continuous_gg0.5", "nb3_cdelta30",
        "no_section_header", "repeated_section", "nbits_above_max"])
def test_simulate_rejects_unusable_input_before_writing(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "bad.cfg"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["design", "--noise", "gg", "--beta", "2", "--nbits", str(MAX_NBITS + 1)],
    ["loss-table", "--noises", "gg:2", "--nbits", f"2,{MAX_NBITS + 1}"],
    ["design", "--noise", "gg", "--beta", "2", "--nbits", "20000"],
    ["loss-table", "--noises", "gg:2", "--nbits", "2,20000"],
], ids=["design", "loss-table", "design_20000", "loss-table_20000"])
def test_more_bits_than_max_nbits_is_one_error(tmp_path, capsys, argv):
    """Checked before 2**nbits is formed: 2**20000 has more digits than
    Python converts to a string."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--nbits must be >= 1 and <= MAX_NBITS = {MAX_NBITS}, got " in err
    assert not out.exists()


def test_main_runs_back_to_back_on_one_parser(tmp_path, capsys, monkeypatch):
    """design, loss-table and simulate in one process, an argparse error
    between them, and the parse tree is built once."""
    built = []  # the top-level parser adds its subcommands once per build
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting_add_subparsers(parser, **kwargs):
        built.append(parser)
        return add_subparsers(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        counting_add_subparsers)
    cfg_path = write_config(tmp_path / "small.cfg", """\
        [signal]
        kind = constant
        [noise]
        family = gg
        [quantizer]
        cdelta = 0.69
        [run]
        replications = 8
        horizon = 20
        """)
    design = ["design", "--noise", "st", "--beta", "2.5", "--nbits", "2"]
    cli.build_parser.cache_clear()
    try:
        assert main(design + ["--out", str(tmp_path / "a")]) == 0
        assert main(["loss-table", "--noises", "gg:2", "--nbits", "1,2",
                     "--out", str(tmp_path / "loss")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["design", "--noise", "gauss", "--beta", "2", "--nbits", "2"])
        assert exc.value.code == 2
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(design + ["--out", str(tmp_path / "b")]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert "--noise" in capsys.readouterr().err
    name = "design_st2.5_nb2.txt"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "loss" / "loss_table.csv").exists()
    assert (tmp_path / "sim" / "small.csv").exists()
