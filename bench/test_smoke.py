"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that a run prints every metric named in BENCHMARK.json with its
unit, and the wall-time figures beside them; that a corrupted expected
output is counted as a failed op; and that the benchmark refuses to run
without the package source.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_package()

import workloads  # noqa: E402  (needs the package on sys.path)

TINY = {
    "design_table": lambda: workloads.DesignTable(nbits=(1, 3),
                                                  grid=(0.05, 4.0, 0.05)),
    "mc_constant": lambda: workloads.mc_constant(replications=64, horizon=200),
    "mc_drift_long": lambda: workloads.mc_drift_long(
        replications=16, horizon=2000, burn_in=200),
    "online_scalar": lambda: workloads.OnlineScalar(length=5000, pool_passes=1),
}

#: how each workload's expected output is corrupted
CORRUPT = {
    "design_table": ("DesignTable", "expected_info",
                     lambda self, *a: 1.01 * workloads.scipy_info(*a)),
    "mc_constant": ("Simulate", "expected_loss_db",
                    lambda self, summary: float(summary["theory_loss_db"]) + 10.0),
    "mc_drift_long": ("Simulate", "expected_loss_db",
                      lambda self, summary: float(summary["theory_loss_db"]) + 10.0),
    "online_scalar": ("OnlineScalar", "expected_mse",
                      lambda self, stream: 1e-6),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "make", lambda name: TINY[name]())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_printed_with_unit(tiny, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = lines[:-1]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in table), m["name"]
    assert any(line.startswith("fail_frac ") for line in table)
    for name, unit in run.WALL_UNITS.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in table), name


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_expected_output_fails(tiny, monkeypatch, name):
    cls, attr, fake = CORRUPT[name]
    monkeypatch.setattr(getattr(workloads, cls), attr, fake)
    result = run.run(TINY[name](), seed=7, seconds=0.2, trace=False)
    assert result["failed"] > 0
    assert result["report"]["fail_frac"] > 0
    assert not result["correct"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
