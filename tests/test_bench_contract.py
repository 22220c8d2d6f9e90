"""The names the benchmark under bench/ looks up in the package.

``bench/tracing.py`` wraps package functions by module and attribute name,
and ``bench/workloads.py`` imports names at import time and writes the
experiment files its ``simulate`` workloads run.  Loading both here makes
deleting or renaming one of those names, an INI key the workloads set, or a
command-line flag they pass fail in this suite, not only in a benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from adaptquant.cli import load_experiment_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load("tracing").targets()
    assert targets
    for span, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), span


def test_workload_configs_load(tmp_path):
    workloads = _load("workloads")
    simulated = [w for w in map(workloads.make, workloads.NAMES) if hasattr(w, "template")]
    assert simulated
    for work in simulated:
        path = tmp_path / f"{work.name}.cfg"
        path.write_text(work.template.format(replications=work.replications,
                                             horizon=work.horizon, burn_in=work.burn_in))
        config = load_experiment_config(path)
        assert (config.replications, config.horizon) == (work.replications, work.horizon)


def _one_op(tmp_path, factory, args):
    """The workload made by ``factory(*args)`` and its first op, run."""
    workloads = _load("workloads")
    work = getattr(workloads, factory)(*args)
    work.setup(0, tmp_path)
    op = work.next_pass()[0]
    op.output = work.run_op(op, workloads.reset_dir(tmp_path / "out"))
    return work, op


@pytest.mark.parametrize("factory, args", [
    ("make", ("design_table",)),
    ("mc_constant", (8, 16)),
    ("mc_drift_long", (8, 32, 4)),
], ids=["design_table", "mc_constant", "mc_drift_long"])
def test_one_op_of_each_workload_runs(tmp_path, factory, args):
    # exit code and replays only: the loss band of ``check`` is set for the
    # benchmark's replication counts, not for 8
    work, op = _one_op(tmp_path, factory, args)
    assert op.output[0] == 0
    assert all(error is None for _, error in work.run_checks([op]))


@pytest.mark.parametrize("factory, args", [
    ("mc_constant", (256, 16)),
    ("mc_drift_long", (256, 32, 4)),
], ids=["mc_constant", "mc_drift_long"])
def test_one_op_of_each_workload_runs_split(tmp_path, forks, factory, args):
    # 256 replications exceed PAIRWISE_BLOCK, so on two CPUs the op and each
    # replay (mc_drift_long's threads=2 one included) run a forked half
    work, op = _one_op(tmp_path, factory, args)
    assert op.output[0] == 0 and len(forks) >= 1
    checks = work.run_checks([op])
    assert [error for _, error in checks] == [None] * len(checks)
    assert len(forks) >= 1 + len(checks)


def test_one_pass_of_online_scalar_runs(tmp_path):
    # one stream of each gain schedule through estimator.step_quantized
    workloads = _load("workloads")
    work = workloads.OnlineScalar(length=40, pool_passes=1)
    work.setup(0, tmp_path)
    ops = work.next_pass()
    assert {op.args.kind for op in ops} == set(workloads.ScheduleKind)
    for op in ops:
        x_hat = work.run_op(op, tmp_path)
        assert len(x_hat) == 40 and all(map(math.isfinite, x_hat))
