"""The summary ``tools/bench_pairs.py`` writes into every ``BENCH_*.json``:
medians, the parent's quartiles, wins and whether a gain exceeds the
parent's interquartile range, pinned on synthetic runs; and the one
bytecode state both trees run in."""

import importlib.util
import py_compile
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PARENT = [12.0, 8.0, 10.0, 11.0, 9.0]  # median 10, quartiles 9 and 11

METRICS = [{"name": "ns", "better": "lower"}, {"name": "rate", "better": "higher"}]


def _runs(values):
    return [{"ns": v, "rate": v} for v in values]


def _summary(bench_pairs, after):
    return bench_pairs.summarize(_runs(PARENT), _runs(after), METRICS)


@pytest.mark.parametrize("values", [PARENT, list(range(10)), [3.5, 1.0, 2.0, 8.0]])
def test_quartiles_interpolate_inclusively(bench_pairs, values):
    assert bench_pairs.quartiles(values) == pytest.approx(
        [np.percentile(values, 25), np.percentile(values, 75)], rel=0, abs=1e-12)


def test_summary_medians_quartiles_and_change(bench_pairs):
    summary = _summary(bench_pairs, [x - 2.5 for x in PARENT])
    for name in ("ns", "rate"):
        row = summary[name]
        assert (row["median_before"], row["median_after"]) == (10.0, 7.5)
        assert row["change"] == pytest.approx(-0.25)
        assert row["parent_quartiles"] == [9.0, 11.0]
        assert row["parent_iqr"] == 2.0
        assert row["pairs"] == 5


def test_wins_follow_the_direction_and_ties_count_for_neither(bench_pairs):
    # pair 2 is lower, pair 4 higher, the other three are ties
    summary = _summary(bench_pairs, [12.0, 7.0, 10.0, 12.0, 9.0])
    assert summary["ns"]["wins"] == 1
    assert summary["rate"]["wins"] == 1
    summary = _summary(bench_pairs, PARENT)
    assert summary["ns"]["wins"] == summary["rate"]["wins"] == 0


@pytest.mark.parametrize("shift, lower_gain, higher_gain", [
    (-2.5, True, False),   # medians 2.5 apart, beyond the parent's IQR of 2
    (-1.5, False, False),  # 1.5 apart, within it
    (1.5, False, False),
    (2.5, False, True),
])
def test_gain_exceeds_parent_iqr_on_either_side(bench_pairs, shift, lower_gain,
                                                higher_gain):
    summary = _summary(bench_pairs, [x + shift for x in PARENT])
    assert summary["ns"]["gain_exceeds_parent_iqr"] is lower_gain
    assert summary["rate"]["gain_exceeds_parent_iqr"] is higher_gain
    assert summary["ns"]["wins"] == (5 if shift < 0 else 0)
    assert summary["rate"]["wins"] == (5 if shift > 0 else 0)


def test_both_trees_import_their_modules_from_bytecode(bench_pairs, tmp_path,
                                                      monkeypatch):
    """A tree that holds ``__pycache__`` from earlier use and a fresh copy
    import their modules alike, from bytecode, under the environment that
    every run and probe gets."""
    trees = [tmp_path / "used", tmp_path / "fresh"]
    for tree in trees:
        (tree / "src").mkdir(parents=True)
        (tree / "bench").mkdir()
        (tree / "src" / "m.py").write_text("X = 1\n")
        (tree / "bench" / "w.py").write_text("Y = 2\n")
    py_compile.compile(str(trees[0] / "src" / "m.py"))
    assert bench_pairs.ENV["PYTHONDONTWRITEBYTECODE"] == "1"
    for tree in trees:
        bench_pairs.compile_tree(tree)
        proc = subprocess.run(
            [sys.executable, "-v", "-c", "import m, w"], cwd=tree,
            env=dict(bench_pairs.ENV, PYTHONPATH="src:bench"),
            capture_output=True, text=True, check=True)
        for folder, module in (("src", "m"), ("bench", "w")):
            assert re.search(rf"{folder}/__pycache__/{module}\.cpython-\d+\.pyc matches ",
                             proc.stderr)
    # every run and probe gets that environment
    envs = []

    def fake_run(args, **kwargs):
        envs.append(kwargs["env"])
        return subprocess.CompletedProcess(args, 0, 'facts: {}\n{"self_mb": 1.0}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.bench_run(trees[0], "w", 1, 1.0)
    bench_pairs.probe(trees[1], "w")
    assert envs == [bench_pairs.ENV, bench_pairs.ENV]
