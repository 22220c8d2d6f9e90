"""Run the benchmark on two source trees in alternating pairs; write the record.

    python tools/bench_pairs.py --parent ../parent --change . --out BENCH_new.json

Each tree is a source checkout holding ``bench/run.py``, ``src/`` and
``BENCHMARK.json``; a parent tree can be made with
``git archive <rev> | tar -x -C <dir>``.  There are ``PAIRS`` pairs, and
every workload of the change tree's ``BENCHMARK.json`` runs for its
``run_seconds``: no-regression is shown on every workload at the
benchmark's own run length.  Pair i runs
``python3 bench/run.py --workload W --seed i --seconds S --trace 0`` in both
trees back to back, the parent first at odd i and the change first at even
i, so a drift in the machine's speed falls on both sides alike.  The
workloads are taken in turn within each pair.

Both trees run in one bytecode state.  Before pair 1 each tree's ``src/``
and ``bench/`` are compiled afresh in place (``compileall -f``), and every
run and probe has ``PYTHONDONTWRITEBYTECODE=1``: each tree imports its own
modules from bytecode, whatever ``__pycache__`` it held before, so
``setup_s`` (a fresh-interpreter import) does not time a compile on one
side only.

The record holds the machine facts of the first run, every run's metrics
and outcome, and per workload and end-to-end metric the medians of both
sides, the parent's quartiles and interquartile range, and the number of
pairs the change wins (is better in, in the direction ``BENCHMARK.json``
gives).  It also holds, per tree and workload, one probe: one pass of the
workload in a fresh interpreter, with the ``ru_maxrss`` of the process
and of its waited-for children.  ``peak_rss_mb`` reads the first only, so
memory that moved into a child process shows in the second.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: alternating pairs per workload
PAIRS = 10

#: one pass of a workload in the tree given as argv[1]; prints the peak RSS
#: of this process and of its children
PROBE = """
import json, resource, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/bench", sys.argv[1] + "/src"]
import workloads
work = workloads.make(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    work.setup(1, Path(tmp))
    for op in work.next_pass():
        work.run_op(op, workloads.reset_dir(Path(tmp) / "op"))
mb = {"self_mb": resource.RUSAGE_SELF, "children_mb": resource.RUSAGE_CHILDREN}
print(json.dumps({k: resource.getrusage(v).ru_maxrss / 1024.0 for k, v in mb.items()}))
"""


#: the environment of every run and probe: nothing writes bytecode, so each
#: tree imports what ``compile_tree`` left in its ``__pycache__``
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def compile_tree(tree: Path) -> None:
    """Write fresh bytecode for every module under ``tree``'s ``src/`` and
    ``bench/``, over whatever ``__pycache__`` it held."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "bench"],
                   cwd=tree, env=ENV, check=True, stdout=subprocess.DEVNULL)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result object and facts."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=ENV, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: bench/run.py in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    facts = next(json.loads(line[len("facts: "):]) for line in lines
                 if line.startswith("facts: "))
    return dict(json.loads(lines[-1]), facts=facts)


def probe(tree: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tree), workload],
                          cwd=tree, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(before: list[dict], after: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [run[name] for run in before]
        a = [run[name] for run in after]
        lo, hi = quartiles(b)
        gap = statistics.median(b) - statistics.median(a)
        out[name] = {
            "median_before": statistics.median(b),
            "median_after": statistics.median(a),
            "change": statistics.median(a) / statistics.median(b) - 1.0,
            "parent_quartiles": [lo, hi],
            "parent_iqr": hi - lo,
            "wins": sum((x < y) if lower else (x > y) for x, y in zip(a, b)),
            "pairs": len(b),
            "gain_exceeds_parent_iqr": (gap if lower else -gap) > hi - lo,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="",
                        help="free text stored in the record, e.g. what is claimed")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = {name: {"before": [], "after": []} for name in names}
    machine = None
    for tree in trees.values():
        compile_tree(tree)
    for pair in range(1, PAIRS + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for name in names:
            for side in order:
                result = bench_run(trees[side], name, pair, seconds)
                facts = result["facts"]
                machine = machine or {k: v for k, v in facts["machine"].items()
                                      if k != "git_commit"}
                record = {"seed": pair, "pair": pair, "first": order[0],
                          "failed": result["failed"], "attempted": result["attempted"],
                          "correct": result["correct"],
                          "load_avg": [facts["load_avg_start"], facts["load_avg_end"]]}
                record.update({m: v["value"] for m, v in result["metrics"].items()})
                runs[name]["before" if side == "parent" else "after"].append(record)
                print(f"pair {pair} {name} {side}: " + ", ".join(
                    f"{m['name']} {record[m['name']]:.4g}" for m in metrics), flush=True)

    command = " ".join(spec["command"]) + " --workload <name> --seed <pair> " \
        f"--seconds {seconds:g} --trace 0"
    record = {
        "command": command,
        "how": ("alternating pairs on one machine in one session, written by "
                "tools/bench_pairs.py: for pair i (seed i) the parent tree and the "
                "change tree run back to back, the parent first at odd i and second "
                "at even ones. 'wins' counts the pairs in which the change is "
                "better; 'probe' is one pass per tree in a fresh interpreter, with "
                "the peak RSS of the process and of its waited-for children. "
                "Bytecode: before pair 1 each tree's src/ and bench/ were compiled "
                "in place with compileall -f, and every run and probe had "
                "PYTHONDONTWRITEBYTECODE=1, so both trees imported their own "
                "modules from fresh bytecode."),
        "note": args.note,
        "machine": machine,
        "workloads": {},
    }
    for name in names:
        before, after = runs[name]["before"], runs[name]["after"]
        record["workloads"][name] = {
            "before": before, "after": after,
            "summary": summarize(before, after, metrics),
            "probe": {side: probe(tree, name) for side, tree in trees.items()},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
