"""Benchmark entry point: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is the result object; the
lines before it are a readable table and the machine facts.  A results
file with the facts and the raw span aggregates is written under
``.bench_out/``.  See bench/README.md for the workloads and metrics.

Op times are reported at a fixed machine speed: a reference kernel
(bench/reference.py) is timed between ops and each op's wall time is
scaled by the kernel's nominal over its measured time around the op.
The raw wall-time figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-ups per run, each with a fresh-process import; setup_s is the median
#: of their times at the reference speed
SETUP_REPEATS = 9

#: the traced layers' self times must cover at least this share of the
#: traced op wall time; the rest is the harness and the tracer's own work
ACCOUNTED_MIN = 0.8


def _import_package():
    if not (SRC / "adaptquant" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'adaptquant'}")
    sys.path.insert(0, str(SRC))
    import adaptquant

    if Path(adaptquant.__file__).resolve().parent != SRC / "adaptquant":
        raise SystemExit(f"error: imported adaptquant from {adaptquant.__file__}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _first_line(path, prefix):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _import_fresh() -> None:
    """Start a fresh interpreter that imports the package, and wait for it.

    No timeout: with one, ``wait`` polls in sleeps of up to 50 ms, which
    would round every set-up time up to that grid.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import adaptquant.cli"],
                   env=env, cwd=ROOT, check=True)


def _quantile(values, q):
    import numpy

    return float(numpy.percentile(values, 100.0 * q))


def run(workload, seed: int, seconds: float, trace: bool,
        work_dir: Path | None = None) -> dict:
    """One benchmark run; returns the result object plus a report."""
    from reference import NOMINAL_S, Reference
    from tracing import Tracer, per_layer_metrics
    from workloads import dir_bytes, reset_dir

    work_dir = reset_dir(work_dir or OUT / "work" / workload.name)
    op_dir = work_dir / "op"
    load_start = os.getloadavg()[0]

    # the reference kernel is timed before and after every set-up and op
    reference = Reference()
    ref_before = reference.seconds()
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _import_fresh()
        workload.setup(seed, work_dir)
        setups.append(time.perf_counter() - t0)
        ref_after = reference.seconds()
        scaled_setups.append(setups[-1] * 2.0 * NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after

    # Whole passes run back to back while the next one, expected to last
    # as long as the last one, ends inside the window; a traced run
    # alternates untraced and traced passes and makes at least one of each.
    tracer = Tracer() if trace else None
    ops = []
    t_start = time.perf_counter()
    n_pass, last_pass = 0, 0.0
    while (n_pass < (2 if trace else 1)
           or time.perf_counter() - t_start + last_pass <= seconds):
        traced = trace and n_pass % 2 == 1
        pass_start = time.perf_counter()
        for op in workload.next_pass():
            reset_dir(op_dir)
            op.traced = traced
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    op.output = workload.run_op(op, op_dir)
                except Exception as exc:  # an op that raises counts as failed
                    op.error = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                op.seconds = time.perf_counter() - t0
            ref_after = reference.seconds()
            op.ref_seconds = (ref_before + ref_after) / 2.0
            ref_before = ref_after
            if op.error is None:
                try:
                    op.output = workload.shrink(op)
                except Exception as exc:  # a malformed output fails its check
                    op.error = f"output unreadable: {type(exc).__name__}: {exc}"
            op.io_bytes = dir_bytes(op_dir)
            ops.append(op)
        n_pass += 1
        last_pass = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        if op.error is None:
            try:
                op.error = workload.check(op)
            except Exception as exc:  # a malformed output fails its check
                op.error = f"check raised {type(exc).__name__}: {exc}"
    run_checks = workload.run_checks(ops)
    failures = [e for e in (op.error for op in ops) if e is not None]
    failures += [f"{what}: {e}" for what, e in run_checks if e is not None]
    attempted = len(ops) + len(run_checks)

    problems = []
    timed = [op for op in ops if not op.traced]
    times = [op.seconds for op in timed]
    if trace:
        traced_ops = [op for op in ops if op.traced]
        untraced_pass = _pass_times(timed, workload.pass_size)
        traced_pass = _pass_times(traced_ops, workload.pass_size)
        overhead = statistics.median(traced_pass) / statistics.median(untraced_pass) - 1.0
        wall = sum(op.seconds for op in traced_ops)
        metrics = per_layer_metrics(
            tracer, len(traced_ops), wall,
            sum(op.io_bytes for op in traced_ops), overhead)
        accounted = metrics["trace.accounted_frac"]
        if not ACCOUNTED_MIN <= accounted <= 1.0 + 1e-9:
            problems.append(f"layer self times cover {accounted:.3f} of the "
                            f"traced op wall time, outside [{ACCOUNTED_MIN}, 1]")
    else:
        scaled = [op.seconds * NOMINAL_S / op.ref_seconds for op in timed]
        metrics = {
            "ns_per_rep_step": _per_unit_ns(scaled, timed, workload.pass_size),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(scaled_setups),
        }
    # wall-time figures: printed and kept in the results file, not gated
    raw = {
        "wall_ns_per_rep_step": _per_unit_ns(times, timed, workload.pass_size),
        "op_s_p50": statistics.median(times),
        "op_s_p90": _quantile(times, 0.9),
        "ops_per_s": len(times) / sum(times),
        "wall_setup_s": statistics.median(setups),
        "ref_kernel_ms_p50": 1e3 * statistics.median(op.ref_seconds for op in timed),
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "timed_ops": len(timed),
        "wall": raw,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20] + problems,
        "setup_s_samples": setups,
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg()[0],
        "machine": machine_facts(),
        "ops": [[op.label, op.seconds, op.traced, op.ref_seconds] for op in ops],
    }
    if trace:
        spans, counts = tracer.totals()
        report["spans"] = {k: {"calls": c, "total_s": t, "self_s": s}
                           for k, (c, t, s) in sorted(spans.items())}
        report["counts"] = counts
    reset_dir(op_dir)
    return {"correct": not (failures or problems), "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "report": report}


def _per_unit_ns(seconds, ops, pass_size):
    """Median over whole passes of the pass's seconds per unit of work, in ns."""
    per_pass = [sum(seconds[i:i + pass_size])
                / sum(op.units for op in ops[i:i + pass_size]) * 1e9
                for i in range(0, len(ops) - pass_size + 1, pass_size)]
    return statistics.median(per_pass)


def _pass_times(ops, pass_size):
    """Whole-pass times at the reference speed."""
    return [sum(op.seconds / op.ref_seconds for op in ops[i:i + pass_size])
            for i in range(0, len(ops) - pass_size + 1, pass_size)]


WALL_UNITS = {"wall_ns_per_rep_step": "ns", "op_s_p50": "s", "op_s_p90": "s",
              "ops_per_s": "1/s", "wall_setup_s": "s", "ref_kernel_ms_p50": "ms"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = run(workloads.make(args.workload), args.seed, args.seconds,
                 bool(args.trace))
    report = result.pop("report")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in wanted}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, report=report), indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in report["wall"].items():
        print(f"{name:36s} {value:>16.6g} {WALL_UNITS[name]} (wall time, not gated)")
    print(f"{'fail_frac':36s} {report['fail_frac']:>16.6g} frac "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"{'timed_ops':36s} {report['timed_ops']:>16d} count")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print("facts: " + json.dumps({k: report[k] for k in (
        "workload", "seed", "load_avg_start", "load_avg_end", "machine")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
