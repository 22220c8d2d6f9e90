"""Layer tracing applied from outside the package.

Each traced function is replaced, for the duration of a traced op, by a
wrapper that records a span around the call.  The wrapper is bound under
every name the original is looked up by (``cli.run_experiment``,
``simulator.run_experiment``, ``noise.regularized_gamma_q``, ...), so no
file under ``src/`` is edited.  Spans are folded into per-thread
aggregates kept in memory: calls, total time and self time (total minus
the time covered by child spans on the same thread).
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter

import numpy as np

from adaptquant import analysis, cli, estimator, noise, quantizer, simulator, special
import adaptquant

#: every namespace a traced function may be looked up in
MODULES = (adaptquant, special, noise, quantizer, estimator, simulator, analysis, cli)

LAYERS = ("special", "noise", "quantizer", "estimator", "simulator", "analysis", "cli")

#: functions that write the command's output files; their spans are cli I/O
IO_SPANS = ("cli.write_result_csv", "cli.write_summary", "cli._write_manifest",
            "cli.save_design")


def _sf_points(add, args, kwargs, result, error, parent):
    add("noise.sf_points", int(np.size(args[1] if len(args) > 1 else kwargs["x"])))


def _sample_draws(add, args, kwargs, result, error, parent):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    add("noise.sample_draws", 1 if size is None else int(np.prod(size)))


def _grid_point(add, args, kwargs, result, error, parent):
    if parent == "quantizer.optimize_cdelta":
        add("quantizer.grid_points", 1)
        if error is None:
            add("quantizer.grid_valid", 1)


def _rep_steps(add, args, kwargs, result, error, parent):
    config, _, rep_lo, rep_hi = args[:4]
    add("simulator.rep_steps", (rep_hi - rep_lo) * config.horizon)


def _replications(add, args, kwargs, result, error, parent):
    if result is not None:
        add("simulator.replications", args[0].replications)
        add("simulator.diverged", result.diverged)


def targets():
    """(span name, owner, attribute, count hook) for every traced function.

    Owners are modules, except for the noise methods, which are looked up
    on the ``NoiseModel`` class.  The output writers are defined in
    ``simulator`` and ``quantizer`` but called by ``cli``; their spans are
    named under ``cli`` so that all command I/O is one figure.
    """
    out = [(f"special.{name}", special, name, None)
           for name in ("regularized_gamma_p", "regularized_gamma_q",
                        "incomplete_beta_regularized", "incomplete_gamma_lower")]
    hooks = {"sf": _sf_points, "sample": _sample_draws}
    out += [(f"noise.{name}", noise.NoiseModel, name, hooks.get(name))
            for name in ("pdf", "cdf", "sf", "score", "sample", "fisher_continuous")]
    out += [(f"quantizer.{name}", quantizer, name,
             _grid_point if name == "interval_stats" else None)
            for name in ("quantize", "interval_stats", "optimal_levels",
                         "fisher_quantized", "build_design", "optimize_cdelta",
                         "design_uniform", "mean_field", "mean_field_slope",
                         "load_design")]
    out += [(f"estimator.{name}", estimator, name, None)
            for name in ("step_quantized", "step_continuous")]
    hooks = {"_chunk_errors": _rep_steps, "run_experiment": _replications,
             "run_continuous_reference": _replications}
    out += [(f"simulator.{name}", simulator, name, hooks.get(name))
            for name in ("run_experiment", "run_continuous_reference",
                         "_aggregate", "_chunk_errors", "generate_path")]
    out += [(f"analysis.{name}", analysis, name, None)
            for name, value in vars(analysis).items()
            if callable(value) and not isinstance(value, type)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == analysis.__name__]
    out += [("cli.main", cli, "main", None),
            ("cli.load_experiment_config", cli, "load_experiment_config", None),
            ("cli._write_manifest", cli, "_write_manifest", None),
            ("cli.write_result_csv", simulator, "write_result_csv", None),
            ("cli.write_summary", simulator, "write_summary", None),
            ("cli.save_design", quantizer, "save_design", None)]
    return out


class _ThreadRecord:
    def __init__(self, main: bool):
        self.main = main
        self.stack = []   # open spans: [name, seconds covered by children]
        self.spans = {}   # name -> [calls, total_s, self_s]
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records = []
        self._patches = []

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "record", None)
        if rec is None:
            rec = _ThreadRecord(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._records.append(rec)
            self._local.record = rec
        return rec

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._record()
            parent = rec.stack[-1][0] if rec.stack else None
            frame = [name, 0.0]
            rec.stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = perf_counter() - t0
                rec.stack.pop()
                if rec.stack:
                    rec.stack[-1][1] += dur
                agg = rec.spans.get(name)
                if agg is None:
                    agg = rec.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if hook is not None:
                    hook(rec.add, args, kwargs, result, error, parent)

        return wrapper

    def install(self):
        """Bind a wrapper under every name each traced function is found by."""
        for name, owner, attr, hook in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self, main_only: bool = False):
        """Merged span aggregates {name: [calls, total_s, self_s]} and counts."""
        spans, counts = {}, {}
        with self._lock:
            records = [r for r in self._records if r.main or not main_only]
        for rec in records:
            for name, (calls, total, self_s) in rec.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for key, n in rec.counts.items():
                counts[key] = counts.get(key, 0) + n
        return spans, counts


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, n_ops: int, op_wall_s: float,
                      io_bytes: int, overhead_frac: float) -> dict:
    """Per-layer figures averaged per traced op, keyed by metric name."""
    spans, counts = tracer.totals()
    main_spans, _ = tracer.totals(main_only=True)

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def in_layer(layer, table=spans):
        return [n for n in table if layer_of(n) == layer]

    grid = counts.get("quantizer.grid_points", 0)
    reps = counts.get("simulator.replications", 0)
    out = {
        "special.calls": calls(*in_layer("special")),
        "special.busy_s": self_s(*in_layer("special")),
        "noise.sf_points": counts.get("noise.sf_points", 0),
        "noise.sf_self_s": self_s("noise.sf"),
        "noise.pdf_self_s": self_s("noise.pdf"),
        "noise.sample_draws": counts.get("noise.sample_draws", 0),
        "noise.sample_busy_s": total("noise.sample"),
        "quantizer.grid_points": grid,
        "quantizer.interval_stats_self_s": self_s("quantizer.interval_stats"),
        "quantizer.search_s": total("quantizer.optimize_cdelta"),
        "quantizer.quantize_calls": calls("quantizer.quantize"),
        "quantizer.quantize_s": total("quantizer.quantize"),
        "estimator.steps": calls("estimator.step_quantized"),
        "estimator.step_self_s": self_s("estimator.step_quantized"),
        "simulator.rep_steps": counts.get("simulator.rep_steps", 0),
        "simulator.path_busy_s": total("simulator.generate_path"),
        "simulator.recursion_self_s": self_s("simulator.run_experiment",
                                             "simulator._chunk_errors"),
        "simulator.pool_wait_s": self_s("simulator._aggregate"),
        "analysis.calls": calls(*in_layer("analysis")),
        "analysis.busy_s": self_s(*in_layer("analysis")),
        "cli.config_load_self_s": self_s("cli.load_experiment_config"),
        "cli.io_s": total(*IO_SPANS),
        "cli.io_bytes": io_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*in_layer(layer))
    out = {k: v / n_ops for k, v in out.items()}
    # ratios are not averaged per op
    out["quantizer.grid_valid_frac"] = (
        counts.get("quantizer.grid_valid", 0) / grid if grid else 0.0)
    out["simulator.diverged_frac"] = (
        counts.get("simulator.diverged", 0) / reps if reps else 0.0)
    main_self = sum(agg[2] for agg in main_spans.values())
    out["trace.accounted_frac"] = main_self / op_wall_s
    out["trace.overhead_frac"] = overhead_frac
    out["trace.ops"] = n_ops
    return out
