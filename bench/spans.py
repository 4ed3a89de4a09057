"""In-memory span recorder for the traced benchmark run, and the arithmetic
that turns spans into per-layer metrics.

A span is ``[name, start, end, parent, error]`` with ``start``/``end`` from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so a parent process can place
a child's spans on its own time line) and ``parent`` the index of the
enclosing span or -1.  Spans are kept in a list and written out once, when the
traced process ends.

Run as a script, this file is the traced child process:

    python3 bench/spans.py SPANS_JSON -- <chest CLI arguments>

It wraps the layer functions that ``chest.experiments`` and ``chest.cli`` look
up by name, swaps the process pool class for a counting subclass, runs
``chest.cli.main`` and dumps spans and counters to SPANS_JSON.
"""
from __future__ import annotations

import functools
import json
import math
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# Functions traced where chest.experiments and chest.cli look them up.  Every
# other public function defined in chest.experiments is traced too, so its
# time lands in experiments.self_s rather than in a caller's self time.
TRACED = (
    "substream", "complex_normal", "draw_fading", "assemble_channel", "apply_uplink",
    "ls_estimate", "project_estimate", "denoise_estimate", "interpolate_full",
    "bml_subspace", "analytic_nmse", "genie_spectral_efficiency",
    "post_combining_snr_samples", "ecdf", "build_environment", "pilot_covariance",
    "emit_csv", "emit_ecdf_csv", "render_line_chart",
)

# Self-time metric for each span name; names not listed fall back to
# "<layer>.self_s".  Together these partition the traced process wall time.
SELF_METRIC = {
    "streams.substream": "streams.substream.s",
    "streams.complex_normal": "streams.draw.s",
    "channel.draw_fading": "streams.draw.s",
    "channel.assemble_channel": "channel.assemble_channel.s",
    "channel.apply_uplink": "channel.apply_uplink.s",
    "estimators.ls_estimate": "estimators.ls_estimate.s",
    "estimators.project_estimate": "estimators.project_estimate.s",
    "estimators.denoise_estimate": "estimators.denoise_estimate.s",
    "estimators.interpolate_full": "estimators.interpolate_full.s",
    "subspaces.bml_subspace": "subspaces.bml_subspace.s",
    "metrics.analytic_nmse": "metrics.analytic_nmse.s",
    "metrics.genie_spectral_efficiency": "metrics.genie_spectral_efficiency.s",
    "metrics.post_combining_snr_samples": "metrics.post_combining_snr_samples.s",
    "metrics.ecdf": "metrics.ecdf.s",
    "experiments.build_environment": "experiments.build_environment.s",
    "experiments.pilot_covariance": "experiments.pilot_covariance.s",
    "experiments.emit_csv": "experiments.emit.s",
    "experiments.emit_ecdf_csv": "experiments.emit.s",
    "experiments.pool.wait": "experiments.pool.wait_s",
    "svgplot.render_line_chart": "svgplot.render_line_chart.s",
}

# Self-time metrics, fallbacks included; they partition the process span.
SELF_TIME = frozenset(SELF_METRIC.values()) | {
    "experiments.self_s", "cli.self_s", "process.self_s", "trace.self_s"}

CALL_COUNTS = {
    "streams.substream.calls": "streams.substream",
    "estimators.project_estimate.calls": "estimators.project_estimate",
    "subspaces.bml_subspace.calls": "subspaces.bml_subspace",
    "experiments.build_environment.calls": "experiments.build_environment",
}

# Metrics whose spans run inside the chunk functions, i.e. in pool workers when
# --workers > 1.  A traced --workers 1 run supplies them in that case.
WORKER_SIDE = (
    "streams.", "channel.", "estimators.", "subspaces.bml_subspace.",
    "metrics.genie_spectral_efficiency.", "metrics.post_combining_snr_samples.",
)

# name -> unit for every per-layer metric the traced run reports.
PER_LAYER = {
    "streams.substream.calls": "count",
    "streams.substream.s": "s",
    "streams.draw.s": "s",
    "streams.redraw_factor": "1",
    "channel.assemble_channel.s": "s",
    "channel.apply_uplink.s": "s",
    "estimators.project_estimate.s": "s",
    "estimators.project_estimate.calls": "count",
    "estimators.project_estimate.gflops": "GFLOP/s",
    "estimators.ls_estimate.s": "s",
    "estimators.denoise_estimate.s": "s",
    "estimators.interpolate_full.s": "s",
    "subspaces.bml_subspace.s": "s",
    "subspaces.bml_subspace.calls": "count",
    "metrics.analytic_nmse.s": "s",
    "metrics.genie_spectral_efficiency.s": "s",
    "metrics.post_combining_snr_samples.s": "s",
    "metrics.ecdf.s": "s",
    "experiments.pilot_covariance.s": "s",
    "experiments.build_environment.s": "s",
    "experiments.build_environment.calls": "count",
    "experiments.emit.s": "s",
    "experiments.emit.bytes": "bytes",
    "experiments.pool.created": "count",
    "experiments.pool.submit_bytes": "bytes",
    "experiments.pool.wait_s": "s",
    "experiments.self_s": "s",
    "svgplot.render_line_chart.s": "s",
    "cli.self_s": "s",
    "process.self_s": "s",
    "trace.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.errors": "count",
}


def projection_flops(shape) -> int:
    """Real flops of the dense pair P_s @ H @ P_t on a (..., n_rx, n_p) batch:
    8 per complex multiply-add, n_rx^2*n_p for the left and n_rx*n_p^2 for the
    right product."""
    *lead, n_rx, n_p = shape
    batch = math.prod(lead)
    return 8 * batch * (n_rx * n_rx * n_p + n_rx * n_p * n_p)


class Recorder:
    """Spans and counters of one process; calls from other processes (forked
    pool workers inherit the wrappers) pass straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.keys: set[tuple] = set()
        self._stack: list[int] = []
        self._pid = os.getpid()

    def active(self) -> bool:
        return os.getpid() == self._pid

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = error
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(index, error=True)
            raise
        self.close(index)
        return result

    def wrap(self, fn, name: str, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "substream_keys": len(self.keys)}, fh)


# --- Counters taken at the layer boundaries ---------------------------------

def _count_environment(rec: Recorder, args) -> None:
    rec.add("environments")


def _count_substream(rec: Recorder, args) -> None:
    # Draws for different environments are different draws (the pilot grid
    # changes shape), so the environment index is part of the key.
    rec.keys.add((rec.counters.get("environments", 0),) + tuple(int(a) for a in args[1:]))


def _count_projection(rec: Recorder, args) -> None:
    h = getattr(args[0], "h", args[0]) if args else None
    shape = getattr(h, "shape", None)
    if shape is not None and len(shape) >= 2:
        rec.add("projection_flops", projection_flops(shape))


def _count_emitted(rec: Recorder, args) -> None:
    if len(args) >= 2 and os.path.exists(args[1]):
        rec.add("emit_bytes", os.path.getsize(args[1]))


BEFORE = {"build_environment": _count_environment, "substream": _count_substream,
          "project_estimate": _count_projection}
AFTER = {"emit_csv": _count_emitted, "emit_ecdf_csv": _count_emitted}


def traced_pool(rec: Recorder):
    """ProcessPoolExecutor subclass counting pools, pickled submit bytes and
    the time the parent blocks on results and shutdown."""

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if rec.active():
                rec.add("pool_created")

        def submit(self, fn, /, *args, **kwargs):
            if rec.active():
                rec.add("pool_submit_bytes", len(rec.call(
                    "trace.pickle", pickle.dumps, (fn, args, kwargs),
                    pickle.HIGHEST_PROTOCOL)))
            future = super().submit(fn, *args, **kwargs)
            result = future.result

            def timed_result(timeout=None):
                return rec.call("experiments.pool.wait", result, timeout)
            future.result = timed_result
            return future

        def shutdown(self, wait=True, **kwargs):
            if not rec.active():
                return super().shutdown(wait, **kwargs)
            return rec.call("experiments.pool.wait", super().shutdown, wait, **kwargs)

    return TracedPool


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def install(rec: Recorder, experiments, cli) -> None:
    """Wrap the traced names in both namespaces and swap the pool class."""
    def traceable(ns, name):
        fn = getattr(ns, name, None)
        return callable(fn) and getattr(fn, "__module__", "").startswith("chest.") \
            and hasattr(fn, "__code__")

    own = [n for n, v in vars(experiments).items()
           if not n.startswith("_") and traceable(experiments, n)
           and v.__module__ == experiments.__name__]
    for ns in (experiments, cli):
        for name in dict.fromkeys(TRACED + tuple(own)):
            if traceable(ns, name):
                fn = getattr(ns, name)
                setattr(ns, name, rec.wrap(fn, f"{_layer(fn)}.{name}",
                                           BEFORE.get(name), AFTER.get(name)))
    if isinstance(getattr(experiments, "ProcessPoolExecutor", None), type):
        experiments.ProcessPoolExecutor = traced_pool(rec)


# --- Span arithmetic -----------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def self_metric(name: str) -> str:
    return SELF_METRIC.get(name) or f"{name.split('.', 1)[0]}.self_s"


def layer_metrics(spans, counters, substream_keys: int) -> dict[str, float]:
    """Per-layer metrics of one traced process; spans[0] is the whole process.

    The self-time metrics partition the process span, so they sum to its
    duration (``trace.wall_s``).
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    for span, own in zip(spans, self_times(spans)):
        key = self_metric(span[0])
        metrics[key] = metrics.get(key, 0.0) + own
    for metric, span_name in CALL_COUNTS.items():
        metrics[metric] = float(sum(1 for s in spans if s[0] == span_name))
    calls = metrics["streams.substream.calls"]
    metrics["streams.redraw_factor"] = calls / substream_keys if substream_keys else 0.0
    busy = metrics["estimators.project_estimate.s"]
    flops = counters.get("projection_flops", 0)
    metrics["estimators.project_estimate.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0
    metrics["experiments.emit.bytes"] = float(counters.get("emit_bytes", 0))
    metrics["experiments.pool.created"] = float(counters.get("pool_created", 0))
    metrics["experiments.pool.submit_bytes"] = float(counters.get("pool_submit_bytes", 0))
    metrics["trace.errors"] = float(sum(1 for s in spans if s[4]))
    metrics["trace.wall_s"] = spans[0][2] - spans[0][1]
    return metrics


def self_time_sum(metrics: dict[str, float]) -> float:
    """Sum of the reported self-time metrics.  It equals trace.wall_s unless
    some span's self time fell outside them."""
    return sum(metrics[k] for k in SELF_TIME)


def with_process_span(child_spans, spawned: float, exited: float) -> list[list]:
    """Put a child's spans under one span from spawn to exit, as seen by the
    parent, so interpreter start-up and exit have a self time of their own."""
    spans = [["process", spawned, exited, -1, False]]
    for name, start, end, parent, error in child_spans:
        spans.append([name, max(start, spawned), min(end, exited),
                      parent + 1 if parent >= 0 else 0, error])
    return spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS_JSON -- <chest arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    index = rec.open("cli.import")
    from chest import cli, experiments
    install(rec, experiments, cli)
    rec.close(index)
    try:
        code = rec.call("cli.main", cli.main, cli_args)
    finally:
        rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
