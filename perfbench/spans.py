"""Spans and counts recorded around spherembed's public entry points.

The package binds most names with ``from ... import``, so each wrapper is
installed where the caller looks the name up (``spherembed.cli.load_edge_list``,
``spherembed.pipeline.solve``, ...), and methods are wrapped on their class.
Spans live in memory; ``layer_report`` turns one operation's spans into
self time per layer (a span's duration minus that of its direct children).

Only spans opened on the thread that runs the operation form the tree.
Calls made on partitioner worker threads (``--jobs``) overlap in time, so
they add to counts and to per-name busy time, never to self time.
"""

import importlib
import os
import threading
import time
from collections import defaultdict

import numpy as np

# (module path, attribute, span name); each layer is the span name's prefix
FUNCTIONS = [
    ("spherembed.cli", "main", "cli.main"),
    ("spherembed.cli", "load_edge_list", "graphs.load"),
    ("spherembed.cli", "load_ground_truth", "graphs.truth_load"),
    ("spherembed.generators", "largest_connected_component", "graphs.lcc"),
    ("spherembed.pipeline", "make_descriptor", "operators.build"),
    ("spherembed.pipeline", "solve", "solver.solve"),
    ("spherembed.cli", "write_trace_csv", "solver.write_trace"),
    ("spherembed.pipeline", "svd_embedding", "embedding.svd"),
    ("spherembed.cli", "write_embedding_csv", "embedding.write_csv"),
    ("spherembed.cli", "write_spectrum_csv", "embedding.write_spectrum"),
    ("spherembed.cli", "read_embedding_csv", "embedding.read_csv"),
    ("spherembed.pipeline", "best_of_restarts", "partition.run"),
    ("spherembed.partition", "vp_step", "partition.vp_step"),
    ("spherembed.cli", "write_partition_csv", "partition.write"),
    ("spherembed.cli", "write_run_log", "partition.write"),
    ("spherembed.cli", "summarize", "metrics.summarize"),
    ("spherembed.pipeline", "summarize", "metrics.summarize"),
    ("spherembed.partition", "modularity_of_partition", "metrics.modularity"),
    ("spherembed.cli", "nmi_metric", "metrics.nmi"),
    ("spherembed.pipeline", "nmi_metric", "metrics.nmi"),
    ("spherembed.cli", "write_summary_json", "metrics.write_summary"),
    ("spherembed.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("spherembed.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("spherembed.pipeline", "run_embedding", "pipeline.run_embedding"),
    ("spherembed.cli", "run_partition", "pipeline.run_partition"),
    ("spherembed.cli", "render_scatter_svg", "plotting.render"),
    ("spherembed.generators", "generate_planted_partition", "generators.generate"),
]
# (class path, method, span name)
METHODS = [
    ("spherembed.graphs.Graph", "content_hash", "graphs.hash"),
    ("spherembed.operators.ShiftedOperator", "__init__", "operators.build"),
    ("spherembed.operators.ShiftedOperator", "apply", "operators.apply"),
]
LAYERS = ["graphs", "operators", "solver", "embedding", "partition", "metrics",
          "pipeline", "cli", "plotting", "generators"]
SPMM_EVERY = 10  # time the bare adjacency product beside every 10th apply


def _resolve(path):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans (name, start, end, parent) and counts while installed."""

    def __init__(self):
        self._saved = []
        self._owner = None
        self._lock = threading.Lock()
        self._probing = False
        self.reset()

    def reset(self):
        self.spans = []             # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.busy = defaultdict(float)
        self.values = defaultdict(list)
        self._stack = []
        self._applies = 0

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.counts[span[0]] += 1
        return span[2] - span[1]

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._probing:
                return fn(*args, **kwargs)
            if threading.get_ident() != tracer._owner:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    with tracer._lock:
                        tracer.counts[name] += 1
                        tracer.busy[name] += time.perf_counter() - t0
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.busy[name] += tracer.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def probe(self, name, fn, *args):
        """Run measurement-only work as its own span, invisible to other wrappers."""
        self.open(name)
        self._probing = True
        try:
            return fn(*args)
        finally:
            self._probing = False
            self.close()

    # -- what the wrappers record beyond the span ------------------------

    def _after_solve(self, result, args, kwargs):
        from spherembed.solver import first_order_criterion
        k = args[0]
        delta = self.probe("probe.delta", first_order_criterion, k, result.x)
        self.values["solver.iterations"].append(result.iterations)
        self.values["solver.converged"].append(float(result.converged))
        self.values["solver.delta_per_n"].append(delta / k.n)

    def _after_apply(self, result, args, kwargs):
        self._applies += 1
        if self._applies % SPMM_EVERY == 1:
            op, block = args[0], args[1]
            t0 = time.perf_counter()
            self.probe("probe.spmm", op.base.graph.adjacency.__matmul__, block)
            self.values["operators.spmm_ms"].append(1e3 * (time.perf_counter() - t0))

    def _after_write_csv(self, result, args, kwargs):
        dest = args[2] if len(args) > 2 else kwargs.get("dest")
        if hasattr(dest, "tell"):
            self.values["embedding.csv_mb"].append(dest.tell() / 1e6)

    def _after_read_csv(self, result, args, kwargs):
        source = args[0]
        if isinstance(source, (str, os.PathLike)):
            self.values["embedding.csv_mb"].append(os.path.getsize(source) / 1e6)

    def _after_partition(self, result, args, kwargs):
        self.values["partition.n_clusters"].append(result.n_clusters)

    def _after_render(self, result, args, kwargs):
        self.values["plotting.svg_mb"].append(len(result) / 1e6)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every entry point; the calling thread owns the span tree."""
        self._owner = threading.get_ident()
        after = {"solver.solve": self._after_solve,
                 "operators.apply": self._after_apply,
                 "embedding.write_csv": self._after_write_csv,
                 "embedding.read_csv": self._after_read_csv,
                 "partition.run": self._after_partition,
                 "plotting.render": self._after_render}
        for module_path, attr, name in FUNCTIONS:
            module = _resolve(module_path)
            self._patch(module, attr, name, after.get(name))
        for class_path, attr, name in METHODS:
            cls = _resolve(class_path)
            self._patch(cls, attr, name, after.get(name))

    def _patch(self, owner, attr, name, after):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_report(tracer, wall_s):
    """Per-layer metrics of one traced operation, as {metric: value}."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    dur = defaultdict(float)
    durations = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name.split(".")[0]] += (end - start) - child_time[i]
        dur[name] += end - start
        durations[name].append(end - start)
    busy, counts, values = tracer.busy, tracer.counts, tracer.values
    iterations = sum(values["solver.iterations"])
    out = {
        "graphs.load_s": dur["graphs.load"],
        "graphs.truth_load_s": dur["graphs.truth_load"],
        "graphs.hash_s": dur["graphs.hash"],
        "graphs.hash_calls": counts["graphs.hash"],
        "operators.build_s": dur["operators.build"],
        "operators.apply_calls": counts["operators.apply"],
        "operators.apply_ms": 1e3 * _median(durations["operators.apply"]),
        "operators.spmm_ms": _median(values["operators.spmm_ms"]),
        "solver.iterations": iterations,
        "solver.solve_s": dur["solver.solve"],
        "solver.iter_ms": 1e3 * dur["solver.solve"] / iterations if iterations else 0.0,
        "solver.converged": _median(values["solver.converged"]),
        "solver.delta_per_n": _median(values["solver.delta_per_n"]),
        "embedding.svd_s": dur["embedding.svd"],
        "embedding.write_csv_s": dur["embedding.write_csv"],
        "embedding.csv_mb": sum(values["embedding.csv_mb"]),
        "embedding.read_csv_s": dur["embedding.read_csv"],
        "partition.run_s": dur["partition.run"],
        "partition.rounds": counts["partition.vp_step"],
        "partition.n_clusters": _median(values["partition.n_clusters"]),
        "partition.write_s": dur["partition.write"],
        "metrics.summarize_s": dur["metrics.summarize"],
        "metrics.modularity_calls": counts["metrics.modularity"],
        # busy time: under --jobs it overlaps partition.run on worker threads
        "metrics.modularity_s": busy["metrics.modularity"],
        "metrics.nmi_s": dur["metrics.nmi"],
        "plotting.render_s": dur["plotting.render"],
        "plotting.svg_mb": sum(values["plotting.svg_mb"]),
        "generators.generate_s": dur["generators.generate"],
        "generators.attempts": counts["graphs.lcc"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    attributed = sum(self_s[layer] for layer in LAYERS)
    out["trace.wall_s"] = wall_s
    out["trace.probe_s"] = self_s["probe"]
    out["trace.unattributed_s"] = wall_s - attributed - self_s["probe"]
    return out
