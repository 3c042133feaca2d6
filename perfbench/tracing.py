"""Spans around the public functions of each isoprobe module.

Tracing wraps functions from outside the package: every module namespace
that bound a traced function (``from .model import forecast`` also binds
``evalharness.forecast``) gets the wrapper, and ``uninstall`` puts the
originals back.  Spans (id, parent, name, start, end) stay in memory
until ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# the CLI stages the workloads run; verify is in none of them
STAGES = ("synth", "train", "embed", "analyze", "eval", "report")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _jittered(args, kwargs, result):
    return int(result.jitter > 0.0)


def _n3(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "m")) ** 3


def _grad_windows(args, kwargs, result):
    windows = _arg(args, kwargs, 1, "windows")
    return 1 if getattr(windows, "ndim", 2) == 1 else len(windows)


def _forward_rows(args, kwargs, result):
    tokens = _arg(args, kwargs, 0, "tokens")
    return len(getattr(tokens, "tokens", tokens))


def _records(args, kwargs, result):
    return int(result.record_count)


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _silhouette_pairs(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "x")) ** 2


def _pair_count(args, kwargs, result):
    return int(result.pair_count)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _read_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _path_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _data_bytes(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "data"))


# (module, function or Class.method, published self time?, {count: fn})
TARGETS = (
    ("numerics", "cholesky_psd", False, {"jittered": _jittered}),
    ("numerics", "sym_eigendecompose", False, {"n3": _n3}),
    ("numerics", "pca", False, {}),
    ("kernels", "sample_gp", False, {}),
    ("kernels", "save_series", False, {}),
    ("kernels", "load_series", False, {}),
    ("tokenizer", "tokenize", False, {}),
    ("model", "grad", False, {"windows": _grad_windows}),
    ("model", "train", True, {}),
    ("model", "forecast", True, {}),
    ("model", "forward", False, {"rows": _forward_rows}),
    ("model", "dump_embeddings", False, {"records": _records}),
    ("model", "save_checkpoint", False, {}),
    ("model", "load_checkpoint", False, {}),
    ("theory", "isotropy_partition", False, {}),
    ("isotropy", "select_cluster_count", True, {}),
    ("isotropy", "kmeans", False, {"iterations": _iterations}),
    ("isotropy", "silhouette", False, {"pairs": _silhouette_pairs}),
    ("isotropy", "effective_dimension", False, {}),
    ("isotropy", "inter_token_cos", False, {}),
    ("isotropy", "adjusted_inter_token_cos", False, {"pairs": _pair_count}),
    ("isotropy", "layer_report", True, {}),
    ("isotropy", "pca_plot_rows", False, {}),
    ("evalharness", "evaluate_point", True, {}),
    ("dumps", "EmbeddingDump.write", False, {"bytes": _written_bytes}),
    ("dumps", "EmbeddingDump.read", False, {"bytes": _read_bytes}),
    ("dumps", "EmbeddingDump.layer_matrix", False, {}),
    ("manifest", "sha256_file", False, {"bytes": _path_bytes}),
    ("manifest", "atomic_write_bytes", False, {"bytes": _data_bytes}),
)
MODULES = tuple(dict.fromkeys(module for module, *_ in TARGETS)) + ("cli",)


def metric_units():
    """Every per-layer metric name with its unit, in publication order."""
    units = {}
    for module, name, self_time, counts in TARGETS:
        key = f"{module}.{name}"
        units[f"{key}.calls"] = "count"
        units[f"{key}.busy_s"] = "s"
        if self_time:
            units[f"{key}.self_s"] = "s"
        for count in counts:
            units[f"{key}.{count}"] = "count" if count != "bytes" else "bytes"
    for stage in STAGES:
        units[f"cli.{stage}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["tracing_overhead_s"] = "s"
    return units


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns)
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.missing = []
        self._stack = []
        self._restore = []

    def _wrap(self, module, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            for count, measure in counts.items():
                self.counts[f"{name}.{count}"] += measure(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target wherever an isoprobe module bound it."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "isoprobe" or key.startswith("isoprobe.")
        ]
        for module, qualname, _, counts in TARGETS:
            mod = sys.modules.get(f"isoprobe.{module}")
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(module, name, raw.__func__, counts))
                else:
                    wrapped = self._wrap(module, name, raw, counts)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(mod, qualname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(module, name, original, counts)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, attr, wrapper)
        group = sys.modules["isoprobe.cli"].cli
        for stage in STAGES:
            command = group.commands.get(stage)
            if command is None:
                self.missing.append(f"cli.{stage}")
                continue
            self._set(command, "callback", self._wrap("cli", f"cli.{stage}", command.callback, {}))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans, plus soundness problems."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(int)
        own = defaultdict(int)
        problems = []
        for span_id, parent, name, start, end in spans:
            calls[name] += 1
            self_ns = end - start - child_ns[span_id]
            if self_ns < 0:
                problems.append(f"span {span_id} ({name}) has negative self time")
            own[name] += self_ns
            ancestor = parent
            while ancestor is not None and spans[ancestor][2] != name:
                ancestor = spans[ancestor][1]
            if ancestor is None:  # outermost span of this name
                busy[name] += end - start
        values = {}
        for metric in metric_units():
            key, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls[key]
            elif field == "busy_s":
                values[metric] = busy[key] / 1e9
            elif field == "self_s":
                values[metric] = own[key] / 1e9
            elif field == "errors":
                values[metric] = self.errors[key]
            elif metric != "tracing_overhead_s":
                values[metric] = self.counts[metric]
        return values, problems

    def top_level_s(self):
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None) / 1e9
