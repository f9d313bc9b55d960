"""Span tracing around modwatch's public functions, installed from outside.

The tracer replaces a function at each place its callers look it up (a
module attribute) with a wrapper that records one span per call: its name,
parent span, thread, start and end.  Nothing under ``src/`` changes;
``uninstall`` puts the original functions back.

Spans nest per thread: a call made inside another traced call on the same
thread becomes its child.  Calls made on a worker thread start a new tree,
so a caller that waits on workers (``landscape.evaluate_grid`` with
``jobs > 1``) keeps the waiting time as its own self time.  Times are
integer nanoseconds, so self time (duration minus the time covered by
children) is exact and never negative when the nesting holds.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# layer name -> [(module, attribute)] for every place a caller looks it up
LOOKUP_SITES: dict[str, list[tuple[str, str]]] = {
    "tensor.conv1d": [("tensor", "conv1d")],
    "tensor.dense": [("tensor", "dense")],
    "tensor.relu": [("tensor", "relu")],
    "tensor.backward": [("train", "backward"), ("tensor", "backward")],
    "optim.adam_step": [("train", "adam_step"), ("optim", "adam_step")],
    "model.encode": [("model", "encode")],
    "model.decode": [("model", "decode")],
    "model.reconstruct": [("model", "reconstruct")],
    "train.train": [("train", "train"), ("cli", "train"), ("landscape", "train")],
    "train.dataset_loss": [("train", "dataset_loss"), ("landscape", "dataset_loss")],
    "evaluate.score": [("evaluate", "score")],
    "evaluate.roc_auc": [("evaluate", "roc_auc")],
    "evaluate.auc_table": [("evaluate", "auc_table")],
    "evaluate.summarize": [("evaluate", "summarize")],
    "evaluate.pick_threshold": [("evaluate", "pick_threshold")],
    "evaluate.write_csv": [
        ("evaluate", "write_scores_csv"),
        ("evaluate", "write_roc_csv"),
        ("evaluate", "write_auc_table_csv"),
        ("evaluate", "write_boxstats_csv"),
        ("evaluate", "write_density_csv"),
    ],
    "landscape.random_direction": [("landscape", "random_direction")],
    "landscape.evaluate_grid": [("landscape", "evaluate_grid")],
    "landscape.convexity_report": [("landscape", "convexity_report")],
    "uq.replicate": [("uq", "replicate")],
    "uq.per_channel_calibration": [("uq", "per_channel_calibration")],
    "uq.write_bands_csv": [("uq", "write_bands_csv")],
    "data.generate": [("data", "generate")],
    "data.split": [("data", "split")],
    "data.standardize": [("data", "standardize")],
    "data.load_dataset": [("data", "load_dataset")],
    "checkpoint.load": [("checkpoint", "load_checkpoint"), ("cli", "load_checkpoint")],
    "checkpoint.save": [("checkpoint", "save_checkpoint"), ("train", "save_checkpoint")],
    "cli.main": [("cli", "main")],
}


def _dense_flops(args, result) -> int:
    # x (batch, in) @ w.T (in, out) + b: one multiply-add per weight per row
    x, w = args[0].data, args[1].data
    return 2 * x.shape[0] * w.shape[0] * w.shape[1] + x.shape[0] * w.shape[0]


def _conv1d_flops(args, result) -> int:
    # one width-tap multiply-add per (batch, output step, out, in) plus bias
    w = args[1].data
    batch, t_out, cout = result.data.shape
    return batch * t_out * cout * (2 * w.shape[1] * w.shape[2] + 1)


def _file_bytes(args, result) -> int:
    target = args[0]
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return target.tell()


# extra counter recorded per call of a layer: layer name -> (counter name,
# f(args, result))
COUNTERS: dict[str, tuple[str, object]] = {
    "tensor.conv1d": ("tensor.conv1d.flops", _conv1d_flops),
    "tensor.dense": ("tensor.dense.flops", _dense_flops),
    "evaluate.write_csv": ("evaluate.write_csv.bytes", _file_bytes),
    "uq.write_bands_csv": ("uq.write_bands_csv.bytes", _file_bytes),
    "checkpoint.save": ("checkpoint.save.bytes", _file_bytes),
    "data.generate": ("data.generate.samples", lambda a, r: r.n_samples),
    # the grid's cells, and the centre, which evaluate_grid computes once more
    "landscape.evaluate_grid": ("landscape.cells", lambda a, r: r.losses.size + 1),
}


class Tracer:
    """Records spans and counters while ``active``; a no-op otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, parent, name, thread, t0_ns, t1_ns)
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def tracing(self):
        """Record spans inside the block."""
        saved = self.active
        self.active = True
        try:
            yield
        finally:
            self.active = saved

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        saved = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = saved

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), t0, t1)
                )
            if counter is not None:
                key, fn = counter
                value = fn(args, result)
                with tracer._lock:
                    tracer.counters[key] += value
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every lookup site in LOOKUP_SITES under ``package``."""
        for name, sites in LOOKUP_SITES.items():
            for module_name, attr in sites:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original, COUNTERS.get(name)))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # ---------------------------------------------------------- aggregation

    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns (duration minus children's durations)."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1]:
                own[s[1]] -= s[5] - s[4]
        return own

    def nesting_violations(self) -> list[str]:
        """Spans whose parent is missing, on another thread, or does not
        enclose them in time."""
        by_id = {s[0]: s for s in self.spans}
        bad = []
        for s in self.spans:
            if not s[1]:
                continue
            p = by_id.get(s[1])
            if p is None or p[3] != s[3] or not (p[4] <= s[4] and s[5] <= p[5]):
                bad.append(f"{s[2]}#{s[0]} in {p[2] if p else '?'}#{s[1]}")
        return bad

    def layer_stats(self) -> dict[str, float]:
        """``<layer>.<function>.calls`` and ``.s`` (self seconds) for every
        traced function, plus the recorded counters."""
        out: dict[str, float] = {}
        for name in LOOKUP_SITES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        own = self.self_times()
        for s in self.spans:
            out[f"{s[2]}.calls"] += 1
            out[f"{s[2]}.s"] += own[s[0]] / 1e9
        for key, _ in COUNTERS.values():
            out[key] = 0
        out.update(self.counters)
        return out
