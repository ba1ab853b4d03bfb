"""Spans around the neuromap functions each layer is made of.

Wrappers are installed from outside the program, at the names callers look
the functions up by. ``generate_dataset`` calls ``neuromap.capture.ray_distances``
(bound by ``from .world import ray_distances``), so wrapping only
``neuromap.world.ray_distances`` would miss every batched raycast of ``gen``;
``raycast`` in turn looks ``ray_distances`` up in ``neuromap.world``, so both
names are wrapped. Methods are wrapped on their class.

A target that no longer exists raises TraceError, and ``check_calls`` fails a
workload whose mapped spans recorded no call. A refactor that renames or
inlines a function therefore fails the traced run instead of reporting zero.
"""

import functools
import importlib
import os
import statistics
import time

# module:attribute where callers look the function up -> span name
WRAPS = (
    ("neuromap.cli:main", "cli.main"),
    ("neuromap.capture:ray_distances", "world.ray_distances"),
    ("neuromap.world:ray_distances", "world.ray_distances"),
    ("neuromap.navigate:raycast", "world.raycast"),
    ("neuromap.world:OccupancyGrid.is_free", "world.is_free"),
    ("neuromap.world:OccupancyGrid.footprint_free", "world.footprint_free"),
    ("neuromap.cli:generate_dataset", "capture.generate_dataset"),
    ("neuromap.capture:sample_random_pose", "capture.sample_random_pose"),
    ("neuromap.capture:derived_rng", "capture.derived_rng"),
    ("neuromap.cli:save_dataset", "capture.save_dataset"),
    ("neuromap.cli:load_dataset", "capture.load_dataset"),
    ("neuromap.estimator:knn_estimate", "estimator.knn_estimate"),
    ("neuromap.estimator:OracleEstimator.estimate", "estimator.oracle"),
    ("neuromap.cli:train", "training.train"),
    ("neuromap.training:forward_batch", "training.forward_batch"),
    ("neuromap.training:backward", "training.backward"),
    ("neuromap.training:adam_step", "training.adam_step"),
    ("neuromap.cli:evaluate", "training.evaluate"),
    ("neuromap.cli:save_model", "training.save_model"),
    ("neuromap.cli:navigate_waypoints", "navigate.navigate_waypoints"),
    ("neuromap.cli:save_trace", "navigate.save_trace"),
    ("neuromap.cli:coverage_summary", "report.coverage_summary"),
    ("neuromap.cli:svg_coverage", "report.svg_coverage"),
    ("neuromap.cli:svg_route", "report.svg_route"),
)

# spans that must record at least one call on each workload
REQUIRED = {
    "gen_cabin": (
        "cli.main", "world.ray_distances", "world.is_free", "capture.generate_dataset",
        "capture.sample_random_pose", "capture.derived_rng", "capture.save_dataset",
        "report.coverage_summary", "report.svg_coverage",
    ),
    "eval_knn_cabin": (
        "cli.main", "capture.load_dataset", "estimator.knn_estimate", "training.evaluate",
    ),
    "train_cabin": (
        "cli.main", "capture.load_dataset", "training.train", "training.forward_batch",
        "training.backward", "training.adam_step", "training.save_model",
    ),
    "navigate_apartment": (
        "cli.main", "world.ray_distances", "world.raycast", "world.is_free",
        "world.footprint_free", "estimator.oracle", "navigate.navigate_waypoints",
        "navigate.save_trace", "report.svg_route",
    ),
}


class TraceError(RuntimeError):
    """A wrapper target is missing, or a mapped span recorded no call."""


# --- computed counts attached to a span (never timed themselves) ----------------


def _rays(args, kwargs):
    return {"rays": len(args[1])}


def _file_bytes(args, kwargs):
    # save_*(obj, path, ...) and load_dataset(path): the file on disk after the call
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": os.path.getsize(path)}


def _knn_bytes(args, kwargs):
    db, obs = args[0], args[1]
    return {"bytes": len(db) * obs.ranges.size * 8}


def _step_flops(args, kwargs):
    model, batch = args[0], args[1]
    return {"flops": step_flops(model.layer_dims, len(batch))}


ATTRS = {
    "world.ray_distances": _rays,
    "capture.save_dataset": _file_bytes,
    "capture.load_dataset": _file_bytes,
    "training.save_model": _file_bytes,
    "navigate.save_trace": _file_bytes,
    "estimator.knn_estimate": _knn_bytes,
    "training.backward": _step_flops,
}


def step_flops(layer_dims, batch: int) -> int:
    """FLOPs (a multiply-add counts two) of one backward() call: the forward
    pass, the weight gradients, and the input gradients of every layer but
    the first."""
    pairs = list(zip(layer_dims[:-1], layer_dims[1:]))
    forward = sum(2 * batch * i * o for i, o in pairs)
    grad_w = forward
    grad_x = sum(2 * batch * i * o for i, o in pairs[1:])
    return forward + grad_w + grad_x


# --- recording -------------------------------------------------------------------


class Recorder:
    """Spans of one process, kept in memory as [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def add(self, name, start, end):
        """A top-level span timed by the caller."""
        self.spans.append([name, start, end, -1, None])

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs)
            return result

        return traced


def _resolve(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"wrapper target {site} is missing ({part} not found)")
    if not callable(getattr(owner, attr, None)):
        raise TraceError(f"wrapper target {site} is missing")
    return owner, attr


def install(recorder: Recorder, wraps=WRAPS) -> None:
    """Wrap every target; raise TraceError before wrapping any if one is missing."""
    resolved = [(_resolve(site), name) for site, name in wraps]
    for (owner, attr), name in resolved:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))


def check_calls(workload: str, summary: dict) -> None:
    missing = [name for name in REQUIRED[workload] if summary.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise TraceError(f"{workload}: mapped spans recorded no call: {', '.join(missing)}")


# --- aggregation -------------------------------------------------------------------


def summarize(runs) -> dict:
    """Per span name: calls, total and self seconds, durations, summed attrs.

    ``runs`` is a list of span lists, one per process; a span's self time is
    its duration minus the durations of its direct children.
    """
    out = {}
    for spans in runs:
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
            for key, value in (attrs or {}).items():
                s["attrs"][key] = s["attrs"].get(key, 0) + value
    return out


def count_children(runs, name: str, parent_name: str) -> int:
    """Calls of ``name`` made directly by ``parent_name``."""
    n = 0
    for spans in runs:
        for span in spans:
            if span[0] == name and span[3] >= 0 and spans[span[3]][0] == parent_name:
                n += 1
    return n


def percentile_ms(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
