"""Per-layer metrics computed from the spans of a traced run.

Sums are over every traced process of the invocation (one run, or one run
per route for navigate_apartment). Counts the benchmark computes rather
than measures (rays per call, bytes a k-NN query reads, FLOPs per training
step, file bytes) are listed again under ``computed`` in the result file,
each with its base; so is every ratio.
"""

import tracer

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "world.ray_distances.calls": "count",
    "world.ray_distances.rays": "count",
    "world.ray_distances.rays_per_call": "rays/call",
    "world.ray_distances.self_s": "s",
    "world.ray_distances.rays_per_s": "rays/s",
    "world.raycast.calls": "count",
    "world.raycast.p50_ms": "ms",
    "world.raycast.p99_ms": "ms",
    "world.is_free.calls": "count",
    "world.footprint_free.calls": "count",
    "world.footprint_free.self_s": "s",
    "capture.generate_dataset.self_s": "s",
    "capture.sample_random_pose.self_s": "s",
    "capture.derived_rng.calls": "count",
    "capture.derived_rng.self_s": "s",
    "capture.pose_accept_ratio": "ratio",
    "capture.save_dataset.s": "s",
    "capture.save_dataset.mb_per_s": "MB/s",
    "capture.load_dataset.s": "s",
    "capture.load_dataset.mb_per_s": "MB/s",
    "estimator.knn_estimate.calls": "count",
    "estimator.knn_estimate.p50_ms": "ms",
    "estimator.knn_estimate.p99_ms": "ms",
    "estimator.knn_estimate.self_s": "s",
    "estimator.knn_estimate.computed_gbps": "GB/s",
    "estimator.oracle.calls": "count",
    "estimator.oracle.self_s": "s",
    "training.backward.mean_ms": "ms",
    "training.adam_step.mean_ms": "ms",
    "training.forward_batch.s": "s",
    "training.train.self_s": "s",
    "training.step_gflops": "GFLOP/s",
    "training.evaluate.self_s": "s",
    "training.save_model.s": "s",
    "navigate.navigate_waypoints.self_s": "s",
    "navigate.save_trace.s": "s",
    "report.coverage_summary.s": "s",
    "report.svg_coverage.s": "s",
    "report.svg_route.s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
    "host.copy_gbps": "GB/s",
    "host.calib_ms": "ms",
}

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}}


def _div(a, b):
    return a / b if b else 0.0


def compute(span_runs, traced_wall_s: float, plain_wall_s: float, host: dict):
    """Returns (metrics {name: value}, computed {name: {value, base...}})."""
    summary = tracer.summarize(span_runs)

    def s(name):
        return summary.get(name, _EMPTY)

    rd, rc, knn = s("world.ray_distances"), s("world.raycast"), s("estimator.knn_estimate")
    pose, bw, adam = s("capture.sample_random_pose"), s("training.backward"), s("training.adam_step")
    save, load = s("capture.save_dataset"), s("capture.load_dataset")
    rays = rd["attrs"].get("rays", 0)
    pose_draws = tracer.count_children(span_runs, "world.is_free", "capture.sample_random_pose")
    step_flops = _div(bw["attrs"].get("flops", 0), bw["calls"])
    step_s = _div(bw["total_s"], bw["calls"]) + _div(adam["total_s"], adam["calls"])
    query_bytes = _div(knn["attrs"].get("bytes", 0), knn["calls"])
    self_total = sum(v["self_s"] for v in summary.values())

    m = {
        "world.ray_distances.calls": rd["calls"],
        "world.ray_distances.rays": rays,
        "world.ray_distances.rays_per_call": _div(rays, rd["calls"]),
        "world.ray_distances.self_s": rd["self_s"],
        "world.ray_distances.rays_per_s": _div(rays, rd["self_s"]),
        "world.raycast.calls": rc["calls"],
        "world.raycast.p50_ms": tracer.percentile_ms(rc["durations"], 50),
        "world.raycast.p99_ms": tracer.percentile_ms(rc["durations"], 99),
        "world.is_free.calls": s("world.is_free")["calls"],
        "world.footprint_free.calls": s("world.footprint_free")["calls"],
        "world.footprint_free.self_s": s("world.footprint_free")["self_s"],
        "capture.generate_dataset.self_s": s("capture.generate_dataset")["self_s"],
        "capture.sample_random_pose.self_s": pose["self_s"],
        "capture.derived_rng.calls": s("capture.derived_rng")["calls"],
        "capture.derived_rng.self_s": s("capture.derived_rng")["self_s"],
        "capture.pose_accept_ratio": _div(pose["calls"], pose_draws),
        "capture.save_dataset.s": save["total_s"],
        "capture.save_dataset.mb_per_s": _div(save["attrs"].get("bytes", 0) / 1e6, save["total_s"]),
        "capture.load_dataset.s": load["total_s"],
        "capture.load_dataset.mb_per_s": _div(load["attrs"].get("bytes", 0) / 1e6, load["total_s"]),
        "estimator.knn_estimate.calls": knn["calls"],
        "estimator.knn_estimate.p50_ms": tracer.percentile_ms(knn["durations"], 50),
        "estimator.knn_estimate.p99_ms": tracer.percentile_ms(knn["durations"], 99),
        "estimator.knn_estimate.self_s": knn["self_s"],
        "estimator.knn_estimate.computed_gbps": _div(knn["attrs"].get("bytes", 0) / 1e9, knn["total_s"]),
        "estimator.oracle.calls": s("estimator.oracle")["calls"],
        "estimator.oracle.self_s": s("estimator.oracle")["self_s"],
        "training.backward.mean_ms": _div(bw["total_s"], bw["calls"]) * 1e3,
        "training.adam_step.mean_ms": _div(adam["total_s"], adam["calls"]) * 1e3,
        "training.forward_batch.s": s("training.forward_batch")["total_s"],
        "training.train.self_s": s("training.train")["self_s"],
        "training.step_gflops": _div(step_flops / 1e9, step_s),
        "training.evaluate.self_s": s("training.evaluate")["self_s"],
        "training.save_model.s": s("training.save_model")["total_s"],
        "navigate.navigate_waypoints.self_s": s("navigate.navigate_waypoints")["self_s"],
        "navigate.save_trace.s": s("navigate.save_trace")["total_s"],
        "report.coverage_summary.s": s("report.coverage_summary")["total_s"],
        "report.svg_coverage.s": s("report.svg_coverage")["total_s"],
        "report.svg_route.s": s("report.svg_route")["total_s"],
        "cli.import_s": s("cli.import")["total_s"],
        "cli.main.self_s": s("cli.main")["self_s"],
        "cli.unattributed_s": traced_wall_s - self_total,
        "trace.overhead_s": traced_wall_s - plain_wall_s,
        "host.copy_gbps": host["copy_gbps"],
        "host.calib_ms": host["calib_ms"],
    }
    computed = {
        "world.ray_distances.rays_per_call": {
            "value": m["world.ray_distances.rays_per_call"], "rays": rays, "calls": rd["calls"],
            "how": "sum of len(xs) over calls / calls"},
        "estimator.knn_estimate.bytes_per_query": {
            "value": query_bytes, "how": "database rows x rays x 8 bytes, read once per query"},
        "training.step_flops": {
            "value": step_flops, "step_s": step_s,
            "how": "2*B*in*out per layer for the forward pass and for dW, and for dX on all "
                   "layers but the first; step_s is mean backward + mean adam_step"},
        "capture.save_dataset.bytes": {"value": save["attrs"].get("bytes", 0), "how": "file size after save"},
        "capture.load_dataset.bytes": {"value": load["attrs"].get("bytes", 0), "how": "file size loaded"},
        "capture.pose_accept_ratio": {
            "value": m["capture.pose_accept_ratio"], "accepted": pose["calls"], "is_free_calls": pose_draws},
        "trace.overhead_ratio": {
            "value": _div(traced_wall_s - plain_wall_s, plain_wall_s),
            "traced_wall_s": traced_wall_s, "untraced_wall_s": plain_wall_s},
        "cli.unattributed_s": {
            "value": m["cli.unattributed_s"], "traced_wall_s": traced_wall_s, "span_self_s": self_total,
            "how": "process wall minus the self time of every span: interpreter start, exit, harness"},
    }
    return {name: float(m[name]) for name in UNITS}, computed, summary
