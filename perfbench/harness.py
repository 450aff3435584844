"""Run one workload: inputs, set-up timing, measured windows, checks.

The metric tables below are the benchmark's contract with
``BENCHMARK.json`` (the self-test checks the two agree).
"""

from __future__ import annotations

import os
import shutil
import statistics
from typing import Dict, List, Tuple

import workloads
from workloads import Timed
from accounting import PROBE_BETWEEN_OPS_S, SpeedProbe, host_info, mean
from tracer import END, ITEMS, NAME, SID, START, Tracer, install_layer_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
MAX_REPORTED_FAILURES = 10

#: End-to-end metrics, reported by untraced runs.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_result": "ms",
    "results_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "query_p50_ms": "ms",
}

#: Per-layer metrics, reported by traced runs (0 where a workload does
#: not reach the layer).
PER_LAYER = {
    "models.forward_ms_per_clip": "ms",
    "models.gflops_per_s": "GFLOP/s",
    "models.clips_per_forward": "count",
    "models.frame_features_ms_per_frame": "ms",
    "models.head_ms_per_window": "ms",
    "pipeline.self_ms_per_result": "ms",
    "pipeline.memo_hit_rate": "ratio",
    "cache.hit_rate": "ratio",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.hash_us": "us",
    "fleet.load_ms_per_clip": "ms",
    "fleet.write_ms_per_shard": "ms",
    "fleet.index_open_ms": "ms",
    "fleet.query_ms": "ms",
    "fleet.resume_forwards": "count",
    "service.submit_us": "us",
    "service.inside_ms_p50": "ms",
    "service.forward_ms_per_batch": "ms",
    "service.batch_size_mean": "count",
    "pool.submit_us": "us",
    "pool.ipc_ms_mean": "ms",
    "pool.parent_cpu_ms_per_result": "ms",
    "pool.worker_cpu_ms_per_result": "ms",
    "pool.route_skew": "ratio",
    "events.emit_us": "us",
    "events.per_result": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


def _mean_duration(tracer: Tracer, name: str, scale: float) -> float:
    return scale * mean([s[END] - s[START] for s in tracer.named(name)])


def span_layers(tracer: Tracer, window: workloads.Window,
                model) -> Dict[str, float]:
    """Per-layer metrics that follow from the recorded spans alone."""
    from repro.eval.efficiency import estimate_flops

    self_time = tracer.self_times()

    def work(name: str) -> Tuple[float, int, int]:
        spans = tracer.named(name)
        return (sum(self_time[s[SID]] for s in spans),
                sum(s[ITEMS] for s in spans), len(spans))

    forward_s, clips, forwards = work("models.logits")
    features_s, frames, _ = work("models.frame_features")
    head_s, windows, _ = work("models.head")
    batch_s, batch_items, _ = work("pipeline.extract_batch")
    video_s, video_items, _ = work("pipeline.extract_video")
    pipeline_items = batch_items + video_items
    gets = tracer.named("cache.get")
    emits = tracer.named("events.emit")
    return {
        "models.forward_ms_per_clip": 1e3 * forward_s / max(clips, 1),
        "models.gflops_per_s": (estimate_flops(model) * clips / forward_s
                                / 1e9 if forward_s else 0.0),
        "models.clips_per_forward": clips / max(forwards, 1),
        "models.frame_features_ms_per_frame": 1e3 * features_s / max(frames,
                                                                      1),
        "models.head_ms_per_window": 1e3 * head_s / max(windows, 1),
        "pipeline.self_ms_per_result": (1e3 * (batch_s + video_s)
                                        / max(pipeline_items, 1)),
        "cache.hit_rate": (sum(s[-1] for s in gets) / len(gets)
                           if gets else 0.0),
        "cache.get_us": _mean_duration(tracer, "cache.get", 1e6),
        "cache.put_us": _mean_duration(tracer, "cache.put", 1e6),
        "cache.hash_us": _mean_duration(tracer, "cache.hash", 1e6),
        "fleet.load_ms_per_clip": _mean_duration(tracer, "fleet.load_clip",
                                                 1e3),
        "fleet.write_ms_per_shard": _mean_duration(
            tracer, "fleet.write_shard", 1e3),
        "fleet.index_open_ms": _mean_duration(tracer, "fleet.index_open",
                                              1e3),
        "fleet.query_ms": _mean_duration(tracer, "fleet.query", 1e3),
        "fleet.resume_forwards": float(sum(
            s[ITEMS] for s in tracer.under("op.query")
            if s[NAME] == "models.logits")),
        "service.submit_us": _mean_duration(tracer, "service.submit", 1e6),
        "pool.submit_us": _mean_duration(tracer, "pool.submit", 1e6),
        "events.emit_us": _mean_duration(tracer, "events.emit", 1e6),
        "events.per_result": len(emits) / max(window.results, 1),
    }


def timed_setups(workload) -> List[Tuple[float, float]]:
    """``(raw, scaled)`` seconds of :data:`SETUP_REPEATS` set-ups, each
    scaled like a closed-loop op (:class:`workloads.Timed`)."""
    timed = Timed(SpeedProbe(PROBE_BETWEEN_OPS_S))
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, _, _, slowdown = timed(workload.setup)
        setups.append(workloads.scaled(elapsed, slowdown))
    return setups


def run(args) -> Tuple[dict, dict]:
    """Run ``args.workload``; returns ``(result, report)``."""
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> Tuple[dict, dict]:
    workload = workloads.make(args.workload, work, args.seed, args.tiny)
    workload.prepare()
    tracer = None
    try:
        setups = timed_setups(workload)
        # A traced run splits its time: untraced half, then traced half.
        seconds = args.seconds / 2 if args.trace else args.seconds
        windows = [workload.measure(seconds, None)]
        if args.trace:
            tracer = Tracer()
            install_layer_spans(tracer)
            try:
                windows.append(workload.measure(seconds, tracer))
            finally:
                tracer.restore()
    finally:
        workload.teardown()
    if args.plant_wrong_output:
        workload.plant(windows[-1])
    failures = [f for window in windows for f in workload.check(window)]

    plain = windows[0].end_to_end()
    plain["setup_s"] = statistics.median(scaled for _, scaled in setups)
    if args.trace:
        traced = windows[1]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(span_layers(tracer, traced,
                                   workload.extractor.model))
        metrics.update(traced.layers)
        metrics.update(workload.layers(traced, tracer))
        metrics["trace.overhead_pct"] = 100.0 * (
            traced.end_to_end()["cpu_ms_per_result"]
            / plain["cpu_ms_per_result"] - 1.0)
        units = PER_LAYER
        trace_file = os.path.join(
            WORK_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_file)
    else:
        metrics = plain
        units = END_TO_END
        trace_file = None
    result = {
        "correct": not failures,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_info(),
        "setup_s_samples": [raw for raw, _ in setups],
        "windows": [dict(w.report, traced=i == 1,
                         samples={"latency": len(w.raw.latency_ms),
                                  "query": len(w.raw.query_ms)})
                    for i, w in enumerate(windows)],
        "raw_end_to_end": dict(
            windows[0].end_to_end(raw=True),
            setup_s=statistics.median(raw for raw, _ in setups)),
        "slowdown": [w.slowdown for w in windows],
        "check_failures": len(failures),
        "first_failures": failures[:MAX_REPORTED_FAILURES],
        "trace_file": trace_file,
    }
    return result, report
