"""The four workloads: ``fleet``, ``timeline``, ``serve`` and ``pool``.

Every measured call goes through the program's public surface
(``repro.api`` and the services it returns); input generation uses the
SynthDrive generator and the model factory, and the checks may use
``repro.core`` directly.  Each workload has the same life cycle:

``prepare()``
    generates the seeded inputs and the seeded checkpoint (untimed);
``setup()``
    loads the checkpoint, starts the surface and produces a first
    result; returns its wall seconds (called several times, the last
    surface stays up);
``measure(seconds, tracer)``
    runs the measured window and returns a :class:`Window`;
``check(window)``
    compares the collected outputs with direct references, outside
    the timed window, and returns the failures;
``plant(window)``
    corrupts one collected output, so the checks can be shown to fail;
``teardown()``
    stops the surface and every process it started.

README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import shutil
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.api
from accounting import (
    PROBE_BETWEEN_ARRIVALS_S,
    PROBE_BETWEEN_OPS_S,
    Meter,
    SpeedProbe,
    mean,
    percentile,
)
from repro.obs import metrics
from tracer import END, ITEMS, START, Tracer

FRAMES = 8
CLIP_SECONDS = 8.0
TOP_K = 5
# One step of the per-op brightness shift that makes derived inputs
# distinct (new content hash) while keeping their structure.
SHIFT = np.float32(2.0 ** -12)


def shifted(array: np.ndarray, step: int) -> np.ndarray:
    """``array`` raised by ``step`` shift units: a distinct input with
    the same structure (a video keeps its repeated frames)."""
    return array + np.float32(step) * SHIFT


def synth(seed: int, count: int, frames: int, duration: float):
    """Seeded SynthDrive clips (families in rotation) with their
    families and ground-truth descriptions."""
    from repro.data.synthdrive import SynthDriveConfig, generate_dataset

    data = generate_dataset(SynthDriveConfig(
        num_clips=count, frames=frames, duration=duration, seed=seed))
    return data.videos, list(data.families), list(data.descriptions)


def write_checkpoint(work: str, model: str, seed: int) -> str:
    """A seeded, self-describing checkpoint of ``model``."""
    from repro.models.config import ModelConfig
    from repro.models.factory import build_model

    path = os.path.join(work, f"{model}.npz")
    build_model(model, ModelConfig(frames=FRAMES, seed=seed)).save(path)
    return path


def span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclasses.dataclass
class Costs:
    """What a window's results cost: totals and per-sample times."""

    busy_s: float = 0.0
    cpu_s: float = 0.0
    latency_ms: List[float] = dataclasses.field(default_factory=list)
    query_ms: List[float] = dataclasses.field(default_factory=list)


def scaled(value: float, slowdown: float) -> Tuple[float, float]:
    """``(raw, scaled)``: ``value`` as measured and at typical host speed."""
    return value, value / slowdown


def summed(pairs: List[Tuple[float, float]]) -> Tuple[float, float]:
    return sum(raw for raw, _ in pairs), sum(fast for _, fast in pairs)


@dataclasses.dataclass
class Window:
    """One measured window: counts, costs (raw and scaled to the host's
    typical speed, see :class:`accounting.SpeedProbe`), collected
    outputs, report fields and workload-specific layer metrics."""

    attempted: int = 0
    failed: int = 0
    results: int = 0
    peak_rss_mb: float = 0.0
    slowdown: float = 1.0
    raw: Costs = dataclasses.field(default_factory=Costs)
    scaled: Costs = dataclasses.field(default_factory=Costs)
    outputs: list = dataclasses.field(default_factory=list)
    report: Dict[str, object] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, busy_s=None, cpu_s=None, latency_ms=None,
            query_ms=None) -> None:
        """Record ``(raw, scaled)`` pairs."""
        for costs, i in ((self.raw, 0), (self.scaled, 1)):
            if busy_s is not None:
                costs.busy_s += busy_s[i]
            if cpu_s is not None:
                costs.cpu_s += cpu_s[i]
            if latency_ms is not None:
                costs.latency_ms.append(latency_ms[i])
            if query_ms is not None:
                costs.query_ms.append(query_ms[i])

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        costs = self.raw if raw else self.scaled
        return {
            "peak_rss_mb": self.peak_rss_mb,
            "cpu_ms_per_result": 1e3 * costs.cpu_s / max(self.results, 1),
            "results_per_s": self.results / costs.busy_s,
            "latency_p50_ms": percentile(costs.latency_ms, 50),
            "latency_p90_ms": percentile(costs.latency_ms, 90),
            "query_p50_ms": percentile(costs.query_ms, 50),
        }


class Timed:
    """Wall and CPU seconds of calls, with the host speed around each.

    A speed probe runs before the first call and after every call, so
    each call is scaled by the mean of the probes on either side of it.
    """

    PROBES = 2  # probe runs at each boundary

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.speed = probe.sample(self.PROBES)

    def __call__(self, call):
        """``(result, wall_s, cpu_s, slowdown)`` of ``call()``."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = call()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        before, self.speed = self.speed, self.probe.sample(self.PROBES)
        return result, wall, cpu, (before + self.speed) / 2


class Workload:
    model = ""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self._dirs = 0

    def fresh_dir(self, kind: str) -> str:
        self._dirs += 1
        return os.path.join(self.work, f"{kind}-{self._dirs:04d}")

    def layers(self, window: "Window", tracer: Tracer) -> Dict[str, float]:
        """Layer metrics only this workload can compute."""
        return {}

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
class Fleet(Workload):
    """Closed loop, one caller: cold-mine a sharded corpus into a fresh
    store, then query the persisted store."""

    model = "vt-divided"
    TAG_QUERIES = (
        {"ego_action": "stop"},
        {"actors": {"pedestrian"}},
        {"ego_action": "turn-left", "actors": {"car"}},
        {"actors": {"car"}, "actor_actions": {"braking"}},
    )

    def __init__(self, work: str, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.clips = 16 if tiny else 256
        self.shard_size = 8 if tiny else 64

    def prepare(self) -> None:
        self.checkpoint = write_checkpoint(self.work, self.model, self.seed)
        clips, families, truth = synth(10 * self.seed + 1, self.clips,
                                       FRAMES, CLIP_SECONDS)
        self.corpus = os.path.join(self.work, "corpus")
        repro.api.build_corpus(clips, self.corpus,
                               shard_size=self.shard_size,
                               families=families)
        # Ground-truth descriptions of three corpus clips as the
        # description queries, then the keyword-tag queries.
        self.queries = ([("description", d) for d in truth[:3]]
                        + [("tags", t) for t in self.TAG_QUERIES])
        warm, warm_families, _ = synth(10 * self.seed + 2, 4, FRAMES,
                                       CLIP_SECONDS)
        self.warm_corpus = os.path.join(self.work, "warm-corpus")
        repro.api.build_corpus(warm, self.warm_corpus, shard_size=4,
                               families=warm_families)
        # From here on the corpus exists only on disk.

    def setup(self) -> float:
        store = self.fresh_dir("setup-store")
        start = time.perf_counter()
        extractor = repro.api.load_extractor(self.checkpoint)
        repro.api.mine_corpus(extractor, self.warm_corpus,
                              store_dir=store, ego_action="stop")
        elapsed = time.perf_counter() - start
        self.extractor = extractor
        return elapsed

    def _query(self, store: str, query):
        kind, value = query
        if kind == "description":
            return repro.api.mine_corpus(self.extractor, self.corpus,
                                         query=value, top_k=TOP_K,
                                         store_dir=store)
        return repro.api.mine_corpus(self.extractor, self.corpus,
                                     top_k=TOP_K, store_dir=store, **value)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        window = Window()
        probe = SpeedProbe(PROBE_BETWEEN_OPS_S)
        meter = Meter()
        timed = Timed(probe)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            store = self.fresh_dir("store")
            with span(tracer, "op.fleet"):
                (_, cold), wall, cpu, slow = timed(
                    lambda: repro.api.mine_corpus(self.extractor,
                                                  self.corpus,
                                                  store_dir=store))
                walls, cpus = [scaled(wall, slow)], [scaled(cpu, slow)]
                answers = []
                for query in self.queries:
                    with span(tracer, "op.query"):
                        (hits, stats), wall, cpu, slow = timed(
                            lambda: self._query(store, query))
                    window.add(query_ms=scaled(1e3 * wall, slow))
                    walls.append(scaled(wall, slow))
                    cpus.append(scaled(cpu, slow))
                    answers.append((hits, stats.clips_extracted))
            busy = summed(walls)
            window.add(busy_s=busy, cpu_s=summed(cpus),
                       latency_ms=(1e3 * busy[0], 1e3 * busy[1]))
            window.attempted += 1
            window.results += cold.clips_extracted
            window.outputs.append((cold.clips_extracted, answers))
            shutil.rmtree(store)
        window.peak_rss_mb = meter.stop()["peak_rss_mb"]
        window.slowdown = probe.slowdown()
        window.report = {"ops": window.attempted,
                         "speed_probes": len(probe.samples),
                         "queries": len(window.raw.query_ms),
                         "clips": self.clips}
        return window

    def _corpus_clips(self) -> np.ndarray:
        clips = []
        for shard in sorted(os.listdir(self.corpus)):
            shard_dir = os.path.join(self.corpus, shard)
            if not shard.startswith("shard-"):
                continue
            for name in sorted(os.listdir(shard_dir)):
                with np.load(os.path.join(shard_dir, name)) as archive:
                    clips.append(archive["clip"])
        return np.stack(clips)

    def check(self, window: Window) -> List[str]:
        miner = repro.api.ScenarioMiner(
            repro.api.load_extractor(self.checkpoint))
        miner.index(self._corpus_clips())
        expected = [miner.query(value, top_k=TOP_K) if kind == "description"
                    else miner.query_tags(top_k=TOP_K, **value)
                    for kind, value in self.queries]
        failures = []
        for op, (extracted, answers) in enumerate(window.outputs):
            if extracted != self.clips:
                failures.append(f"fleet op {op}: cold pass extracted "
                                f"{extracted} of {self.clips} clips")
            for q, ((hits, forwards), want) in enumerate(
                    zip(answers, expected)):
                if forwards:
                    failures.append(f"fleet op {op} query {q}: resume "
                                    f"pass ran {forwards} forwards")
                if hits != want:
                    failures.append(f"fleet op {op} query {q}: top-{TOP_K}"
                                    " differs from in-memory repro.mine")
        return failures

    def plant(self, window: Window) -> None:
        hits = window.outputs[-1][1][0][0]
        hits[0] = dataclasses.replace(hits[0], clip_id=hits[0].clip_id + 1)


# ----------------------------------------------------------------------
class Timeline(Workload):
    """Closed loop, one caller: long recordings through the memoized
    sliding-window timeline."""

    model = "vt-factorized"
    WINDOW, STRIDE = 8, 2
    QUERY_EVERY = 4      # re-ask every 4th recording (memo warm)
    CHECK_EVERY = 16     # keep every 16th timeline for the naive check
    MAX_CHECKS = 6

    def __init__(self, work: str, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.frames = 64 if tiny else 384
        self.duration = CLIP_SECONDS if tiny else 40.0
        self.ops = 0

    def prepare(self) -> None:
        from repro.data.synthdrive import SynthDriveConfig

        self.checkpoint = write_checkpoint(self.work, self.model, self.seed)
        self.config = SynthDriveConfig(frames=self.frames,
                                       duration=self.duration)
        self.families = self.config.resolved_families()
        self.warm = synth(10 * self.seed + 4, 1, 16, 4.0)[0][0]

    def setup(self) -> float:
        start = time.perf_counter()
        extractor = repro.api.load_extractor(self.checkpoint)
        repro.api.extract_video(extractor, self.warm, window=self.WINDOW,
                                stride=self.STRIDE)
        elapsed = time.perf_counter() - start
        self.extractor = extractor
        return elapsed

    def _video(self, op: int) -> np.ndarray:
        """Recording ``op`` of this seed: families rotate and every op
        simulates a new recording, so none repeats within a run and the
        memo only reuses frames inside a recording."""
        from repro.data.synthdrive import generate_clip

        family = self.families[op % len(self.families)]
        return generate_clip(family, 1_000_003 * self.seed + op,
                             self.config)[0]

    def _extract(self, video: np.ndarray):
        return repro.api.extract_video(self.extractor, video,
                                       window=self.WINDOW,
                                       stride=self.STRIDE)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        window = Window()
        hits = misses = 0
        reask_mismatches = []
        probe = SpeedProbe(PROBE_BETWEEN_OPS_S)
        meter = Meter()
        timed = Timed(probe)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            op = self.ops
            self.ops += 1
            video = self._video(op)
            before = self.extractor.reuse_stats()
            with span(tracer, "op.video"):
                results, wall, cpu, slow = timed(
                    lambda: self._extract(video))
            after = self.extractor.reuse_stats()
            hits += after["frame_hits"] - before["frame_hits"]
            misses += after["frame_misses"] - before["frame_misses"]
            window.add(busy_s=scaled(wall, slow), cpu_s=scaled(cpu, slow),
                       latency_ms=scaled(1e3 * wall, slow))
            window.attempted += 1
            window.results += len(results)
            if op % self.QUERY_EVERY == 0:
                with span(tracer, "op.reask"):
                    again, wall, _, slow = timed(
                        lambda: self._extract(video))
                window.add(query_ms=scaled(1e3 * wall, slow))
                if again != results:
                    reask_mismatches.append(op)
            if (op % self.CHECK_EVERY == 0
                    and len(window.outputs) < self.MAX_CHECKS):
                window.outputs.append((op, results))
        window.peak_rss_mb = meter.stop()["peak_rss_mb"]
        window.slowdown = probe.slowdown()
        window.report = {"ops": window.attempted,
                         "speed_probes": len(probe.samples),
                         "reasks": len(window.raw.query_ms),
                         "reask_mismatches": reask_mismatches,
                         "memo_hit_rate": hits / max(hits + misses, 1)}
        return window

    def check(self, window: Window) -> List[str]:
        failures = [f"timeline op {op}: re-asked timeline differs"
                    for op in window.report["reask_mismatches"]]
        reference = repro.api.load_extractor(self.checkpoint)
        for op, results in window.outputs:
            naive = reference.extract_sliding(self._video(op),
                                              window=self.WINDOW,
                                              stride=self.STRIDE,
                                              reuse=False)
            if results != naive:
                failures.append(f"timeline op {op}: memoized timeline "
                                "differs from extract_sliding(reuse=False)")
        return failures

    def plant(self, window: Window) -> None:
        results = window.outputs[-1][1]
        results[0] = dataclasses.replace(
            results[0], sentence=results[0].sentence + " (planted)")

    def layers(self, window: Window, tracer: Tracer) -> Dict[str, float]:
        return {"pipeline.memo_hit_rate": window.report["memo_hit_rate"]}


# ----------------------------------------------------------------------
class OpenLoop(Workload):
    """Open loop: Poisson arrivals at a fixed rate into a started
    service (``workers=1``) or pool (``workers=2``), with a disk cache
    and an event log.  A share of requests repeats a warmed hot set."""

    model = "vt-divided"
    RATE = 50.0
    HOT_SHARE = 0.25
    HOT = 16
    LATE_FLAG_MS = 5.0   # sender p99 lateness that flags a run
    PROBE_GAP_S = 0.002  # the sender probes only in gaps this long
    PROBE_EVERY_S = 0.05

    def __init__(self, work: str, seed: int, tiny: bool,
                 workers: int) -> None:
        super().__init__(work, seed)
        self.workers = workers
        self.bases = 8 if tiny else 32
        self.service = None
        self.windows = 0
        self.unique = 0

    def prepare(self) -> None:
        self.checkpoint = write_checkpoint(self.work, self.model, self.seed)
        self.base = synth(10 * self.seed + 5, self.bases, FRAMES,
                          CLIP_SECONDS)[0]
        self.hot = synth(10 * self.seed + 6, self.HOT, FRAMES,
                         CLIP_SECONDS)[0]
        self.warm = synth(10 * self.seed + 7, 1, FRAMES, CLIP_SECONDS)[0][0]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def setup(self) -> float:
        self.teardown()
        cache = self.fresh_dir("cache")
        events = self.fresh_dir("events")
        start = time.perf_counter()
        extractor = repro.api.load_extractor(self.checkpoint)
        service = repro.api.serve(extractor, workers=self.workers,
                                  cache=cache, events=events)
        first = service.extract(self.warm)
        elapsed = time.perf_counter() - start
        self.service = service
        self.extractor = extractor
        self.router = getattr(service, "router", None)
        if not first.ok:
            raise RuntimeError(f"set-up request failed: {first.status}")
        # Warm the hot set one request at a time (every warm-up batch
        # holds one clip), outside every measured window.
        self.hot_results = [service.extract(clip) for clip in self.hot]
        return elapsed

    def _plan(self, seconds: float) -> list:
        """Poisson arrivals at :attr:`RATE` conditioned on their count:
        ``RATE * seconds`` arrival times drawn uniformly and sorted."""
        rng = np.random.default_rng([self.seed, self.windows])
        self.windows += 1
        plan = []
        for due in np.sort(rng.uniform(0.0, seconds,
                                       int(round(self.RATE * seconds)))):
            if rng.random() < self.HOT_SHARE:
                plan.append((float(due), "hot", int(rng.integers(self.HOT))))
            else:
                self.unique += 1
                plan.append((float(due), "unique",
                             (int(rng.integers(self.bases)), self.unique)))
        return plan

    def _clip(self, kind: str, key) -> np.ndarray:
        if kind == "hot":
            return self.hot[key]
        base, step = key
        return shifted(self.base[base], step)

    def _worker_series(self) -> Dict[str, Dict[str, dict]]:
        """Telemetry-plane series per name and worker rank."""
        series: Dict[str, Dict[str, dict]] = defaultdict(dict)
        for row in metrics.snapshot():
            worker = row["labels"].get("worker")
            if worker is not None and len(row["labels"]) == 1:
                series[row["name"]][worker] = row
        return series

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        plan = self._plan(seconds)
        service = self.service
        series0 = self._worker_series()
        done: list = []
        pending: "queue.SimpleQueue" = queue.SimpleQueue()

        def wait_for_completions() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                kind, key, due, sent, future = item
                done.append((kind, key, due, sent, future.result()))

        waiter = threading.Thread(target=wait_for_completions,
                                  name="perfbench-waiter")
        probe = SpeedProbe(PROBE_BETWEEN_ARRIVALS_S)
        probed = 0.0
        meter = Meter()
        waiter.start()
        origin = time.monotonic() + 0.01
        try:
            for offset, kind, key in plan:
                clip = self._clip(kind, key)
                due = origin + offset
                # Probe the host speed while the next arrival is not due.
                now = time.monotonic()
                if (due - now > self.PROBE_GAP_S
                        and now - probed > self.PROBE_EVERY_S):
                    probe.run()
                    probed = now
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                future = service.submit(clip)
                pending.put((kind, key, due, sent, future))
        finally:
            pending.put(None)
            waiter.join()
        usage = meter.stop()
        if self.workers > 1:
            # Let the last telemetry frames land before reading them.
            time.sleep(0.6)
        series1 = self._worker_series()

        # One speed factor for the whole window: arrivals do not wait
        # for each other, so no per-request boundary exists to probe at.
        slow = probe.slowdown()
        window = Window(attempted=len(plan), slowdown=slow,
                        peak_rss_mb=usage["peak_rss_mb"])
        late_ms, inside_ms, batch_sizes = [], [], []
        finished = origin
        for kind, key, due, sent, result in done:
            late_ms.append(1e3 * (sent - due))
            finished = max(finished, sent + result.latency_s)
            if result.status != "ok":
                window.failed += 1
                window.add(latency_ms=(float("inf"), float("inf")))
                continue
            window.results += 1
            latency = scaled(1e3 * (sent - due + result.latency_s), slow)
            window.add(latency_ms=latency)
            inside_ms.append(1e3 * result.latency_s)
            if result.cached:
                window.add(query_ms=latency)
            else:
                batch_sizes.append(result.batch_size)
        # The rate of an open loop is its offered load: never scaled.
        # The probe ran on the sender thread: its CPU is not the program's.
        busy = finished - origin
        probe_cpu = sum(probe.samples)
        window.add(busy_s=(busy, busy),
                   cpu_s=scaled(usage["cpu_s"] - probe_cpu, slow))
        window.outputs = [(kind, key, result)
                          for kind, key, _, _, result in done]
        late_p99 = percentile(late_ms, 99)
        window.report = {
            "requests": len(plan), "ok": window.results,
            "cached": len(window.raw.query_ms),
            "sender_late_p99_ms": late_p99,
            "sender_behind": late_p99 > self.LATE_FLAG_MS,
            "peak_reset": usage["peak_reset"],
            "speed_probes": len(probe.samples),
        }
        ok = max(window.results, 1)
        window.layers = {
            "loadgen.late_p99_ms": late_p99,
            "service.inside_ms_p50": percentile(inside_ms, 50),
            "service.batch_size_mean": mean(batch_sizes),
        }
        if self.workers > 1:
            window.layers.update(self._pool_layers(
                series0, series1, done, usage["parent_cpu_s"] - probe_cpu,
                usage["worker_cpu_s"], ok))
        return window

    @staticmethod
    def _delta(series0, series1, name: str, field: str) -> Dict[str, float]:
        after = series1.get(name, {})
        before = series0.get(name, {})
        return {worker: float(row[field])
                - float(before.get(worker, {}).get(field, 0.0))
                for worker, row in after.items()}

    def _pool_layers(self, series0, series1, done, parent_cpu_s: float,
                     worker_cpu_s: float, ok: int) -> Dict[str, float]:
        lat_sum = self._delta(series0, series1, "serve.latency_seconds", "sum")
        lat_count = self._delta(series0, series1, "serve.latency_seconds",
                                "count")
        batch_sum = self._delta(series0, series1, "serve.batch_size", "sum")
        batch_count = self._delta(series0, series1, "serve.batch_size",
                                  "count")
        hits = sum(self._delta(series0, series1, "cache.hit",
                               "value").values())
        misses = sum(self._delta(series0, series1, "cache.miss",
                                 "value").values())
        routed = self._delta(series0, series1, "serve.pool.routed", "value")
        parent_ms = mean([1e3 * r.latency_s for *_, r in done if r.ok])
        worker_ms = 1e3 * sum(lat_sum.values()) / max(
            sum(lat_count.values()), 1)
        return {
            "pool.ipc_ms_mean": parent_ms - worker_ms,
            "pool.parent_cpu_ms_per_result": 1e3 * parent_cpu_s / ok,
            "pool.worker_cpu_ms_per_result": 1e3 * worker_cpu_s / ok,
            "pool.route_skew": (max(routed.values())
                                / max(min(routed.values()), 1.0)
                                if routed else 0.0),
            "models.clips_per_forward": (sum(batch_sum.values())
                                         / max(sum(batch_count.values()), 1)),
            "cache.hit_rate": hits / max(hits + misses, 1.0),
        }

    def layers(self, window: Window, tracer: Tracer) -> Dict[str, float]:
        if self.workers > 1:
            return {}
        batches = [s for s in tracer.named("pipeline.extract_batch")
                   if s[ITEMS]]
        return {"service.forward_ms_per_batch": mean(
            [1e3 * (s[END] - s[START]) for s in batches])}

    def _rank(self, clip: np.ndarray) -> int:
        if self.workers == 1:
            return 0
        from repro.core.cache import clip_content_hash

        return self.router.shard(clip_content_hash(clip))

    def check(self, window: Window) -> List[str]:
        reference = repro.api.load_extractor(self.checkpoint)
        hot_expected = [reference.extract_batch(clip[None])[0]
                        for clip in self.hot]
        failures = [f"warm-up of hot clip {i} differs from extract_batch"
                    for i, (got, want) in enumerate(
                        zip(self.hot_results, hot_expected))
                    if not got.ok or got.result != want]
        # Served batches are FIFO runs of the non-cached requests routed
        # to one replica, each member stamped with the batch size; the
        # reference recomputes each batch whole (BLAS results can depend
        # on the batch size, never on the other rows).
        queued: Dict[int, list] = defaultdict(list)
        for kind, key, result in window.outputs:
            if result.status != "ok":
                continue
            if result.cached:
                if kind != "hot":
                    failures.append(f"unique clip {key} served from cache")
                elif result.result != hot_expected[key]:
                    failures.append(f"cached hot clip {key} differs")
                continue
            if kind == "hot":
                failures.append(f"hot clip {key} missed the cache")
            clip = self._clip(kind, key)
            queued[self._rank(clip)].append((clip, result))
        for rank, items in sorted(queued.items()):
            index = 0
            while index < len(items):
                size = items[index][1].batch_size
                batch = items[index:index + size]
                if size < 1 or len(batch) != size or any(
                        r.batch_size != size for _, r in batch):
                    failures.append(f"rank {rank}: batch at request "
                                    f"{index} cannot be reconstructed")
                    break
                expected = reference.extract_batch(
                    np.stack([clip for clip, _ in batch]))
                for (_, got), want in zip(batch, expected):
                    if got.result != want:
                        failures.append(
                            f"rank {rank}: request {got.request_id} "
                            "differs from direct extract_batch")
                index += size
        return failures

    def plant(self, window: Window) -> None:
        for index, (kind, key, result) in enumerate(window.outputs):
            if result.status == "ok" and not result.cached:
                wrong = dataclasses.replace(
                    result.result, sentence=result.result.sentence + "!")
                window.outputs[index] = (
                    kind, key, dataclasses.replace(result, result=wrong))
                return


def make(name: str, work: str, seed: int, tiny: bool) -> Workload:
    if name == "fleet":
        return Fleet(work, seed, tiny)
    if name == "timeline":
        return Timeline(work, seed, tiny)
    return OpenLoop(work, seed, tiny, workers=1 if name == "serve" else 2)
