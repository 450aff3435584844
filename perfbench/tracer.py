"""Spans around the calls into each layer, recorded from outside.

The program is not changed: :class:`Tracer` replaces chosen functions
and methods of the program's modules with timing wrappers for the
traced window and puts the originals back afterwards.  Each call
becomes one span ``(id, parent, name, start, end, request_id, thread,
items, flag)``: ``parent`` is the enclosing traced call on the same
thread, ``request_id`` the service request being handled (explicit
argument, bound ``repro.obs.context``, or the returned future's id),
``items`` how many clips / frames / windows / results the call handled
and ``flag`` a call-specific boolean (a cache hit).  Spans stay in
memory and are written as JSON lines when the run ends.

Forked pool workers inherit no wrappers (they are forked before
tracing starts), so worker-side numbers come from the telemetry plane's
``worker=<rank>`` series instead.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span tuple fields.
SID, PARENT, NAME, START, END, RID, THREAD, ITEMS, FLAG = range(9)


def _count(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 1


def items_of_arg(index: int) -> Callable:
    """Items = ``len`` of positional argument ``index``."""
    return lambda args, kwargs, result: _count(args[index])


def items_of_result(args, kwargs, result) -> int:
    return _count(result) if result is not None else 0


def one(args, kwargs, result) -> int:
    return 1


def hit_flag(args, kwargs, result) -> bool:
    return result is not None


class Tracer:
    """In-memory span recorder over patched program entry points."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        from repro.obs import context

        self._current_request_id = context.current_request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, items: Callable,
              flag: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            rid = kwargs.get("request_id") or tracer._current_request_id()
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if rid is None:
                    rid = getattr(result, "request_id", None)
                tracer.spans.append((
                    sid, parent, name, start, end, rid,
                    threading.get_ident(), items(args, kwargs, result),
                    bool(flag(args, kwargs, result)) if flag else False))

        return traced

    def patch(self, owner, attr: str, name: str,
              items: Callable = one,
              flag: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) with a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrap(name, original.__func__, items, flag))
        else:
            replacement = self._wrap(name, original, items, flag)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, items: int = 0):
        """A span around the benchmark's own code (an op, a phase)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, None,
                               threading.get_ident(), items, False))

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT]:
                child_time[span[PARENT]] += span[END] - span[START]
        return {span[SID]: span[END] - span[START] - child_time[span[SID]]
                for span in self.spans}

    def named(self, name: str) -> List[tuple]:
        return [span for span in self.spans if span[NAME] == name]

    def under(self, ancestor_name: str) -> Iterable[tuple]:
        """Spans with an ancestor called ``ancestor_name``."""
        by_id = {span[SID]: span for span in self.spans}
        for span in self.spans:
            parent = span[PARENT]
            while parent:
                up = by_id.get(parent)
                if up is None:
                    break
                if up[NAME] == ancestor_name:
                    yield span
                    break
                parent = up[PARENT]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "parent", "name", "start", "end", "request_id",
                  "thread", "items", "flag")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the program's layer entry points named in README.md."""
    import repro.api
    import repro.core.cache
    import repro.core.fleet
    import repro.serve.pool
    import repro.serve.service
    from repro.core.cache import ExtractionCache
    from repro.core.fleet import FleetIndex, FleetStore
    from repro.core.pipeline import ScenarioExtractor
    from repro.models.video_transformer import VideoTransformer
    from repro.obs.events import EventLog
    from repro.serve.pool import ServicePool
    from repro.serve.service import ExtractionService

    patch = tracer.patch
    # models
    patch(ScenarioExtractor, "logits", "models.logits", items_of_arg(1))
    patch(VideoTransformer, "frame_features", "models.frame_features",
          items_of_arg(1))
    patch(VideoTransformer, "head_logits_from_frame_features",
          "models.head", items_of_arg(1))
    # pipeline
    patch(ScenarioExtractor, "extract_batch", "pipeline.extract_batch",
          items_of_result)
    patch(repro.api, "extract_video", "pipeline.extract_video",
          items_of_result)
    # cache (the hash function is imported by name into three modules)
    patch(ExtractionCache, "get", "cache.get", one, hit_flag)
    patch(ExtractionCache, "put", "cache.put")
    for module in (repro.core.cache, repro.serve.service, repro.serve.pool):
        patch(module, "clip_content_hash", "cache.hash")
    # fleet
    patch(repro.core.fleet, "load_clip", "fleet.load_clip")
    patch(FleetStore, "write_shard", "fleet.write_shard")
    patch(FleetIndex, "open", "fleet.index_open")
    patch(FleetIndex, "query", "fleet.query")
    # service, pool, events
    patch(ExtractionService, "submit", "service.submit")
    patch(ServicePool, "submit", "pool.submit")
    patch(EventLog, "emit", "events.emit")
