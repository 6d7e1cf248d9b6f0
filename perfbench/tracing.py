"""Spans around the public entry points of each layer, recorded from the
benchmark's own files (nothing under ``src/`` knows about them).

A span records its name, start, end, parent span and request id.  A
request is one optimization job, one fleet switch or one serve cycle.
Per-packet serve calls are too many to keep one by one: they are kept
as a count, a total and a power-of-two microsecond histogram.

Spans stay in memory until the run ends.  Fleet pool workers are forked
after the wrappers are installed, so they record too; each writes its
spans to a file when ``SwitchRun.execute`` returns and the parent merges
those files in submission order.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "sid": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "pid": self.pid, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(**data)


@dataclass
class HotStats:
    """Count, total seconds and a log2-microsecond histogram of one
    per-packet call site."""

    count: int = 0
    total: float = 0.0
    histogram: Dict[int, int] = field(default_factory=dict)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        bucket = max(0, int(seconds * 1e6)).bit_length()
        self.histogram[bucket] = self.histogram.get(bucket, 0) + 1

    def mean_us(self) -> float:
        return self.total / self.count * 1e6 if self.count else 0.0


class Tracer:
    """In-memory span recorder shared by every wrapped entry point."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.hot: Dict[str, HotStats] = {}
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    # -- per-thread context --------------------------------------------
    def _stack(self) -> List[Tuple[Optional[int], str, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _forked(self) -> None:
        """A pool worker inherited the parent's buffers: start empty."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.hot = {}
            self._local = threading.local()
            self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def call(self, name: str, fn: Callable, args, kwargs,
             request: Optional[str] = None,
             attrs: Optional[Callable] = None):
        """Run ``fn`` inside a span named ``name``.  A span inside a
        request joins it; outside one, ``request`` starts a new one.
        ``attrs`` maps (args, kwargs, result) to span attributes."""
        self._forked()
        stack = self._stack()
        parent, _pname, parent_request = (
            stack[-1] if stack else (None, None, None)
        )
        with self._lock:
            sid = self._next = self._next + 1
        if parent_request is not None:
            request = parent_request
        stack.append((sid, name, request))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(sid, name, start, end, parent, request, self.pid)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        with self._lock:
            self.spans.append(span)
        return result

    def call_hot(self, name: str, fn: Callable, args, kwargs):
        """Run a per-packet ``fn``, adding only to aggregate counts."""
        stack = self._stack()
        stack.append((None, name, None))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            stats = self.hot.get(name)
            if stats is None:
                stats = self.hot[name] = HotStats()
            stats.add(elapsed)

    # -- cross-process hand-off ----------------------------------------
    def dump(self, path: Path) -> None:
        """Write and forget this process's spans (pool worker side)."""
        path.write_text(json.dumps([s.as_dict() for s in self.spans]))
        self.spans = []

    def merge(self, paths: Iterable[Path]) -> None:
        """Adopt spans workers dumped, in the order ``paths`` lists them
        (submission order), re-numbering ids to stay unique.  Their
        top-level spans become children of the current span."""
        stack = self._stack()
        current = stack[-1][0] if stack else None
        for path in paths:
            loaded = [Span.from_dict(d) for d in json.loads(path.read_text())]
            with self._lock:
                base = self._next
                self._next += max((s.sid for s in loaded), default=0)
            for span in loaded:
                span.sid += base
                if span.parent is not None:
                    span.parent += base
                else:
                    span.parent = current
            self.spans.extend(loaded)
            path.unlink()

    def take(self) -> Tuple[List[Span], Dict[str, HotStats]]:
        """Everything recorded so far; the buffers start over."""
        spans, hot = self.spans, self.hot
        self.spans, self.hot = [], {}
        return spans, hot


# ----------------------------------------------------------------------
# Self time


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children can overlap (spans from several threads may share a
    parent), so the covered part is the union of the children's
    intervals clipped to the parent's."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# Wrappers around each layer's public entry points


#: Span name prefix -> the layer (module) it measures, for the report.
LAYERS = (
    ("job.", "perfbench (job root)"),
    ("switch.", "repro.core.pipeline"),
    ("passes.", "repro.core.passes"),
    ("profiler.", "repro.core.profiler + repro.sim"),
    ("fastpath.", "repro.sim.fastpath"),
    ("target.", "repro.target"),
    ("store.", "repro.core.store"),
    ("lease.", "repro.core.store (leases)"),
    ("serve.", "repro.core.serve"),
    ("online.", "repro.core.online"),
    ("equivalence.", "repro.controller.equivalence"),
    ("sim.", "repro.sim"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Wrappers:
    """Patches layer entry points to record into a tracer; ``remove``
    restores every original."""

    def __init__(self, tracer: Tracer, span_dir: Path):
        self.tracer = tracer
        self.span_dir = span_dir
        self._saved: List[Tuple[object, str, object]] = []
        self._switch_runs = 0

    def _patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` (a plain function on a class or a
        module) with ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner, attr: str, name, request=None, attrs=None,
             when=None):
        """Span wrapper; with ``when``, calls for which ``when(args)`` is
        false pass through unrecorded."""
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                if when is not None and not when(args):
                    return fn(*args, **kwargs)
                label = name(args) if callable(name) else name
                req = request(args) if request is not None else None
                return tracer.call(label, fn, args, kwargs, req, attrs)
            return wrapper

        self._patch(owner, attr, make)

    def hot(self, owner, attr: str, name: str, under: Optional[str] = None):
        """Per-packet wrapper; with ``under``, only calls made directly
        inside a ``under`` call are counted (the rest pass through)."""
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                if under is not None and tracer.parent_name() != under:
                    return fn(*args, **kwargs)
                return tracer.call_hot(name, fn, args, kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> "Wrappers":
        from repro.core import (
            fleet, online, passes, phase_memory, phase_offload, pipeline,
            profiler, serve, session, store,
        )
        from repro.sim import fastpath, switch

        tracer, owner_pid = self.tracer, self.tracer.pid

        def execute(fn):
            # Pool workers hand their spans back when a switch finishes.
            def wrapper(run, *args, **kwargs):
                self._switch_runs += 1
                request = f"{run.name}#{self._switch_runs}"
                result = tracer.call(
                    "switch.execute", fn, (run,) + args, kwargs, request
                )
                if os.getpid() != owner_pid:
                    tracer.dump(self.span_dir / f"spans-{run.name}.json")
                return result
            return wrapper

        def run_fleet(fn):
            def wrapper(specs, *args, **kwargs):
                names = [spec.name for spec in specs]

                def body():
                    result = fn(specs, *args, **kwargs)
                    tracer.merge(
                        path for path in (
                            self.span_dir / f"spans-{name}.json"
                            for name in names
                        ) if path.exists()
                    )
                    return result
                return tracer.call("job.fleet", body, (), {})
            return wrapper

        self._patch(pipeline.SwitchRun, "execute", execute)
        self._patch(fleet, "run_fleet", run_fleet)
        self.span(
            passes.PassManager, "run_pass",
            lambda args: "passes." + args[1].phase.name.lower(),
        )
        self.span(profiler.Profiler, "run", "profiler.run",
                  attrs=_replay_attrs)
        # Specialization is the dispatch-tree build (``specialize`` goes
        # through ``ensure_ready`` too) plus one exec-compiled replay
        # closure per installed flow.
        self.span(fastpath.FastPathEngine, "ensure_ready",
                  "fastpath.specialize",
                  when=lambda args: args[0]._dispatch is None)
        self.hot(fastpath, "_compile_replay", "fastpath.closure")
        self.span(fastpath.FastPathEngine, "process_batch", "fastpath.batch")
        # compile_program is bound by name in each module that calls it.
        for module in (session, phase_memory, phase_offload):
            self.span(module, "compile_program", "target.compile")
        for kind in ("compile", "profile"):
            self.span(store.SessionStore, f"load_{kind}", "store.load",
                      attrs=_hit_attrs)
            self.span(store.SessionStore, f"store_{kind}", "store.write",
                      attrs=functools.partial(_write_attrs, kind))
        self.span(store.SessionStore, "claim_probe", "lease.claim",
                  attrs=lambda args, kwargs, result: {
                      "won": result is not None})
        self.span(store.SessionStore, "wait_for_probe", "lease.wait",
                  attrs=_hit_attrs)

        cycles = itertools.count(1)
        self.span(serve.ContinuousOptimizer, "_cycle", "serve.cycle",
                  request=lambda args: f"serve-cycle#{next(cycles)}")
        self.span(serve.ContinuousOptimizer, "_swap", "serve.swap")
        self.span(serve, "compare_behavior", "equivalence.gate")
        self.span(online.OnlineProfiler, "reoptimize", "online.reoptimize")
        self.hot(serve.ContinuousOptimizer, "_process_packet", "serve.packet")
        self.hot(online.OnlineProfiler, "process", "online.process",
                 under="serve.packet")
        self.hot(switch.BehavioralSwitch, "process", "sim.serve_process",
                 under="serve.packet")
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _replay_attrs(args, kwargs, result) -> Dict[str, object]:
    perf = result.perf
    return {
        "packets": len(args[1]),
        "cache_hits": perf.cache_hits,
        "cache_misses": perf.cache_misses,
        "cache_invalidations": perf.cache_invalidations,
    }


def _hit_attrs(args, kwargs, result) -> Dict[str, object]:
    return {"hit": result is not None}


def _write_attrs(kind, args, kwargs, result) -> Dict[str, object]:
    store, key = args[0], args[1]
    try:
        size = store._entry_path(kind, key).stat().st_size
    except OSError:
        size = 0
    return {"bytes": size}
