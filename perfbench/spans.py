"""In-memory span tracing around the calls into each layer.

The traced benchmark run replaces a layer's public functions, at the
attribute their caller looks up, with wrappers that record one span per
call: name, layer, start, end, parent span and campaign id.  Spans stay
in memory and are written out once at the end.  Nothing in the program
itself changes; only this process's module and class attributes are
patched, and :meth:`Tracer.uninstall` restores them.

A span's *self time* is its duration minus the part of it covered by
its child spans.  Summing self time per layer splits a campaign's wall
time between layers without double counting nested calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    campaign: str = ""
    thread: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "campaign": self.campaign, "thread": self.thread,
        }


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.id]
    return out


#: (module, attribute path, span name, layer).  Each attribute is the
#: one its caller looks up, so the wrapper sees every call.
LAYER_POINTS = (
    ("repro.service.scheduler", "execute_campaign", "campaign", "campaign"),
    ("repro.exec.executor", "Executor.run", "exec.run", "exec"),
    ("repro.harness.runner", "run_pair", "netsim.run_pair", "netsim"),
    ("repro.harness.runner", "sample_points", "sampling.sample_points", "sampling"),
    ("repro.harness.conformance", "evaluate_conformance", "analysis.evaluate", "analysis"),
    ("repro.core.conformance", "build_envelope", "analysis.envelope", "analysis"),
    ("repro.core.conformance", "conformance_post_translation", "analysis.overlap", "analysis"),
    ("repro.store.cache", "StoreCache.get", "cache.get", "cache"),
    ("repro.store.cache", "StoreCache.put", "cache.put", "cache"),
    ("repro.harness.cache", "ResultCache.get", "cache.get", "cache"),
    ("repro.harness.cache", "ResultCache.put", "cache.put", "cache"),
    ("repro.store.warehouse", "ResultStore.get_trial", "store.read", "store"),
    ("repro.store.warehouse", "ResultStore.put_trial", "store.write", "store"),
    ("repro.store.warehouse", "ResultStore.put_trials", "store.write", "store"),
    ("repro.store.warehouse", "ResultStore.record_metrics", "store.write", "store"),
    ("repro.store.warehouse", "ResultStore.record_metrics_raw", "store.write", "store"),
    ("repro.store.warehouse", "ResultStore.record_event", "store.write", "store"),
)

#: Counted, not spanned: far too frequent for a span each.
EVENT_POINT = ("repro.netsim.engine", "EventLoop.schedule_at")


class Tracer:
    """Records spans and counters for the layer points above."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        # HTTP submit threads journal (store.write) while the scheduler
        # worker runs a campaign.
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, layer: str, fn, args, kwargs, campaign: str = ""):
        """Run ``fn`` inside a span.  A call nested directly in a span of
        the same name (``StoreCache.get`` calling ``ResultCache.get``)
        is part of that span, not a new one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs), None, stack
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=self.clock(),
            parent=parent.id if parent is not None else -1,
            campaign=campaign or (parent.campaign if parent is not None else ""),
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
            self.spans.append(span)
        return result, span, stack

    # ------------------------------------------------------------- patching

    def _wrapper(self, name: str, layer: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            campaign = ""
            if name == "campaign":
                campaign = args[0].run_name()
            result, span, stack = tracer.call(
                name, layer, original, args, kwargs, campaign=campaign
            )
            if span is not None:
                tracer._observe(span, result, stack)
            return result

        return traced

    def _observe(self, span: Span, result, stack: List[Span]) -> None:
        if span.name == "netsim.run_pair":
            self.count("netsim.trials")
            self.count(
                "netsim.packets",
                len(result.first.trace.records) + len(result.second.trace.records),
            )
        elif span.name == "cache.get" and any(s.layer == "exec" for s in stack):
            # Lookups the executor makes decide whether a trial is
            # simulated; replays during analysis always hit what the
            # same campaign just computed, so they are not counted.
            self.count("cache.lookups")
            self.count("cache.hits", result is not None)
        elif span.name == "store.write":
            self.count("store.writes")

    def _patch(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module_name, path, name, layer in LAYER_POINTS:
            self._patch(
                module_name, path,
                lambda original, n=name, l=layer: self._wrapper(n, l, original),
            )

        def counting(original):
            tracer = self

            # Unlocked: only the service's single worker thread simulates.
            @functools.wraps(original)
            def schedule_at(*args, **kwargs):
                tracer.counters["netsim.events"] = tracer.counters.get("netsim.events", 0) + 1
                return original(*args, **kwargs)

            return schedule_at

        self._patch(*EVENT_POINT, counting)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.row()) + "\n")

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def campaign_split(spans: List[Span], timed_s: float) -> Dict[str, float]:
    """Per-layer self time inside campaigns, plus what no span covers.

    ``campaign`` self time is the remainder inside ``execute_campaign``;
    ``outside_campaigns`` is timed wall time outside every campaign span
    (client, HTTP transport, queueing and journaling around the runs).
    """
    layers = layer_self_times([s for s in spans if s.campaign])
    in_campaigns = sum(s.duration for s in spans if s.name == "campaign")
    layers["outside_campaigns"] = max(0.0, timed_s - in_campaigns)
    return layers


__all__ = [
    "Span",
    "Tracer",
    "LAYER_POINTS",
    "self_times",
    "layer_self_times",
    "campaign_split",
]
