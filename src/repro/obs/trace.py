"""Nested-span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` records two kinds of observations:

* **spans** — named, nested intervals (``with tracer.span("pdr.block_cube",
  frame=k):``) carrying wall time, process/thread ids, a category
  (``engine`` / ``frames`` / ``sat`` / ``bdd`` / ...), and free-form
  attributes.  Nesting is tracked per thread, so concurrent sessions
  produce well-formed trees;
* **counter samples** — ``tracer.sample("sat.conflicts", n)`` time-series
  points, the output of the probe hooks in :mod:`repro.obs.probes` and
  the only place a sample is stored.

Both export as Chrome ``trace_event`` JSON (loadable in
``chrome://tracing`` and Perfetto: spans become ``ph:"X"`` complete
events, samples become ``ph:"C"`` counter tracks).  The records
themselves (:meth:`Tracer.export_records`) are what crosses process
boundaries and what the verification service stores per job, beside
the tracer's ``wall_epoch``.

Timestamps are ``time.perf_counter()`` offsets from the tracer's
``epoch``.  On Linux ``perf_counter`` is CLOCK_MONOTONIC, which is
system-wide: a forked worker that builds its tracer with the *parent's*
epoch produces records directly mergeable into the parent's timeline —
that is how the portfolio runner stitches subprocess engines into one
coherent per-task trace (see :func:`Tracer.merge_records`).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

# The Chrome export names its schema in this envelope field.
_SCHEMA = "repro.obs/1"


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    category: str
    start: float               # seconds since the tracer epoch
    duration: float            # seconds
    pid: int
    tid: int
    span_id: int
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        record = {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "dur": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_record(cls, record: dict) -> "SpanRecord":
        return cls(
            name=record["name"],
            category=record.get("cat", ""),
            start=record["start"],
            duration=record["dur"],
            pid=record["pid"],
            tid=record.get("tid", 0),
            span_id=record.get("id", 0),
            parent_id=record.get("parent"),
            attrs=dict(record.get("attrs", {})),
        )


@dataclass
class CounterRecord:
    """One time-series sample of a named counter or gauge."""

    name: str
    t: float                   # seconds since the tracer epoch
    value: float
    pid: int

    def to_record(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "t": self.t,
            "value": self.value,
            "pid": self.pid,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CounterRecord":
        return cls(
            name=record["name"],
            t=record["t"],
            value=record["value"],
            pid=record["pid"],
        )


class _Span:
    """Context manager recording one span on exit (reentrant per use)."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_start", "_id",
                 "_parent")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._id = tracer._next_id()
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._id)
        self._start = tracer.now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        end = tracer.now()
        tracer._stack().pop()
        tracer.spans.append(
            SpanRecord(
                name=self._name,
                category=self._category,
                start=self._start,
                duration=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFF,
                span_id=self._id,
                parent_id=self._parent,
                attrs=self._attrs,
            )
        )

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered mid-span (e.g. the verdict)."""
        self._attrs.update(attrs)


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and counter samples for one task or session.

    ``tick`` is the minimum interval (seconds) between samples of the
    same counter accepted by :meth:`should_sample` — the knob that keeps
    probe hooks in hot kernels cheap while tracing is *enabled*.
    ``epoch`` defaults to "now"; a subprocess worker passes its parent's
    epoch so both sides share one timeline.
    """

    def __init__(self, tick: float = 0.01, epoch: float | None = None) -> None:
        self.tick = tick
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.wall_epoch = time.time()
        self.spans: list[SpanRecord] = []
        self.counters: list[CounterRecord] = []
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()
        self._last_sample: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """Seconds since the tracer epoch (monotonic)."""
        return time.perf_counter() - self.epoch

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            self._ids += 1
            # Disambiguate ids across forked workers sharing an epoch.
            return (os.getpid() << 20) | self._ids

    def span(self, name: str, category: str = "engine",
             **attrs: object) -> _Span:
        """A context manager recording one nested span."""
        return _Span(self, name, category, attrs)

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        **attrs: object,
    ) -> None:
        """Record an already-timed interval (for hooks that cannot nest a
        context manager into the instrumented code)."""
        stack = self._stack()
        self.spans.append(
            SpanRecord(
                name=name,
                category=category,
                start=start,
                duration=end - start,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFF,
                span_id=self._next_id(),
                parent_id=stack[-1] if stack else None,
                attrs=attrs,
            )
        )

    def sample(self, name: str, value: float) -> None:
        """Record one counter sample at the current time."""
        self.counters.append(
            CounterRecord(name=name, t=self.now(), value=float(value),
                          pid=os.getpid())
        )

    def should_sample(self, name: str) -> bool:
        """Tick guard: at most one accepted sample of ``name`` per tick."""
        now = time.perf_counter()
        last = self._last_sample.get(name)
        if last is not None and now - last < self.tick:
            return False
        self._last_sample[name] = now
        return True

    # ------------------------------------------------------------------ #
    # Merging (cross-process)
    # ------------------------------------------------------------------ #

    def export_records(self) -> list[dict]:
        """Everything recorded so far, as JSON-serializable dicts."""
        return [span.to_record() for span in self.spans] + [
            counter.to_record() for counter in self.counters
        ]

    def merge_records(self, records: list[dict]) -> None:
        """Fold records exported by another tracer (e.g. a forked worker
        sharing this tracer's epoch) into this timeline."""
        for record in records:
            if record.get("type") == "counter":
                self.counters.append(CounterRecord.from_record(record))
            else:
                self.spans.append(SpanRecord.from_record(record))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` "JSON object format" document."""
        events: list[dict] = []
        pids = set()
        for span in sorted(self.spans, key=lambda s: s.start):
            pids.add(span.pid)
            event = {
                "name": span.name,
                "cat": span.category or "repro",
                "ph": "X",
                "ts": span.start * 1e6,      # microseconds
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.tid,
            }
            if span.attrs:
                event["args"] = {
                    key: value for key, value in span.attrs.items()
                }
            events.append(event)
        for counter in sorted(self.counters, key=lambda c: c.t):
            pids.add(counter.pid)
            events.append(
                {
                    "name": counter.name,
                    "ph": "C",
                    "ts": counter.t * 1e6,
                    "pid": counter.pid,
                    "tid": 0,
                    "args": {"value": counter.value},
                }
            )
        for pid in sorted(pids):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "name": "repro" if pid == os.getpid()
                        else f"repro worker {pid}"
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": _SCHEMA,
                "wall_epoch": self.wall_epoch,
            },
        }

    def write_chrome_trace(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_chrome_trace()) + "\n"
        )
