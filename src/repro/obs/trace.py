"""Span-based tracing: the one clock of ``repro``.

:class:`trace_span` is the only thing in ``src/repro`` that reads a
clock for *measurement*.  It always times its region (two
``time.perf_counter`` reads, cheaper than a generator context manager's
disabled path) and exposes the result as ``.seconds``; when a
:class:`Tracer` is installed the region is also recorded as a
:class:`Span`.  Everything that reports a duration derives it from a
span: ``StageTimes``, every result's ``runtime``, the ``--profile``
table and the ``PROFILE`` event (:mod:`repro.perf.profiler` is a view
over a span list), and the Chrome trace.

Spans record a **monotonic** duration so they survive wall-clock
steps; the start is anchored to the wall clock once, at tracer
creation, so spans from different processes (the worker pool) line up
on one timeline.  Nesting is recorded, not reconstructed: the tracer
keeps a per-thread stack of open spans and stores each span's *self*
time (duration minus its direct children) with the span.  ``ts`` is a
wall-anchored float in microseconds (~0.25 us resolution at today's
epoch), too coarse for interval containment to decide parentage, and
in a merged fleet trace a worker's spans must not nest under the
dispatcher span that happens to contain them in wall time.

The collected :class:`Trace` exports as Chrome trace-event JSON
(``ph: "X"`` complete events with microsecond ``ts``/``dur``) loadable
in ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_, and
:meth:`Trace.load` reads it back.

Usage::

    with Tracer(process_label="repro main") as tracer:
        with trace_span("stage.gp", design="adaptec1") as span:
            ...
            span["iterations"] = 312
    print(span.seconds)
    tracer.trace.save("trace.json")

Worker processes build their own :class:`Tracer`, ship
``tracer.trace.as_dicts()`` over the outcome pipe, and the dispatcher
merges them with :meth:`Trace.extend_dicts` — every span carries the
pid/tid it ran on, so a fleet trace shows one lane per worker.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

#: Chrome-export ``args`` key that carries :attr:`Span.self_dur`
_SELF_KEY = "self_us"


@dataclass
class Span:
    """One completed region: wall-anchored start, monotonic duration.

    ``ts``, ``dur`` and ``self_dur`` are microseconds (the Chrome trace
    unit); ``ts`` is anchored to the tracer's wall-clock epoch, ``dur``
    is a pure ``perf_counter`` difference and never goes negative under
    NTP steps, ``self_dur`` is ``dur`` minus the spans opened directly
    inside this one on the same thread (``None``: no children known,
    i.e. all of ``dur``).
    """

    name: str
    ts: float
    dur: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)
    self_dur: float | None = None

    def __post_init__(self):
        if self.self_dur is None:
            self.self_dur = self.dur

    @property
    def seconds(self) -> float:
        return self.dur / 1e6

    def to_dict(self) -> dict:
        return {"name": self.name, "ts": self.ts, "dur": self.dur,
                "self_dur": self.self_dur, "pid": self.pid,
                "tid": self.tid, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        self_dur = data.get("self_dur")
        return cls(name=data["name"], ts=float(data["ts"]),
                   dur=float(data["dur"]), pid=int(data["pid"]),
                   tid=int(data["tid"]), args=dict(data.get("args") or {}),
                   self_dur=None if self_dur is None else float(self_dur))


class Trace:
    """An ordered collection of spans, mergeable across processes."""

    def __init__(self):
        self.spans: list[Span] = []
        #: pid -> human label, exported as Chrome ``process_name``
        #: metadata so the pool's lanes read "worker w3", not "pid 1234"
        self.process_labels: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def add(self, span: Span) -> None:
        self.spans.append(span)

    # -- serialization -------------------------------------------------
    def as_dicts(self) -> list[dict]:
        """Spans as plain dicts (the worker -> dispatcher wire format)."""
        return [span.to_dict() for span in self.spans]

    def extend_dicts(self, spans: list,
                     process_labels: dict | None = None) -> None:
        """Merge spans shipped from another process."""
        for data in spans:
            self.spans.append(Span.from_dict(data))
        if process_labels:
            for pid, label in process_labels.items():
                self.process_labels[int(pid)] = str(label)

    def to_chrome_events(self) -> list[dict]:
        """The ``traceEvents`` list of the Chrome trace format."""
        events = []
        for pid in sorted(self.process_labels):
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": self.process_labels[pid]},
            })
        for span in self.spans:
            events.append({
                "name": span.name, "cat": "repro", "ph": "X",
                "ts": span.ts, "dur": span.dur,
                "pid": span.pid, "tid": span.tid,
                "args": {**span.args, _SELF_KEY: span.self_dur},
            })
        return events

    def to_chrome_json(self, indent: int | None = None) -> str:
        """Chrome trace-event JSON (chrome://tracing / Perfetto)."""
        payload = {
            "traceEvents": self.to_chrome_events(),
            "displayTimeUnit": "ms",
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def save(self, path: str, indent: int | None = None) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_chrome_json(indent=indent))
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save` (floats round-trip
        through JSON exactly, so the spans compare equal)."""
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        trace = cls()
        for event in events:
            if event["ph"] == "M":
                trace.process_labels[int(event["pid"])] = \
                    event["args"]["name"]
            elif event["ph"] == "X":
                args = dict(event["args"])
                trace.add(Span.from_dict(
                    {**event, "self_dur": args.pop(_SELF_KEY, None),
                     "args": args}))
        return trace


class Tracer:
    """Collects spans while installed as the process-wide active tracer.

    Entering the context installs the tracer consulted by
    :class:`trace_span`; exiting restores the previous one (tracers
    nest).  Span appends are lock-protected so threaded callers (the
    pool dispatcher vs. a main-thread span) never tear the list.

    With ``trace_alloc=True`` every span also records tracemalloc
    counters into its args (``alloc_bytes``: net bytes still allocated
    at exit, ``peak_bytes``: transient peak over the region), starting
    tracemalloc if needed — substantially slower, meant for allocation
    debugging, not timing.
    """

    def __init__(self, trace: Trace | None = None,
                 process_label: str | None = None,
                 trace_alloc: bool = False):
        self.trace = trace if trace is not None else Trace()
        self.trace_alloc = bool(trace_alloc)
        # wall anchor taken once: spans use monotonic time internally
        # and only this single offset references the wall clock, so a
        # mid-run NTP step cannot corrupt any recorded duration
        self._epoch_wall = time.time()
        self._epoch_mono = time.perf_counter()
        self._lock = threading.Lock()
        self._threads = threading.local()  # .stack: the thread's open spans
        self._previous: "Tracer | None" = None
        self._started_tracemalloc = False
        if process_label is not None:
            self.trace.process_labels[os.getpid()] = process_label

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        if self.trace_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # ------------------------------------------------------------------
    def _push(self, span: "trace_span") -> None:
        try:
            self._threads.stack.append(span)
        except AttributeError:
            self._threads.stack = [span]
        if self.trace_alloc:
            span._mem = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def _pop(self, span: "trace_span", start: float, dur: float) -> None:
        stack = self._threads.stack
        stack.pop()
        if stack:
            stack[-1]._child += dur
        if self.trace_alloc:
            current, peak = tracemalloc.get_traced_memory()
            span.args["alloc_bytes"] = max(current - span._mem, 0)
            span.args["peak_bytes"] = peak - span._mem
        record = Span(
            name=span.name,
            ts=(self._epoch_wall + (start - self._epoch_mono)) * 1e6,
            dur=dur,
            pid=os.getpid(),
            tid=threading.get_ident(),
            args=span.args,
            self_dur=dur - span._child,
        )
        with self._lock:
            self.trace.spans.append(record)


_ACTIVE: Tracer | None = None


def active() -> Tracer | None:
    """The currently installed tracer, or None."""
    return _ACTIVE


@contextlib.contextmanager
def collect_spans():
    """Yield a list that holds, once the block ends, the spans it
    recorded — into the active tracer, or into a private one installed
    for the block when nobody else is tracing."""
    spans: list[Span] = []
    with (contextlib.nullcontext(_ACTIVE) if _ACTIVE is not None
          else Tracer()) as tracer:
        first = len(tracer.trace.spans)
        try:
            yield spans
        finally:
            spans.extend(tracer.trace.spans[first:])


class trace_span:  # noqa: N801 — reads as a call: ``with trace_span(..)``
    """Time a region; record it into the active tracer when there is one.

    The handle always exists, so instrumented code attaches late values
    and reads the duration without asking whether anyone is tracing::

        with trace_span("gp.iteration", iteration=i) as span:
            ...
            span["hpwl"] = hpwl
        elapsed = span.seconds

    ``seconds`` is set on exit (0.0 before).
    """

    __slots__ = ("name", "args", "seconds",
                 "_tracer", "_start", "_child", "_mem")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.args = attrs
        self.seconds = 0.0
        self._child = 0.0  # us spent in directly nested spans

    def __setitem__(self, key: str, value) -> None:
        self.args[key] = value

    def __getitem__(self, key: str):
        return self.args[key]

    def update(self, *args, **kwargs) -> None:
        self.args.update(*args, **kwargs)

    def __enter__(self) -> "trace_span":
        tracer = self._tracer = _ACTIVE
        if tracer is not None:
            tracer._push(self)
        # the clock is read innermost, so the bookkeeping above and
        # below lands in the parent's self time, not in this span
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # microseconds are the unit spans are recorded and exported in;
        # ``seconds`` is derived from that number so it equals what a
        # reader of the trace computes, to the last bit
        dur = (time.perf_counter() - self._start) * 1e6
        self.seconds = dur / 1e6
        if self._tracer is not None:
            self._tracer._pop(self, self._start, dur)
