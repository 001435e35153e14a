"""In-memory spans for the traced run of one workload.

The harness opens a span around every call it makes into a layer of
``repro``; nothing inside ``repro`` knows about them.  A span is a dict
``{id, name, parent, workload, start, end, ...attrs}`` with
``perf_counter`` seconds; they stay in a list until the run ends and are
written out once (``run.py --spans``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    """Collects the spans of one workload process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Open ``name`` as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        record = self._new(name, parent, time.perf_counter(), None, attrs)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, parent: int | None, start: float, end: float,
            **attrs) -> dict:
        """Record an interval measured elsewhere (GP iteration ticks)."""
        return self._new(name, parent, start, end, attrs)

    def stage(self, name: str, enabled: bool, fn):
        """Run ``fn`` under span ``name`` if the workload enables it.

        A stage the workload's parameters switch off still gets its
        span, so every workload reports the same span names and a
        disabled layer reads as the few hundred nanoseconds it cost.
        """
        with self.span(name, enabled=bool(enabled)):
            return fn() if enabled else None

    def _new(self, name, parent, start, end, attrs) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "start": start,
            "end": end,
        }
        record.update(attrs)
        self.spans.append(record)
        return record


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def self_time(spans: list[dict], span: dict) -> float:
    """Duration minus the part of it covered by direct children."""
    return duration(span) - sum(
        duration(s) for s in spans if s["parent"] == span["id"])


def layer_shares(spans: list[dict], root: dict) -> dict:
    """Percent of ``root``'s wall spent in each layer beneath it.

    A layer is the span-name prefix before the first dot (``dp.run`` →
    ``dp``); only direct children count, so nested spans are not added
    twice.
    """
    wall = duration(root)
    shares: dict[str, float] = {}
    for span in spans:
        if span["parent"] == root["id"]:
            layer = span["name"].split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) \
                + 100.0 * duration(span) / wall
    return shares
