"""Per-op breakdown of a span list (the Fig. 9 table).

The paper's analysis lives on per-op runtime breakdowns (Fig. 9/10/12).
Nothing here measures: the numbers are the spans :mod:`repro.obs.trace`
recorded, folded by name.  The functions are pure, so they give the
same answer on a live ``tracer.trace.spans``, on a slice of it (one job
of a batch) and on a ``trace.json`` read back with ``Trace.load``::

    with Tracer() as tracer:
        DreamPlacer(db, params).run()
    print(table(op_stats(tracer.trace.spans)))

Spans nest (``gp.step`` contains ``wl.forward`` ...); the table reports
both inclusive time and *self* time (inclusive minus direct children,
recorded with each span), and shares are computed over self time so
nothing is double counted and the total is the wall clock of the
outermost spans.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class OpStats:
    """Accumulated statistics for one span name."""

    calls: int = 0
    seconds: float = 0.0       # inclusive wall time
    self_seconds: float = 0.0  # exclusive of nested spans
    alloc_bytes: int = 0       # net allocated bytes (tracemalloc)
    peak_bytes: int = 0        # max transient allocation over one call


def op_stats(spans) -> dict[str, OpStats]:
    """Fold spans by name.  The byte counters are nonzero only for
    spans collected under ``Tracer(trace_alloc=True)``."""
    stats: dict[str, OpStats] = {}
    for span in spans:
        s = stats.get(span.name)
        if s is None:
            s = stats[span.name] = OpStats()
        s.calls += 1
        s.seconds += span.dur / 1e6
        s.self_seconds += span.self_dur / 1e6
        s.alloc_bytes += span.args.get("alloc_bytes", 0)
        s.peak_bytes = max(s.peak_bytes, span.args.get("peak_bytes", 0))
    return stats


def as_dict(stats: dict[str, OpStats]) -> dict[str, dict]:
    """Machine-readable stats (the ``PROFILE`` event payload)."""
    return {name: asdict(s) for name, s in stats.items()}


#: the three mutually exclusive GP closure execution modes:
#: ``gp.graph_build`` covers closure evaluations that recorded the
#: objective tape (capture attempts), ``gp.replay`` the tape replays,
#: and ``gp.eager`` plain define-by-run evaluations (tape disabled or
#: capture-unsafe graph)
CLOSURE_MODES = ("gp.graph_build", "gp.replay", "gp.eager")


def closure_split_line(stats: dict[str, OpStats]) -> str | None:
    """One-line eager-vs-replay summary, or None if no closure ran."""
    parts = [
        f"{name.removeprefix('gp.')} {stats[name].calls}x "
        f"{stats[name].seconds:.4f}s"
        for name in CLOSURE_MODES if name in stats
    ]
    return "closure split: " + ", ".join(parts) if parts else None


def table(stats: dict[str, OpStats], title: str = "per-op breakdown") -> str:
    """A Fig.-9-style text table, sorted by self time.  The allocation
    columns appear when the spans carried tracemalloc counters."""
    alloc = any(s.alloc_bytes or s.peak_bytes for s in stats.values())
    header = (
        f"== {title} ==\n"
        f"{'op':<24} {'calls':>8} {'total s':>10} {'self s':>10} "
        f"{'share':>7}"
    )
    lines = [header]
    if alloc:
        lines[0] += f" {'alloc':>10} {'peak':>10}"
    if not stats:
        # an all-zero table with fabricated 0.0% shares would read
        # as "everything was free"; say what actually happened
        lines.append("(no ops recorded)")
        return "\n".join(lines)
    total = sum(s.self_seconds for s in stats.values()) or 1.0
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_seconds):
        row = (
            f"{name:<24} {s.calls:>8d} {s.seconds:>10.4f} "
            f"{s.self_seconds:>10.4f} {s.self_seconds / total:>6.1%}"
        )
        if alloc:
            row += f" {_fmt_bytes(s.alloc_bytes):>10} " \
                   f"{_fmt_bytes(s.peak_bytes):>10}"
        lines.append(row)
    lines.append(f"{'total (self)':<24} {'':>8} {'':>10} {total:>10.4f}")
    lines.append("(self times add up to the wall clock of the outermost "
                 "spans: every second is listed once)")
    return "\n".join(lines)


def _fmt_bytes(n: int) -> str:
    # scale a separate accumulator: mutating the argument made the GB
    # branch see an already-divided value (and repeat calls disagree)
    value = float(n)
    for unit in ("B", "KB", "MB"):
        if abs(value) < 1024:
            return f"{value:.0f}B" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GB"
