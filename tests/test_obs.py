"""Tests for the observability layer (repro.obs) and telemetry clocks.

Covers the unified-observability acceptance criteria:

- span nesting: every region is one ``trace_span``, timed with or
  without a tracer, recorded once with its self time, and the
  ``--profile`` view reads the same spans the trace exports,
- Chrome trace-event export round-trips (``ph``/``ts``/``dur``,
  process_name metadata) and stays strict JSON,
- Prometheus text exposition parses line-by-line (HELP/TYPE headers,
  cumulative histogram buckets),
- a ``workers=2`` sweep merges fleet counters bit-for-bit equal to the
  serial run of the same grid,
- lease staleness under clock skew: a backwards wall-clock jump
  neither steals a live same-host lease nor blocks dead-pid recovery
  (injectable clocks),
- ``EventLog`` reopens transparently after close and stamps monotonic
  ``dt`` alongside wall-clock ``t``,
- the per-op ``table`` on an empty span list and ``_fmt_bytes``.
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from repro.benchgen import CircuitSpec, generate
from repro.bookshelf import write_bookshelf
from repro.core import PlacementParams
from repro.obs import (
    DEFAULT_BUCKETS,
    IterationRecorder,
    MetricsRegistry,
    Span,
    Trace,
    Tracer,
    active_tracer,
    trace_span,
)
from repro.obs.recorders import (
    GP_ITERATIONS,
    GP_OVERFLOW,
    GP_RECOVERIES,
)
from repro.obs.trace import collect_spans
from repro.perf.profiler import _fmt_bytes, op_stats, table
from repro.runner import (
    DesignRef,
    JobSpec,
    ResultCache,
    RunStore,
    Scheduler,
)
from repro.runner.events import EventLog
from repro.runner.store import _HOSTNAME, RunLease, RunLocked


# ----------------------------------------------------------------------
# tracer


class TestTracer:
    def test_span_times_without_a_tracer(self):
        assert active_tracer() is None
        with trace_span("anything", key=1) as span:
            span["late"] = 2
        assert span.args == {"key": 1, "late": 2}
        assert span["late"] == 2
        assert span.seconds > 0.0

    def test_spans_record_and_nest(self):
        with Tracer() as tracer:
            with trace_span("outer", design="d") as outer:
                assert outer.args == {"design": "d"}
                with trace_span("inner") as inner:
                    pass
        spans = tracer.trace.spans
        assert [s.name for s in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        # the handle and the record agree to the last bit
        assert inner.seconds == inner_rec.seconds
        assert outer.seconds == outer_rec.seconds
        # nesting is recorded as self time, not inferred from intervals
        assert inner_rec.self_dur == inner_rec.dur
        assert outer_rec.self_dur == outer_rec.dur - inner_rec.dur
        # interval containment is what Perfetto renders as nesting
        assert outer_rec.ts <= inner_rec.ts
        assert (inner_rec.ts + inner_rec.dur
                <= outer_rec.ts + outer_rec.dur + 1e-6)
        assert inner_rec.pid == os.getpid()
        assert inner_rec.tid == threading.get_ident()

    def test_threads_nest_separately(self):
        with Tracer() as tracer:
            with trace_span("main"):
                worker = threading.Thread(
                    target=lambda: trace_span("side").__enter__().__exit__())
                worker.start()
                worker.join()
        by_name = {s.name: s for s in tracer.trace.spans}
        assert by_name["main"].self_dur == by_name["main"].dur
        assert by_name["side"].tid != by_name["main"].tid

    def test_span_attrs_mutable_inside_region(self):
        with Tracer() as tracer:
            with trace_span("gp.iteration", iteration=3) as span:
                span["hpwl"] = 123.0
                span.update(status="ok")
        (span,) = tracer.trace.spans
        assert span.args == {"iteration": 3, "hpwl": 123.0, "status": "ok"}

    def test_tracers_nest_and_restore(self):
        with Tracer() as first:
            with Tracer() as second:
                with trace_span("x"):
                    pass
            assert active_tracer() is first
        assert active_tracer() is None
        assert len(second.trace) == 1
        assert len(first.trace) == 0

    def test_table_and_trace_are_views_of_the_same_spans(self):
        with Tracer() as tracer:
            with trace_span("wl.forward"):
                pass
        assert [s.name for s in tracer.trace.spans] == ["wl.forward"]
        assert op_stats(tracer.trace.spans)["wl.forward"].calls == 1

    def test_collect_spans_with_and_without_a_tracer(self):
        with collect_spans() as private:
            assert active_tracer() is not None
            with trace_span("density.forward"):
                pass
        assert active_tracer() is None
        assert [s.name for s in private] == ["density.forward"]
        with Tracer() as tracer:
            with trace_span("earlier"):
                pass
            with collect_spans() as shared:
                assert active_tracer() is tracer
                with trace_span("density.forward"):
                    pass
        assert [s.name for s in shared] == ["density.forward"]
        assert [s.name for s in tracer.trace.spans] == [
            "earlier", "density.forward"]

    def test_cascade_records_each_span_once(self):
        """Every round/coarsen/prolong span appears once, attributed."""
        from repro.core import DreamPlacer

        db = generate(CircuitSpec(name="cascade", num_cells=300,
                                  num_ios=8, utilization=0.6, seed=5))
        params = PlacementParams(
            max_global_iters=30, multilevel_levels=2,
            multilevel_min_cells=100, legalize=False, detailed=False)
        with Tracer() as tracer:
            result = DreamPlacer(db, params).run()
        assert len(result.gp_levels) == 2
        by_name: dict = {}
        for span in tracer.trace.spans:
            by_name.setdefault(span.name, []).append(span)
        for name in ("stage.gp", "gp.coarsen", "gp.prolong",
                     "gp.level0", "gp.level1"):
            assert len(by_name[name]) == 1, name
        for level in (0, 1):
            (span,) = by_name[f"gp.level{level}"]
            assert span.args["level"] == level
            assert {"cells", "nets", "pins", "num_levels"} <= set(span.args)
        assert by_name["gp.coarsen"][0].args["level"] == 1
        assert by_name["gp.prolong"][0].args["level"] == 1


class TestChromeExport:
    def _trace(self) -> Trace:
        trace = Trace()
        trace.process_labels[1234] = "repro worker w0"
        trace.add(Span(name="stage.gp", ts=10.0, dur=5.0,
                       pid=1234, tid=1, args={"round": 0}))
        return trace

    def test_chrome_json_shape(self):
        data = json.loads(self._trace().to_chrome_json())
        events = data["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta == [{"ph": "M", "name": "process_name", "pid": 1234,
                         "tid": 0, "args": {"name": "repro worker w0"}}]
        (event,) = complete
        assert event["name"] == "stage.gp"
        assert event["ts"] == 10.0 and event["dur"] == 5.0
        assert event["pid"] == 1234 and event["tid"] == 1
        # the self time rides in the args so a reload keeps the nesting
        assert event["args"] == {"round": 0, "self_us": 5.0}

    def test_save_and_reload(self, tmp_path):
        path = self._trace().save(str(tmp_path / "sub" / "trace.json"))
        data = json.loads(open(path).read())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) == 2

    def test_load_round_trip(self, tmp_path):
        source = self._trace()
        source.add(Span(name="gp.place", ts=11.0, dur=3.0, pid=1234,
                        tid=1, self_dur=0.5))
        loaded = Trace.load(source.save(str(tmp_path / "trace.json")))
        assert loaded.spans == source.spans
        assert loaded.process_labels == source.process_labels

    def test_extend_dicts_round_trip(self):
        source = self._trace()
        merged = Trace()
        merged.extend_dicts(source.as_dicts(), source.process_labels)
        assert merged.as_dicts() == source.as_dicts()
        assert merged.process_labels == source.process_labels

    def test_live_spans_export_strict_json(self):
        with Tracer(process_label="main") as tracer:
            with trace_span("op", n=2):
                pass
        # json.loads with no NaN allowance: the export must be strict
        json.loads(tracer.trace.to_chrome_json(), parse_constant=lambda
                   name: pytest.fail(f"non-strict JSON constant {name}"))


# ----------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(0.5)
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99.0)
        assert reg.value("c") == 3
        assert reg.value("g") == 0.5
        assert hist.cumulative() == [1, 2, 3]
        assert hist.count == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("runs", status="complete").inc(2)
        reg.counter("runs", status="failed").inc()
        assert reg.value("runs", status="complete") == 2
        assert reg.value("runs", status="failed") == 1
        assert reg.value("runs", status="timeout") is None

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("c").inc(n)
            reg.histogram("h", buckets=(1.0,)).observe(0.5)
            reg.gauge("g").set(n)
        a.merge(b.as_dict())  # the worker wire format: a JSON dict
        assert a.value("c") == 3
        assert a.histogram("h", buckets=(1.0,)).count == 2
        assert a.value("g") == 2  # gauges: last writer wins

    def test_merge_is_order_independent_for_counters(self):
        parts = []
        for n in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("c").inc(n)
            parts.append(reg.as_dict())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            fwd.merge(part)
        for part in reversed(parts):
            rev.merge(part)
        assert fwd.to_prometheus() == rev.to_prometheus()

    def test_histogram_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_prometheus_text_parses_line_by_line(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", help='job "outcomes"',
                    status="complete").inc(2)
        reg.gauge("repro_gp_overflow").set(0.15)
        reg.histogram("repro_gp_iteration_seconds",
                      buckets=(0.1, 1.0)).observe(0.05)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'           # metric name
            r'(\{[a-zA-Z_]+="(?:[^"\\]|\\.)*"'     # first label
            r'(,[a-zA-Z_]+="(?:[^"\\]|\\.)*")*\})?' # more labels
            r' -?[0-9.e+-]+$')                     # value
        comment = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
        for line in text.splitlines():
            assert sample.match(line) or comment.match(line), line
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{status="complete"} 2' in text
        assert ('repro_gp_iteration_seconds_bucket{le="0.1"} 1'
                in text)
        assert ('repro_gp_iteration_seconds_bucket{le="+Inf"} 1'
                in text)
        assert "repro_gp_iteration_seconds_count 1" in text

    def test_iteration_recorder(self):
        reg = MetricsRegistry()
        ticks = iter([0.0, 1.0, 1.5])
        recorder = IterationRecorder(reg, monotonic=lambda: next(ticks))
        recorder(None, {"iteration": 1, "hpwl": 100.0,
                        "overflow": 0.5, "recoveries": 0})
        recorder(None, {"iteration": 2, "hpwl": 90.0,
                        "overflow": 0.4, "recoveries": 1})
        assert reg.value(GP_ITERATIONS) == 2
        assert reg.value(GP_OVERFLOW) == 0.4
        assert reg.value(GP_RECOVERIES) == 1

    def test_registry_is_always_truthy(self):
        assert MetricsRegistry()
        assert len(MetricsRegistry()) == 0


# ----------------------------------------------------------------------
# fleet equivalence (the workers=2 acceptance criterion)


@pytest.fixture(scope="module")
def aux_design(tmp_path_factory):
    directory = tmp_path_factory.mktemp("obsdesign")
    db = generate(CircuitSpec(name="obstest", num_cells=60,
                              num_ios=8, utilization=0.6, seed=5))
    return str(write_bookshelf(db, str(directory)))


def _sweep_base(aux: str) -> JobSpec:
    return JobSpec(
        design=DesignRef.parse(aux),
        params=PlacementParams(max_global_iters=30, min_global_iters=5),
        stages=("gp",),
    )


def _counter_lines(registry: MetricsRegistry) -> list:
    """Counter-type sample lines only: integer-valued, so bit-for-bit
    comparable across execution orders (histogram *sums* are float
    accumulations whose merge order differs between serial and pool)."""
    text = registry.to_prometheus()
    counters = set()
    for line in text.splitlines():
        match = re.match(r"^# TYPE (\S+) counter$", line)
        if match:
            counters.add(match.group(1))
    return sorted(
        line for line in text.splitlines()
        if not line.startswith("#")
        and re.match(r"^(\w+)", line).group(1) in counters
    )


class TestFleetMetrics:
    def test_workers2_sweep_counters_match_serial(self, tmp_path,
                                                  aux_design):
        grid = {"seed": [1, 2]}

        serial_store = RunStore(str(tmp_path / "serial"))
        serial_reg = MetricsRegistry()
        serial = Scheduler(serial_store,
                           cache=ResultCache(serial_store),
                           registry=serial_reg, tracer=Tracer())
        serial.submit_sweep(_sweep_base(aux_design), grid)
        assert all(o.ok for o in serial.run())

        pool_store = RunStore(str(tmp_path / "pool"))
        pool_reg = MetricsRegistry()
        pool_tracer = Tracer(process_label="dispatcher")
        pool = Scheduler(pool_store, cache=ResultCache(pool_store),
                         workers=2, registry=pool_reg,
                         tracer=pool_tracer)
        pool.submit_sweep(_sweep_base(aux_design), grid)
        assert all(o.ok for o in pool.run())

        serial_counters = _counter_lines(serial_reg)
        assert serial_counters  # iterations, misses, runs at least
        assert serial_counters == _counter_lines(pool_reg)
        assert pool_reg.value("repro_runs_total",
                              status="complete") == 2

        # the fleet trace carries spans from both worker processes,
        # labelled, with the nested GP structure intact
        pids = {s.pid for s in pool_tracer.trace.spans}
        assert len(pids) == 2  # one span lane per worker process
        labels = set(pool_tracer.trace.process_labels.values())
        assert {"repro worker w0", "repro worker w1"} <= labels
        names = {s.name for s in pool_tracer.trace.spans}
        assert {"job", "design.load", "stage.gp",
                "gp.iteration"} <= names
        data = json.loads(pool_tracer.trace.to_chrome_json())
        assert any(e["ph"] == "M" for e in data["traceEvents"])

    def test_per_run_obs_artifacts_persist(self, tmp_path, aux_design):
        store = RunStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, registry=MetricsRegistry(),
                              tracer=Tracer())
        scheduler.submit(_sweep_base(aux_design))
        (outcome,) = scheduler.run()
        assert outcome.ok
        prom = os.path.join(outcome.directory, "metrics.prom")
        dump = os.path.join(outcome.directory, "obs_metrics.json")
        trace = os.path.join(outcome.directory, "trace.json")
        assert os.path.exists(prom) and os.path.exists(dump)
        assert "repro_gp_iterations_total" in open(prom).read()
        merged = MetricsRegistry().merge(json.loads(open(dump).read()))
        assert merged.value("repro_gp_iterations_total") > 0
        spans = json.loads(open(trace).read())["traceEvents"]
        assert any(e["name"] == "gp.iteration" for e in spans)


# ----------------------------------------------------------------------
# lease clock skew (injectable clocks)


class _FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestLeaseClockSkew:
    def test_backwards_jump_does_not_steal_live_lease(self, tmp_path):
        path = str(tmp_path / "lock.json")
        owner = RunLease(path, worker="w0", lease_timeout=5.0)
        owner.acquire()
        clock = _FakeClock(1e9)  # far in this host's past or future —
        contender = RunLease(    # pid-liveness must decide regardless
            path, worker="w1", lease_timeout=5.0, clock=clock)
        with pytest.raises(RunLocked):
            contender.acquire()
        clock.now = 0.0  # an extreme backwards step changes nothing
        with pytest.raises(RunLocked):
            contender.acquire()
        owner.release()

    def test_dead_pid_recovers_without_waiting_out_heartbeat(self,
                                                             tmp_path):
        path = str(tmp_path / "lock.json")
        clock = _FakeClock(1000.0)
        # forge a same-host lease whose heartbeat is *in the future*
        # (the writer's clock was ahead) held by a dead pid
        with open(path, "w") as handle:
            json.dump({"pid": 2 ** 22 + 12345, "host": _HOSTNAME,
                       "worker": "w9", "acquired": 5000.0,
                       "heartbeat": 5000.0}, handle)
        contender = RunLease(path, worker="w1", lease_timeout=3600.0,
                             clock=clock,
                             pid_alive=lambda pid: False)
        contender.acquire()  # no RunLocked, no timeout wait
        contender.release()

    def test_cross_host_future_heartbeat_reads_fresh(self, tmp_path):
        path = str(tmp_path / "lock.json")
        clock = _FakeClock(1000.0)
        lease = RunLease(path, lease_timeout=5.0, clock=clock)
        info = {"pid": 1, "host": "elsewhere", "heartbeat": 2000.0}
        # negative age clamps to 0: a future heartbeat is fresh ...
        assert not lease.is_stale(info)
        # ... and ages out normally once real time passes
        clock.now = 2006.0
        assert lease.is_stale(info)

    def test_refresh_rate_limit_on_monotonic_clock(self, tmp_path):
        path = str(tmp_path / "lock.json")
        wall = _FakeClock(1000.0)
        mono = _FakeClock(50.0)
        lease = RunLease(path, refresh_every=10.0, clock=wall,
                         monotonic_clock=mono)
        lease.acquire()
        wall.now = 5000.0  # huge wall step; monotonic barely moved
        mono.now = 51.0
        lease.refresh()
        assert json.loads(open(path).read())["heartbeat"] == 1000.0
        mono.now = 61.0  # past the rate limit: rewrite happens
        lease.refresh()
        assert json.loads(open(path).read())["heartbeat"] == 5000.0
        lease.release()


# ----------------------------------------------------------------------
# event log clocks


class TestEventLog:
    def test_emit_after_close_reopens_and_appends(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("run_start")
        log.close()
        record = log.emit("late_event", detail=1)  # must not raise
        assert record["type"] == "late_event"
        lines = [json.loads(line) for line in open(path)]
        assert [r["type"] for r in lines] == ["run_start", "late_event"]

    def test_records_carry_wall_and_monotonic_stamps(self, tmp_path):
        wall = _FakeClock(500.0)
        mono = _FakeClock(100.0)
        log = EventLog(str(tmp_path / "events.jsonl"),
                       clock=wall, monotonic_clock=mono)
        mono.now = 101.5
        wall.now = 1.0  # the wall clock stepped far backwards
        record = log.emit("iteration")
        assert record["t"] == 1.0
        assert record["dt"] == 1.5  # deltas survive the wall step
        log.close()


# ----------------------------------------------------------------------
# profiler formatting fixes


class TestProfilerFormatting:
    def test_empty_table_says_so(self):
        text = table(op_stats([]), title="empty")
        assert "(no ops recorded)" in text
        assert "%" not in text.split("\n(no ops")[-1]

    def test_fmt_bytes(self):
        assert _fmt_bytes(0) == "0B"
        assert _fmt_bytes(512) == "512B"
        assert _fmt_bytes(2048) == "2.0KB"
        assert _fmt_bytes(3 * 1024 ** 2) == "3.0MB"
        assert _fmt_bytes(5 * 1024 ** 3) == "5.0GB"
        assert _fmt_bytes(-2048) == "-2.0KB"

    def test_fmt_bytes_is_pure(self):
        for _ in range(3):
            assert _fmt_bytes(1536) == "1.5KB"
