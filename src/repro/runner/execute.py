"""Single-job execution: cache check, telemetry, checkpoints, resume.

``execute_job`` is the one path every placement request takes:

1. start the cooperative timeout clock (the budget covers *everything*,
   including a cold design load), then load (or receive, warm from the
   scheduler) the design database,
2. compute the job's content hash and consult the result cache —
   a hit returns the persisted metrics without running a single
   placement iteration (a ``cache_hit`` event is appended to the run's
   log as the audit trail),
3. otherwise open the run directory — acquiring its advisory lease, so
   no two workers ever execute into the same run — optionally restore
   the latest on-disk checkpoint (``resume``), and drive the full flow
   with an ``on_iteration`` hook that streams per-iteration events,
   persists a :class:`PlacerCheckpoint` every ``checkpoint_every``
   iterations, heartbeats the lease and enforces the per-job timeout,
4. persist metrics + Bookshelf output and mark the run complete —
   or record the failure/timeout with the checkpoint left in place so
   a later ``resume`` continues where the run died.  A failed Bookshelf
   write does *not* fail the run if the metrics persisted; the status
   records an ``artifact_error`` so cache hits surface the degraded
   state instead of silently serving artifact-less runs.

Failures are isolated: ``execute_job`` never lets a job exception
escape; it returns a :class:`JobOutcome` describing what happened.
Even a design that fails to *load* gets a run directory (keyed by
:meth:`JobSpec.fallback_hash`) with a persisted status and event trail,
so the failure is visible to ``runs`` and ``resume``.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import DreamPlacer, placement_result_metrics
from repro.netlist.database import PlacementDB
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorders import (
    CACHE_DEGRADED,
    CACHE_HITS,
    CACHE_MISSES,
    CHECKPOINTS,
    FENCE_VIOLATIONS,
    LEGALITY_VIOLATIONS,
    RUNS_TOTAL,
    IterationRecorder,
)
from repro.obs.trace import Trace, collect_spans, trace_span
from repro.obs.trace import active as active_tracer
from repro.perf.profiler import as_dict, op_stats
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import PlacerCheckpoint
from repro.runner.events import EventLog, EventType
from repro.runner.job import JobSpec
from repro.runner.store import (
    LEASE_TIMEOUT,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_RUNNING,
    STATUS_TIMEOUT,
    RunLocked,
    RunStore,
)


class JobTimeout(Exception):
    """Cooperative per-job timeout raised from the iteration hook."""


@dataclass
class JobOutcome:
    """What happened to one submitted job."""

    job_hash: str
    directory: str
    status: str
    design: str = ""
    cached: bool = False
    resumed_from: Optional[int] = None
    metrics: Optional[dict] = None
    error: Optional[str] = None
    #: set when the run completed but its Bookshelf write failed
    artifact_error: Optional[str] = None
    result: object = None  # PlacementResult when run in-process

    @property
    def ok(self) -> bool:
        return self.status == STATUS_COMPLETE


def _record_design_failure(spec: JobSpec, store: RunStore, exc: Exception,
                           attempt: int, worker: Optional[str],
                           lease_timeout: float) -> JobOutcome:
    """Persist a design-load failure so it is visible to ``runs``.

    The content hash needs the loaded netlist, so the run directory is
    keyed by the spec's deterministic :meth:`JobSpec.fallback_hash`.
    """
    error = f"design load failed: {type(exc).__name__}: {exc}"
    job_hash = spec.fallback_hash()
    try:
        handle = store.open_run(spec, job_hash, worker=worker,
                                lease_timeout=lease_timeout)
    except RunLocked:
        # another worker is recording the same broken job right now
        return JobOutcome(job_hash=job_hash,
                          directory=store.run_dir(job_hash),
                          status=STATUS_FAILED, design=spec.design.name,
                          error=error)
    try:
        handle.events.emit(EventType.RUN_FAILED, error=error,
                           trace=traceback.format_exc(limit=5),
                           worker=worker, pid=os.getpid())
        handle.set_status(STATUS_FAILED, error=error, attempts=attempt)
    finally:
        handle.close()
    return JobOutcome(job_hash=job_hash, directory=handle.directory,
                      status=STATUS_FAILED, design=spec.design.name,
                      error=error)


def execute_job(spec: JobSpec, store: RunStore,
                cache: Optional[ResultCache] = None,
                db: Optional[PlacementDB] = None,
                checkpoint_every: int = 25,
                timeout: Optional[float] = None,
                resume: bool = False,
                profile: bool = False,
                attempt: int = 1,
                worker: Optional[str] = None,
                iteration_hook: Optional[Callable] = None,
                lease_timeout: float = LEASE_TIMEOUT,
                registry: Optional[MetricsRegistry] = None) -> JobOutcome:
    """Run one job against the store; see module docstring for the flow.

    The timeout is *cooperative*: it is checked on every GP iteration,
    so legalization/detailed placement (short, bounded stages) are not
    interruptible mid-stage.  The deadline starts at entry, so a cold
    design load spends the same budget as iterations do.  A timed-out
    run keeps its checkpoint and is not considered cached, so
    resubmission resumes it.

    ``worker`` labels this execution in events and the run lease (the
    pool dispatcher passes it); ``iteration_hook(placer, info)`` runs
    after the built-in per-iteration bookkeeping (telemetry, progress
    relays, test fault injection).

    Observability: the whole job runs inside a ``job`` span of the
    active tracer (``repro.obs``), every GP iteration feeds a job-local
    :class:`MetricsRegistry`, and — when a tracer or a fleet
    ``registry`` is present — the per-job trace/Prometheus dumps are
    persisted as ``trace.json``/``metrics.prom`` next to the run's
    other artifacts.  The job-local registry is merged into
    ``registry`` (the scheduler's fleet aggregate) on every exit path.
    """
    job_reg = MetricsRegistry()
    tracer = active_tracer()
    span_start = len(tracer.trace.spans) if tracer is not None else 0
    with trace_span("job", design=spec.design.name,
                    attempt=attempt, worker=worker) as span:
        outcome = _execute_job(
            spec, store, cache=cache, db=db,
            checkpoint_every=checkpoint_every, timeout=timeout,
            resume=resume, profile=profile, attempt=attempt,
            worker=worker, iteration_hook=iteration_hook,
            lease_timeout=lease_timeout, job_reg=job_reg,
        )
        span.update(job_hash=outcome.job_hash[:16], status=outcome.status,
                    cached=outcome.cached)
        job_reg.counter(RUNS_TOTAL, help="job outcomes by final status",
                        status=outcome.status).inc()
        if (outcome.directory and not outcome.cached
                and (registry is not None or tracer is not None)):
            # best-effort artifacts: observability must never turn a
            # finished placement into a failure
            try:
                job_reg.save_prometheus(
                    os.path.join(outcome.directory, "metrics.prom"))
                # the JSON twin round-trips through registry.merge(),
                # which `repro runs --stats` uses to aggregate a store
                with open(os.path.join(outcome.directory,
                                       "obs_metrics.json"), "w") as fh:
                    fh.write(job_reg.to_json())
                    fh.write("\n")
                if tracer is not None:
                    job_trace = Trace()
                    job_trace.spans = list(
                        tracer.trace.spans[span_start:])
                    job_trace.save(
                        os.path.join(outcome.directory, "trace.json"))
            except OSError:
                pass
    if registry is not None:
        registry.merge(job_reg)
    return outcome


def _execute_job(spec: JobSpec, store: RunStore,
                 cache: Optional[ResultCache],
                 db: Optional[PlacementDB],
                 checkpoint_every: int,
                 timeout: Optional[float],
                 resume: bool,
                 profile: bool,
                 attempt: int,
                 worker: Optional[str],
                 iteration_hook: Optional[Callable],
                 lease_timeout: float,
                 job_reg: MetricsRegistry) -> JobOutcome:
    # the budget covers design load too (a cold load once escaped it)
    deadline = None if timeout is None else time.monotonic() + timeout
    pid = os.getpid()

    if db is None:
        try:
            with trace_span("design.load", design=spec.design.name):
                db = spec.design.load()
        except Exception as exc:  # noqa: BLE001 — isolate bad designs
            return _record_design_failure(spec, store, exc, attempt,
                                          worker, lease_timeout)
    job_hash = spec.job_hash(db)

    if cache is not None:
        record = cache.lookup(job_hash)
        if record is not None:
            job_reg.counter(CACHE_HITS,
                            help="result-cache hits").inc()
            if record.artifact_error:
                job_reg.counter(CACHE_DEGRADED,
                                help="cache hits served without a "
                                     "Bookshelf artifact").inc()
            with EventLog(record.events_path) as events:
                events.emit(EventType.CACHE_HIT, job_hash=job_hash,
                            attempt=attempt, worker=worker, pid=pid)
            return JobOutcome(
                job_hash=job_hash, directory=record.directory,
                status=STATUS_COMPLETE, design=spec.design.name,
                cached=True, metrics=record.metrics,
                artifact_error=record.artifact_error,
            )
        job_reg.counter(CACHE_MISSES, help="result-cache misses").inc()

    try:
        handle = store.open_run(spec, job_hash, worker=worker,
                                lease_timeout=lease_timeout)
    except RunLocked as exc:
        # contention is a retryable failure: the scheduler backs off
        # and the other worker's result becomes our cache hit
        return JobOutcome(job_hash=job_hash,
                          directory=store.run_dir(job_hash),
                          status=STATUS_FAILED, design=spec.design.name,
                          error=str(exc))
    params = spec.effective_params()

    resumed_from = None
    try:  # the lease is released on every exit path (handle.close)
        resume_state = None
        if resume and os.path.exists(handle.checkpoint_path):
            try:
                ckpt = PlacerCheckpoint.load(handle.checkpoint_path,
                                             expect_job_hash=job_hash)
            except Exception as exc:  # noqa: BLE001 — failure isolation
                error = (f"checkpoint unusable: "
                         f"{type(exc).__name__}: {exc}")
                handle.events.emit(EventType.RUN_FAILED, error=error,
                                   worker=worker, pid=pid)
                handle.set_status(STATUS_FAILED, error=error,
                                  attempts=attempt)
                return JobOutcome(job_hash=job_hash,
                                  directory=handle.directory,
                                  status=STATUS_FAILED,
                                  design=spec.design.name, error=error)
            resume_state = ckpt.loop_state
            resumed_from = ckpt.iteration

        seen_recoveries = 0
        record_iteration = IterationRecorder(job_reg)

        def on_iteration(placer, info):
            nonlocal seen_recoveries
            record_iteration(placer, info)
            handle.touch_lease()
            # iteration/hpwl/overflow/status plus whatever round keys
            # the GP driver tagged the info with (level, round, ...)
            handle.events.emit(
                EventType.ITERATION,
                **{key: value for key, value in info.items()
                   if key != "recoveries"},
            )
            if info["recoveries"] > seen_recoveries:
                seen_recoveries = info["recoveries"]
                handle.events.emit(EventType.RECOVERY,
                                   iteration=info["iteration"],
                                   recoveries=info["recoveries"])
            if checkpoint_every \
                    and info["iteration"] % checkpoint_every == 0:
                state = placer.capture_loop_state()
                PlacerCheckpoint(
                    job_hash=job_hash, iteration=info["iteration"],
                    loop_state=state,
                ).save(handle.checkpoint_path)
                job_reg.counter(CHECKPOINTS,
                                help="GP checkpoints persisted").inc()
                handle.events.emit(EventType.CHECKPOINT,
                                   iteration=info["iteration"])
            if iteration_hook is not None:
                iteration_hook(placer, info)
            if deadline is not None and time.monotonic() > deadline:
                handle.events.emit(EventType.TIMEOUT,
                                   iteration=info["iteration"],
                                   timeout=timeout)
                raise JobTimeout(
                    f"job {job_hash[:16]} exceeded {timeout}s at GP "
                    f"iteration {info['iteration']}"
                )

        handle.set_status(STATUS_RUNNING, attempts=attempt)
        handle.events.emit(
            EventType.RUN_START, job_hash=job_hash,
            design=spec.design.name, attempt=attempt,
            worker=worker, pid=pid,
        )
        if resumed_from is not None:
            handle.events.emit(EventType.RESUME, iteration=resumed_from)

        try:
            handle.events.emit(EventType.STAGE_START, stage="gp")
            with (collect_spans() if profile else nullcontext()) as spans:
                result = DreamPlacer(db, params).run(
                    on_iteration=on_iteration, resume_state=resume_state,
                )
            if profile:
                handle.events.emit(EventType.PROFILE,
                                   ops=as_dict(op_stats(spans)))
        except JobTimeout as exc:
            handle.set_status(STATUS_TIMEOUT, error=str(exc),
                              attempts=attempt)
            return JobOutcome(job_hash=job_hash,
                              directory=handle.directory,
                              status=STATUS_TIMEOUT,
                              design=spec.design.name,
                              resumed_from=resumed_from, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — failure isolation
            error = f"{type(exc).__name__}: {exc}"
            handle.events.emit(EventType.RUN_FAILED, error=error,
                               trace=traceback.format_exc(limit=5),
                               worker=worker, pid=pid)
            handle.set_status(STATUS_FAILED, error=error,
                              attempts=attempt)
            return JobOutcome(job_hash=job_hash,
                              directory=handle.directory,
                              status=STATUS_FAILED,
                              design=spec.design.name,
                              resumed_from=resumed_from, error=error)

        # stage telemetry for the non-iterative stages is emitted
        # post-hoc with the measured durations (DreamPlacer times them
        # internally)
        times = result.times
        handle.events.emit(EventType.STAGE_END, stage="gp",
                           seconds=times.global_place,
                           iterations=result.iterations)
        for stage, seconds in (("route", times.global_route),
                               ("lg", times.legalize),
                               ("dp", times.detailed)):
            if stage in spec.stages:
                handle.events.emit(EventType.STAGE_START, stage=stage)
                handle.events.emit(EventType.STAGE_END, stage=stage,
                                   seconds=seconds)
        if result.legality is not None:
            report = result.legality.as_dict()
            handle.events.emit(EventType.LEGALITY, stage="final",
                               **report)
            violations = (report["outside"] + report["off_row"]
                          + report["off_site"] + report["overlaps"])
            job_reg.gauge(LEGALITY_VIOLATIONS,
                          help="legality violations in the final "
                               "placement").set(violations)
            job_reg.gauge(FENCE_VIOLATIONS,
                          help="cells outside their fence region in "
                               "the final placement").set(
                report["fence_violations"])

        metrics = placement_result_metrics(result)
        try:
            handle.write_metrics(metrics)
        except Exception as exc:  # noqa: BLE001
            # without persisted metrics the run must not claim
            # completion: a "complete" directory with no metrics would
            # be an eternally-invalidated cache entry
            error = f"metrics write failed: {type(exc).__name__}: {exc}"
            handle.events.emit(EventType.RUN_FAILED, error=error,
                               worker=worker, pid=pid)
            handle.set_status(STATUS_FAILED, error=error,
                              attempts=attempt)
            return JobOutcome(job_hash=job_hash,
                              directory=handle.directory,
                              status=STATUS_FAILED,
                              design=spec.design.name,
                              resumed_from=resumed_from, error=error)

        artifact_error = None
        try:
            from repro.bookshelf import write_bookshelf

            write_bookshelf(db, handle.result_dir)
        except Exception as exc:  # noqa: BLE001 — best-effort artifact
            artifact_error = \
                f"result write failed: {type(exc).__name__}: {exc}"
            handle.events.emit(EventType.ARTIFACT_ERROR,
                               error=artifact_error,
                               worker=worker, pid=pid)
        handle.set_status(STATUS_COMPLETE, attempts=attempt,
                          artifact_error=artifact_error)
        handle.events.emit(EventType.RUN_COMPLETE,
                           hpwl=metrics["hpwl"]["final"],
                           iterations=metrics["iterations"],
                           recoveries=metrics["recoveries"],
                           worker=worker, pid=pid)
        return JobOutcome(job_hash=job_hash, directory=handle.directory,
                          status=STATUS_COMPLETE,
                          design=spec.design.name,
                          resumed_from=resumed_from, metrics=metrics,
                          artifact_error=artifact_error, result=result)
    finally:
        handle.close()
