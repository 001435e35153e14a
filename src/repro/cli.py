"""Command-line interface.

``python -m repro <command>`` drives the flow without writing Python:

- ``place``     run the full GP -> LG -> DP flow on a Bookshelf design
                or a named synthetic suite design
- ``generate``  synthesize a benchmark and write it as Bookshelf
- ``route``     global-route a placed design and report RC/ACE
- ``report``    print placement metrics for a design
- ``batch``     run a file of job specs through the run store
- ``sweep``     expand a parameter grid into jobs and run them
- ``resume``    continue an interrupted run from its checkpoint
- ``runs``      list or inspect the run store
- ``serve``     run the placement service (HTTP job API)
- ``submit``    submit a job to a running service
- ``watch``     stream a job's events from a running service
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _load(design: str, scale: int):
    """Load a .aux path or a named synthetic design."""
    if design.endswith(".aux"):
        from repro.bookshelf import read_bookshelf

        return read_bookshelf(design)
    from repro.benchgen import load_design

    return load_design(design, scale=scale)


def _write_json(path: str, data: dict) -> str:
    """Write machine-readable output, creating parent directories."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _emit_json(dest: str, data: dict, label: str = "wrote") -> None:
    """Emit JSON to stdout (dest is "-") or to a file."""
    if dest == "-":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"{label}: {_write_json(dest, data)}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", help=".aux file or suite design name")
    parser.add_argument("--scale", type=int, default=400,
                        help="cell-count reduction for suite designs")


def _cmd_place(args) -> int:
    from repro.bookshelf import write_bookshelf
    from repro.core import DreamPlacer, PlacementParams

    db = _load(args.design, args.scale)
    params = PlacementParams(
        dtype=args.dtype,
        optimizer=args.optimizer,
        target_density=args.target_density,
        routability=args.routability,
        seed=args.seed,
        detailed=not args.no_dp,
        legalize=not args.no_lg,
        verbose=args.verbose,
        enable_recovery=not args.no_recovery,
        max_recoveries=args.max_recoveries,
        graph_capture=not args.no_capture,
        legality_gate=not args.no_legality_gate,
        multilevel_levels=args.multilevel,
        coarsen_ratio=args.coarsen_ratio,
        ignore_net_degree=args.ignore_net_degree,
    )
    import contextlib

    from repro.obs import IterationRecorder, MetricsRegistry, Tracer

    registry = None
    on_iteration = None
    if args.metrics_out:
        registry = MetricsRegistry()
        on_iteration = IterationRecorder(registry)
    # the --profile table and the --trace-out file are two views of
    # the same spans
    profile = args.profile or args.profile_alloc
    tracer = (Tracer(process_label="repro place",
                     trace_alloc=args.profile_alloc)
              if args.trace_out or profile else None)

    print(f"placing {db} ...")
    with (tracer if tracer is not None else contextlib.nullcontext()):
        result = DreamPlacer(db, params).run(on_iteration=on_iteration)
    if profile:
        from repro.perf.profiler import closure_split_line, op_stats, table

        stats = op_stats(tracer.trace.spans)
        print(table(stats, title="per-op breakdown (Fig. 9 style)"))
        split = closure_split_line(stats)
        if split is not None:
            print(split)
    print(f"HPWL     : {result.hpwl_final:,.0f} "
          f"(GP {result.hpwl_global:,.0f}, LG {result.hpwl_legal:,.0f})")
    print(f"overflow : {result.overflow:.4f} after {result.iterations} iters")
    print(f"recovery : {result.recoveries} rollbacks, "
          f"diverged={result.diverged}, "
          f"best GP HPWL {result.best_hpwl:,.0f}")
    if result.legality is not None:
        print(f"legal    : {result.legality.legal} "
              f"{result.legality.messages or ''}")
    if result.rc is not None:
        print(f"RC       : {result.rc:.2f}  sHPWL {result.shpwl:,.0f}")
    times = result.times
    print(f"runtime  : GP {times.global_place:.2f}s  "
          f"GR {times.global_route:.2f}s  LG {times.legalize:.2f}s  "
          f"DP {times.detailed:.2f}s")
    if args.json:
        from repro.core import placement_result_metrics

        print(f"wrote    : {_write_json(args.json, placement_result_metrics(result))}")
    if args.output:
        aux = write_bookshelf(db, args.output)
        print(f"wrote    : {aux}")
    if args.svg:
        from repro.viz import write_placement_svg

        print(f"wrote    : {write_placement_svg(db, args.svg)}")
    if registry is not None:
        print(f"wrote    : {registry.save_prometheus(args.metrics_out)}")
    if args.trace_out:
        print(f"wrote    : {tracer.trace.save(args.trace_out)}")
    return 0


def _cmd_generate(args) -> int:
    from repro.benchgen import CircuitSpec, generate
    from repro.bookshelf import write_bookshelf

    spec = CircuitSpec(
        name=args.name,
        num_cells=args.cells,
        utilization=args.utilization,
        macro_area_fraction=args.macro_fraction,
        num_macros=args.macros,
        num_ios=args.ios,
        movable_macros=args.movable_macros,
        seed=args.seed,
    )
    db = generate(spec)
    aux = write_bookshelf(db, args.output)
    print(f"generated {db}")
    print(f"wrote {aux}")
    return 0


def _cmd_route(args) -> int:
    from repro.route import GlobalRouter
    from repro.route.router import calibrate_capacity

    db = _load(args.design, args.scale)
    capacity = args.capacity
    if capacity <= 0:
        capacity = calibrate_capacity(db, args.tiles, args.layers)
        print(f"calibrated capacity: {capacity:.2f} tracks/layer")
    router = GlobalRouter(db, num_tiles=args.tiles, num_layers=args.layers,
                          tile_capacity=capacity)
    result = router.route()
    print(f"RC        : {result.rc:.2f}")
    for pct, value in result.ace.items():
        print(f"ACE {pct:>4}% : {value:.2f}")
    print(f"overflow  : {result.total_overflow:.0f}")
    print(f"wirelength: {result.wirelength_tiles} tile pitches")
    if args.heat_svg:
        from repro.viz import write_placement_svg

        path = write_placement_svg(
            db, args.heat_svg, heat=result.tile_ratio_map,
        )
        print(f"wrote     : {path}")
    return 0


def _cmd_report(args) -> int:
    from repro.core import placement_summary
    from repro.lg import check_legal
    from repro.viz import ascii_density_map

    db = _load(args.design, args.scale)
    summary = placement_summary(db)
    print(f"design     : {db}")
    print(f"HPWL       : {summary.hpwl:,.0f}")
    print(f"overflow   : {summary.overflow:.4f}")
    print(f"utilization: {summary.utilization:.3f}")
    report = check_legal(db)
    print(f"legal      : {report.legal} {report.messages or ''}")
    if args.json:
        from repro.core import placement_summary_metrics

        path = _write_json(
            args.json, placement_summary_metrics(summary, legal=report.legal)
        )
        print(f"wrote      : {path}")
    if args.density_map:
        from repro.geometry import BinGrid
        from repro.ops.density_map import scatter_density

        grid = BinGrid(db.region, 32, 32)
        movable = db.movable_index
        rho = scatter_density(
            grid, db.cell_x[movable], db.cell_y[movable],
            db.cell_width[movable], db.cell_height[movable],
            np.ones(movable.shape[0]),
        )
        print(ascii_density_map(rho))
    return 0


# ----------------------------------------------------------------------
# runner verbs (batch / sweep / resume / runs)

def _coerce_param(key: str, text: str):
    """Parse a sweep value using the PlacementParams field type."""
    from dataclasses import MISSING, fields

    from repro.core import PlacementParams

    defaults = {f.name: f.default for f in fields(PlacementParams)}
    default = defaults.get(key, MISSING)
    if isinstance(default, bool):
        return text.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, str):
        return text
    # Optional/factory fields: infer numeric, fall back to string
    if text.lower() in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _make_scheduler(args):
    """Build (scheduler, store, cache) from common runner options."""
    from repro.obs import MetricsRegistry, Tracer
    from repro.runner import ResultCache, RunStore, Scheduler

    store = RunStore(args.store)
    cache = None if args.no_cache else ResultCache(store)
    # the fleet registry is always on (merging counters is noise-level
    # work and gives every sweep per-run metrics artifacts); tracing is
    # opt-in because span collection grows with iteration count
    tracer = (Tracer(process_label="repro dispatcher")
              if getattr(args, "trace_out", None) else None)
    scheduler = Scheduler(
        store, cache=cache,
        max_retries=args.retries,
        timeout=args.timeout,
        checkpoint_every=args.checkpoint_every,
        profile=getattr(args, "profile", False),
        workers=getattr(args, "workers", 1),
        registry=MetricsRegistry(),
        tracer=tracer,
    )
    return scheduler, store, cache


def _write_obs(args, scheduler) -> None:
    """Persist the fleet trace/metrics where the flags asked for them."""
    if getattr(args, "metrics_out", None):
        path = scheduler.registry.save_prometheus(args.metrics_out)
        print(f"wrote: {path}")
    if getattr(args, "trace_out", None) and scheduler.tracer is not None:
        path = scheduler.tracer.trace.save(args.trace_out)
        print(f"wrote: {path}")


def _outcome_dict(outcome) -> dict:
    return {
        "job_hash": outcome.job_hash,
        "design": outcome.design,
        "status": outcome.status,
        "cached": outcome.cached,
        "resumed_from": outcome.resumed_from,
        "directory": outcome.directory,
        "error": outcome.error,
        "artifact_error": outcome.artifact_error,
        "metrics": outcome.metrics,
    }


def _print_outcomes(outcomes, cache=None) -> int:
    header = (f"{'run':<16} {'design':<20} {'status':<18} "
              f"{'hpwl':>14} {'iters':>6}")
    print(header)
    print("-" * len(header))
    for outcome in outcomes:
        hpwl = iters = ""
        if outcome.metrics:
            final = (outcome.metrics.get("hpwl") or {}).get("final")
            if final is not None:
                hpwl = f"{final:,.0f}"
            iters = str(outcome.metrics.get("iterations", ""))
        status = outcome.status + (" (cached)" if outcome.cached else "")
        print(f"{(outcome.job_hash[:16] or '-'):<16} "
              f"{outcome.design:<20} {status:<18} {hpwl:>14} {iters:>6}")
        if outcome.error:
            print(f"  error: {outcome.error}")
        if outcome.artifact_error:
            print(f"  degraded: {outcome.artifact_error}")
    if cache is not None:
        stats = cache.stats
        line = (f"cache: {stats.hits} hit(s), {stats.misses} miss(es), "
                f"{stats.invalidations} invalidation(s)")
        if stats.degraded_hits:
            line += f", {stats.degraded_hits} degraded hit(s)"
        print(line)
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_batch(args) -> int:
    from repro.runner import job_from_dict

    with open(args.specs) as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("jobs", [data])
    specs = [job_from_dict(entry) for entry in data]
    scheduler, store, cache = _make_scheduler(args)
    for spec in specs:
        scheduler.submit(spec)
    print(f"batch: {len(specs)} job(s) -> {store.root}")
    outcomes = scheduler.run()
    _write_obs(args, scheduler)
    code = _print_outcomes(outcomes, cache)
    if args.json:
        payload = {"outcomes": [_outcome_dict(o) for o in outcomes]}
        if cache is not None:
            payload["cache"] = cache.stats.as_dict()
        print(f"wrote: {_write_json(args.json, payload)}")
    return code


def _cmd_sweep(args) -> int:
    from repro.runner import DesignRef, JobSpec

    base = JobSpec(
        design=DesignRef.parse(args.design, scale=args.scale),
        stages=tuple(s for s in args.stages.split(",") if s),
    )
    grid = {}
    for item in args.param:
        key, sep, values = item.partition("=")
        if not sep or not values:
            print(f"--param expects KEY=V1,V2,... (got {item!r})",
                  file=sys.stderr)
            return 2
        grid[key] = [_coerce_param(key, v) for v in values.split(",")]
    scheduler, store, cache = _make_scheduler(args)
    count = scheduler.submit_sweep(base, grid)
    print(f"sweep: {count} job(s) -> {store.root}")
    outcomes = scheduler.run()
    _write_obs(args, scheduler)
    code = _print_outcomes(outcomes, cache)
    if args.json:
        payload = {"outcomes": [_outcome_dict(o) for o in outcomes]}
        if cache is not None:
            payload["cache"] = cache.stats.as_dict()
        print(f"wrote: {_write_json(args.json, payload)}")
    return code


def _cmd_resume(args) -> int:
    from repro.runner import RunStore, execute_job

    store = RunStore(args.store)
    record = store.load(args.run)
    spec = record.load_spec()
    print(f"resuming {record.short_hash} ({spec.design.name}) ...")
    outcome = execute_job(
        spec, store, resume=True,
        checkpoint_every=args.checkpoint_every,
        timeout=args.timeout,
    )
    if outcome.resumed_from is not None:
        print(f"resumed from checkpoint at iteration "
              f"{outcome.resumed_from}")
    else:
        print("no checkpoint on disk; restarted from scratch")
    return _print_outcomes([outcome])


def _record_dict(record) -> dict:
    """One run's JSON view: the shared listing summary plus detail.

    The base keys are :meth:`RunRecord.summary` — the same schema
    ``GET /v1/jobs`` serves — extended with the full spec/status dicts,
    metrics and event counts for inspection.
    """
    from repro.runner import count_events

    payload = record.summary()
    payload.update(
        status=record.status,
        spec=record.spec,
        metrics=record.metrics,
        events=dict(count_events(record.events_path)),
    )
    return payload


def _runs_stats(args, store) -> int:
    """Aggregate per-run observability metrics across the store.

    Every non-cached run persists ``obs_metrics.json`` (the mergeable
    twin of its ``metrics.prom``); folding them through
    ``MetricsRegistry.merge`` recovers fleet totals — the same numbers
    a live ``--metrics-out`` would have reported.
    """
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    records = store.list_runs()
    merged = 0
    for record in records:
        path = os.path.join(record.directory, "obs_metrics.json")
        if not os.path.exists(path):
            continue
        try:
            with open(path) as handle:
                registry.merge(json.load(handle))
        except (OSError, ValueError, KeyError):
            continue  # a torn/legacy dump must not sink the report
        merged += 1
    print(f"stats: {merged} of {len(records)} run(s) carry "
          f"observability metrics")
    if merged:
        print(registry.to_prometheus(), end="")
    if args.json:
        _emit_json(args.json, registry.as_dict())
    return 0


def _cmd_runs(args) -> int:
    from repro.runner import RunStore, count_events

    store = RunStore(args.store)
    if args.stats:
        return _runs_stats(args, store)
    if args.run:
        record = store.load(args.run)
        if args.json == "-":
            _emit_json(args.json, _record_dict(record))
            return 0
        status = record.status or {}
        print(f"run      : {record.job_hash}")
        print(f"directory: {record.directory}")
        print(f"status   : {record.state} "
              f"(attempts {status.get('attempts', 0)})")
        if status.get("error"):
            print(f"error    : {status['error']}")
        spec = (record.spec or {}).get("spec", {})
        design = spec.get("design", {})
        print(f"design   : {design.get('name', '?')} "
              f"[{design.get('source', '?')}, "
              f"scale {design.get('scale', '?')}]")
        print(f"stages   : {','.join(spec.get('stages', []))}")
        if record.metrics:
            hpwl = (record.metrics.get("hpwl") or {}).get("final")
            if hpwl is not None:
                print(f"HPWL     : {hpwl:,.0f}")
            print(f"iters    : {record.metrics.get('iterations')}")
        events = count_events(record.events_path)
        if events:
            print("events   : " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(events.items())))
        if args.json:
            _emit_json(args.json, _record_dict(record), label="wrote    ")
        return 0

    records = store.list_runs()
    if args.json == "-":
        # the same entry schema GET /v1/jobs serves, so scripts read
        # the offline store and the live service interchangeably
        _emit_json(args.json, {"runs": [r.summary() for r in records],
                               "count": len(records)})
        return 0
    if not records:
        print(f"no runs in {store.runs_root}")
        return 0
    header = (f"{'run':<16} {'design':<20} {'status':<9} "
              f"{'hpwl':>14} {'iters':>6}")
    print(header)
    print("-" * len(header))
    for record in records:
        design = ((record.spec or {}).get("spec", {})
                  .get("design", {}).get("name", "?"))
        hpwl = iters = ""
        if record.metrics:
            final = (record.metrics.get("hpwl") or {}).get("final")
            if final is not None:
                hpwl = f"{final:,.0f}"
            iters = str(record.metrics.get("iterations", ""))
        print(f"{record.short_hash:<16} {design:<20} "
              f"{record.state:<9} {hpwl:>14} {iters:>6}")
    if args.json:
        payload = {"runs": [r.summary() for r in records],
                   "count": len(records)}
        _emit_json(args.json, payload)
    return 0


# ----------------------------------------------------------------------
# service verbs (serve / submit / watch)

def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.runner import ResultCache, RunStore
    from repro.serve import AsyncScheduler, PlacementServer

    store = RunStore(args.store)
    cache = None if args.no_cache else ResultCache(store)
    scheduler = AsyncScheduler(
        store, cache=cache,
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_retries=args.retries,
        timeout=args.timeout,
        checkpoint_every=args.checkpoint_every,
        retry_after=args.retry_after,
    )
    server = PlacementServer(store, scheduler, host=args.host,
                             port=args.port, verbose=args.verbose)
    if server.recovered_orphans:
        print(f"recovered {server.recovered_orphans} orphaned run(s)")

    # serve_forever runs in a background thread (PlacementServer.start)
    # while the main thread waits on a signal-set event: calling
    # httpd.shutdown() from the serve_forever thread deadlocks, so the
    # signal handler must only flip the event
    stop = threading.Event()

    def _handle(signum, frame):
        print(f"\nsignal {signal.Signals(signum).name}: draining ...")
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    server.start()
    print(f"serving placements on {server.url} "
          f"(store {store.root}, {scheduler.workers} worker(s), "
          f"queue limit {scheduler.queue_limit})")
    stop.wait()
    server.stop(interrupt=True)
    print("drained: every in-flight run checkpointed and released")
    return 0


def _cmd_submit(args) -> int:
    from repro.serve import PlacementClient, ServiceError

    spec = {"design": args.design, "scale": args.scale,
            "stages": [s for s in args.stages.split(",") if s]}
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"--param expects KEY=VALUE (got {item!r})",
                  file=sys.stderr)
            return 2
        params[key] = _coerce_param(key, value)
    if params:
        spec["params"] = params
    client = PlacementClient(args.url)
    try:
        job = client.submit(spec)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    state = job.get("state", "?")
    if job.get("cached"):
        state += " (cached)"
    print(f"job   : {job['job_hash']}")
    print(f"state : {state}")
    if args.watch:
        return _watch_job(client, job["job_hash"])
    hpwl = ((job.get("metrics") or {}).get("hpwl") or {}).get("final")
    if hpwl is not None:
        print(f"HPWL  : {hpwl:,.0f}")
    return 0


def _watch_job(client, job_hash: str, offset: int = 0) -> int:
    from repro.serve import ServiceError

    try:
        for event in client.iter_events(job_hash, offset=offset):
            kind = event.get("_event", event.get("type", "event"))
            if kind == "iteration":
                print(f"  iter {event.get('iteration'):>5}  "
                      f"hpwl {event.get('hpwl'):,.0f}  "
                      f"overflow {event.get('overflow'):.4f}")
            elif kind == "end":
                state = event.get("state", "?")
                print(f"end: {state}")
                return 0 if state == "complete" else 1
            else:
                detail = {k: v for k, v in event.items()
                          if k not in ("type", "t", "dt", "_event",
                                       "_offset")}
                print(f"{kind}: "
                      f"{json.dumps(detail, sort_keys=True, default=str)}")
    except ServiceError as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_watch(args) -> int:
    from repro.serve import PlacementClient

    return _watch_job(PlacementClient(args.url), args.run,
                      offset=args.offset)


def build_parser() -> argparse.ArgumentParser:
    from repro.core.params import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DREAMPlace-reproduction placement flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="run the full placement flow")
    _add_common(place)
    place.add_argument("--dtype", choices=["float32", "float64"],
                       default="float64")
    place.add_argument("--optimizer", default="nesterov",
                       choices=["nesterov", "adam", "sgd", "rmsprop", "cg"])
    place.add_argument("--target-density", type=float, default=1.0)
    place.add_argument("--routability", action="store_true")
    place.add_argument("--seed", type=int, default=DEFAULT_SEED)
    place.add_argument("--no-dp", action="store_true",
                       help="skip detailed placement")
    place.add_argument("--no-lg", action="store_true",
                       help="skip legalization (GP only)")
    place.add_argument("--verbose", action="store_true")
    place.add_argument("--no-recovery", action="store_true",
                       help="disable divergence rollback (return the best "
                            "checkpoint but never retry)")
    place.add_argument("--max-recoveries", type=int, default=3,
                       help="rollback budget per GP run before giving up")
    place.add_argument("--multilevel", type=int, default=1,
                       metavar="LEVELS",
                       help="coarse-to-fine GP cascade levels "
                            "(1 = flat placement, the default)")
    place.add_argument("--coarsen-ratio", type=float, default=0.35,
                       help="per-level movable-cell shrink target "
                            "for the multilevel coarsener")
    place.add_argument("--ignore-net-degree", type=int, default=0,
                       help="mask nets with more pins than this out "
                            "of the wirelength gradient (0 = off)")
    place.add_argument("--no-capture", action="store_true",
                       help="disable the captured-tape replay engine "
                            "(evaluate the objective eagerly every "
                            "iteration)")
    place.add_argument("--no-legality-gate", action="store_true",
                       help="report post-LG/post-DP legality violations "
                            "instead of failing the run on them")
    place.add_argument("--profile", action="store_true",
                       help="print a per-op runtime breakdown after the run")
    place.add_argument("--profile-alloc", action="store_true",
                       help="with --profile, also trace per-op allocations "
                            "(tracemalloc; much slower)")
    place.add_argument("--output", help="write result as Bookshelf here")
    place.add_argument("--svg", help="write a placement plot here")
    place.add_argument("--json",
                       help="write machine-readable metrics here (same "
                            "schema the run store persists)")
    place.add_argument("--trace-out",
                       help="write a Chrome trace-event JSON here "
                            "(load in chrome://tracing or Perfetto)")
    place.add_argument("--metrics-out",
                       help="write Prometheus text metrics here")
    place.set_defaults(func=_cmd_place)

    gen = sub.add_parser("generate", help="synthesize a benchmark")
    gen.add_argument("name")
    gen.add_argument("--cells", type=int, default=1000)
    gen.add_argument("--utilization", type=float, default=0.65)
    gen.add_argument("--macro-fraction", type=float, default=0.0)
    gen.add_argument("--macros", type=int, default=0)
    gen.add_argument("--movable-macros", action="store_true")
    gen.add_argument("--ios", type=int, default=32)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    route = sub.add_parser("route", help="global-route a placed design")
    _add_common(route)
    route.add_argument("--tiles", type=int, default=32)
    route.add_argument("--layers", type=int, default=4)
    route.add_argument("--capacity", type=float, default=0.0,
                       help="tracks per tile per layer (0 = calibrate)")
    route.add_argument("--heat-svg",
                       help="write a congestion heatmap SVG here")
    route.set_defaults(func=_cmd_route)

    report = sub.add_parser("report", help="print placement metrics")
    _add_common(report)
    report.add_argument("--density-map", action="store_true",
                        help="print an ASCII density map")
    report.add_argument("--json",
                        help="write machine-readable metrics here")
    report.set_defaults(func=_cmd_report)

    def _add_store_opts(p, profile=True):
        p.add_argument("--store", default="runs",
                       help="run store root directory")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the content-addressed result cache")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds "
                            "(checked each GP iteration)")
        p.add_argument("--retries", type=int, default=1,
                       help="retry count for failed jobs")
        p.add_argument("--checkpoint-every", type=int, default=25,
                       help="GP iterations between on-disk checkpoints")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent worker processes (1 = serial, "
                            "in-process, with warm design reuse)")
        p.add_argument("--json",
                       help="write outcome summaries here")
        p.add_argument("--trace-out",
                       help="write the fleet Chrome trace-event JSON "
                            "here (one lane per worker; load in "
                            "chrome://tracing or Perfetto)")
        p.add_argument("--metrics-out",
                       help="write aggregated Prometheus text metrics "
                            "here (counters merge across workers)")
        if profile:
            p.add_argument("--profile", action="store_true",
                           help="record per-op profile events")

    batch = sub.add_parser(
        "batch", help="run a JSON file of job specs through the store")
    batch.add_argument("specs",
                       help='JSON spec file: a list of jobs or '
                            '{"jobs": [...]}; each job is a design '
                            'string or {design, scale, params, stages}')
    _add_store_opts(batch)
    batch.set_defaults(func=_cmd_batch)

    sweep = sub.add_parser(
        "sweep", help="expand a parameter grid into jobs and run them")
    sweep.add_argument("design", help=".aux file or suite design name")
    sweep.add_argument("--scale", type=int, default=400,
                       help="cell-count reduction for suite designs")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1,V2,...",
                       help="sweep axis over a PlacementParams field "
                            "(repeatable; jobs = cross product)")
    sweep.add_argument("--stages", default="gp,lg,dp",
                       help="comma-separated stage selection")
    _add_store_opts(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run from its checkpoint")
    resume.add_argument("run", help="run hash (or unique prefix)")
    resume.add_argument("--store", default="runs",
                        help="run store root directory")
    resume.add_argument("--timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    resume.add_argument("--checkpoint-every", type=int, default=25,
                        help="GP iterations between on-disk checkpoints")
    resume.set_defaults(func=_cmd_resume)

    runs = sub.add_parser(
        "runs", help="list the run store, or inspect one run")
    runs.add_argument("run", nargs="?",
                      help="run hash to inspect (omit to list all)")
    runs.add_argument("--store", default="runs",
                      help="run store root directory")
    runs.add_argument("--json", nargs="?", const="-", metavar="FILE",
                      help="emit the listing/record as JSON "
                           "(to FILE, or stdout when bare)")
    runs.add_argument("--stats", action="store_true",
                      help="aggregate observability metrics across the "
                           "store and print Prometheus text")
    runs.set_defaults(func=_cmd_runs)

    serve = sub.add_parser(
        "serve", help="run the placement service (HTTP job API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--store", default="runs",
                       help="run store root directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="bypass the content-addressed result cache")
    serve.add_argument("--workers", type=int, default=1,
                       help="concurrent in-process placements")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max queued (not yet running) jobs before "
                            "submissions get 429")
    serve.add_argument("--retry-after", type=float, default=2.0,
                       help="Retry-After hint (seconds) on 429")
    serve.add_argument("--retries", type=int, default=1,
                       help="retry count for failed jobs")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    serve.add_argument("--checkpoint-every", type=int, default=25,
                       help="GP iterations between on-disk checkpoints")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running placement service")
    submit.add_argument("design", help=".aux file or suite design name")
    submit.add_argument("--url", default="http://127.0.0.1:8734",
                        help="service base URL")
    submit.add_argument("--scale", type=int, default=400,
                        help="cell-count reduction for suite designs")
    submit.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="PlacementParams override (repeatable)")
    submit.add_argument("--stages", default="gp,lg,dp",
                        help="comma-separated stage selection")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's events until it finishes")
    submit.set_defaults(func=_cmd_submit)

    watch = sub.add_parser(
        "watch", help="stream a job's events from a running service")
    watch.add_argument("run", help="job hash (or unique prefix)")
    watch.add_argument("--url", default="http://127.0.0.1:8734",
                       help="service base URL")
    watch.add_argument("--offset", type=int, default=0,
                       help="event-log byte offset to start from")
    watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
