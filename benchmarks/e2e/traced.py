"""The traced run: the harness drives every stage itself, under spans.

``traced_flow`` walks file -> GP -> LG -> check -> DP -> check -> file
through the layers' public functions, the way ``DreamPlacer.run`` does,
and must return the same ``x, y`` bit for bit.  The ``*_probes`` then
time single layers outside the flow (direct legalizer calls, eager
operator calls, the runner around and without a scheduler).  Nothing
here reads ``Profiler``, ``obs.trace`` or ``StageTimes``.

Every function returns per-layer metrics as ``{name: value}``; units
live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bookshelf import read_bookshelf, write_bookshelf
from repro.core import DreamPlacer, GlobalPlacer, build_levels
from repro.dp import DetailedPlacer, IncrementalHpwl
from repro.dp.global_swap import global_swap
from repro.dp.independent_set import independent_set_matching
from repro.dp.local_reorder import local_reorder
from repro.lg import (
    abacus_legalize,
    check_legal,
    legalize,
    tetris_legalize,
)
from repro.ops.electrostatics import PoissonSolver
from repro.runner import DesignRef, ResultCache, RunStore, Scheduler

from spans import SpanRecorder, duration, self_time, total
from stats import timing_summary

#: eager calls per operator probe (p50 and p75 are supported at 60)
PROBE_CALLS = 60

#: every job spec is hashed this often; ``runner.job_hash_ms`` is the mean
_HASH_ROUNDS = 5

_DP_KINDS = ("global_swap", "local_reorder", "independent_set")


class CountingHpwl(IncrementalHpwl):
    """``IncrementalHpwl`` that counts what the DP passes ask of it."""

    delta_calls = 0
    delta_cells = 0
    apply_calls = 0

    def delta(self, cells, new_x, new_y):
        self.delta_calls += 1
        self.delta_cells += len(cells)
        return super().delta(cells, new_x, new_y)

    def apply(self, cells, new_x, new_y):
        self.apply_calls += 1
        super().apply(cells, new_x, new_y)


def _replay_detailed(rec: SpanRecorder, db, params, fences, x, y,
                     enabled: bool):
    """``DetailedPlacer.run``'s loop, one span per pass.

    Takes its pass count, window, group size and fence membership from
    a real ``DetailedPlacer`` so a changed default shows up as a
    replica that is no longer faithful, not as a silently stale copy.
    """
    moves = {kind: 0 for kind in _DP_KINDS}
    if not enabled:
        for kind in _DP_KINDS:
            rec.stage(f"dp.{kind}", False, None)
        return x, y, moves, None

    placer = DetailedPlacer(db, passes=params.detailed_passes, fences=fences)
    state = CountingHpwl(db, x, y)
    fence_id = placer.fence_id
    passes = {
        "global_swap": lambda: global_swap(db, state, fence_id=fence_id),
        "local_reorder": lambda: local_reorder(
            db, state, placer.reorder_window, fence_id=fence_id),
        "independent_set": lambda: independent_set_matching(
            db, state, placer.group_size, fence_id=fence_id),
    }
    for _ in range(placer.passes):
        moved = 0
        for kind in _DP_KINDS:
            count = rec.stage(f"dp.{kind}", True, passes[kind])
            moves[kind] += count
            moved += count
        if moved == 0:
            break
    return state.x, state.y, moves, state


def traced_flow(rec: SpanRecorder, aux: str, params, fences,
                out_dir: str) -> dict:
    """The stage-by-stage flow; returns its state and per-layer metrics."""
    do_lg = params.legalize
    do_dp = params.legalize and params.detailed
    ticks: list[tuple] = []

    def on_iteration(_placer, info):
        ticks.append((time.perf_counter(), info.get("level", 0)))

    with rec.span("flow") as root:
        with rec.span("bookshelf.read"):
            db = read_bookshelf(aux)
        with rec.span("core.gp") as gp_span:
            gp = DreamPlacer(
                db, params.with_overrides(legalize=False, detailed=False),
                fences=fences,
            ).run(on_iteration=on_iteration)
        x_gp, y_gp = gp.x, gp.y
        hpwl_gp = gp.hpwl_final

        x_lg, y_lg = x_gp, y_gp
        legal = rec.stage("lg.legalize", do_lg,
                          lambda: legalize(db, x_gp, y_gp, fences=fences))
        if legal is not None:
            x_lg, y_lg = legal
        hpwl_lg = db.hpwl(x_lg, y_lg) if do_lg else hpwl_gp
        report = rec.stage(
            "lg.check", do_lg,
            lambda: check_legal(db, x_lg, y_lg, fences=fences))

        with rec.span("dp.run"):
            x, y, moves, state = _replay_detailed(
                rec, db, params, fences, x_lg, y_lg, do_dp)
        hpwl_dp = db.hpwl(x, y) if do_dp else hpwl_lg
        if do_dp:
            report = rec.stage(
                "lg.check", True,
                lambda: check_legal(db, x, y, fences=fences))

        db.set_positions(x, y)
        with rec.span("bookshelf.write"):
            out_aux = write_bookshelf(db, out_dir)

    # one span per GP iteration, from the on_iteration ticks
    previous = gp_span["start"]
    for index, (tick, level) in enumerate(ticks):
        rec.add("core.gp_iter", gp_span["id"], previous, tick,
                index=index, level=level)
        previous = tick
    iter_ms = timing_summary(
        [1e3 * (b[0] - a[0]) for a, b in zip(ticks, ticks[1:])])

    spans = rec.spans
    movable = db.movable
    calls = state.delta_calls if state is not None else 0
    values = {
        "bookshelf.read_s": total(spans, "bookshelf.read"),
        "bookshelf.write_s": total(spans, "bookshelf.write"),
        "core.gp_s": duration(gp_span),
        "core.gp_iters": gp.iterations,
        "core.gp_recoveries": gp.recoveries,
        "core.gp_first_iter_s": ticks[0][0] - gp_span["start"],
        "core.gp_iter_ms.p50": iter_ms["p50"],
        "core.gp_iter_ms.hi": iter_ms["hi"],
        "core.gp_hpwl": hpwl_gp,
        "core.cascade_levels": len(gp.gp_levels) if gp.gp_levels else 1,
        "lg.legalize_s": total(spans, "lg.legalize"),
        "lg.check_s": total(spans, "lg.check"),
        "lg.hpwl_delta_pct": 100.0 * (hpwl_lg - hpwl_gp) / hpwl_gp,
        "lg.mean_disp": float(np.mean(
            np.abs(x_lg[movable] - x_gp[movable])
            + np.abs(y_lg[movable] - y_gp[movable]))),
        "dp.run_s": total(spans, "dp.run"),
        "dp.delta_calls": calls,
        "dp.delta_cells": state.delta_cells if state is not None else 0,
        "dp.apply_calls": state.apply_calls if state is not None else 0,
        "dp.accept_ratio": state.apply_calls / calls if calls else 0.0,
        "dp.swaps": moves["global_swap"],
        "dp.reorders": moves["local_reorder"],
        "dp.matchings": moves["independent_set"],
        "dp.hpwl_gain_pct": 100.0 * (hpwl_lg - hpwl_dp) / hpwl_lg,
        "trace.coverage_pct":
            100.0 * (1.0 - self_time(spans, root) / duration(root)),
    }
    for kind in _DP_KINDS:
        values[f"dp.{kind}_s"] = total(spans, f"dp.{kind}")
    return {
        "db": db, "root": root, "values": values, "report": report,
        "gp_overflow": gp.overflow, "iter_ms": iter_ms,
        "x_gp": x_gp, "y_gp": y_gp, "x_lg": x_lg, "y_lg": y_lg,
        "x": x, "y": y, "hpwl_final": hpwl_dp, "out_aux": out_aux,
    }


def detailed_direct(rec: SpanRecorder, db, params, fences, x_lg, y_lg):
    """Time ``DetailedPlacer.run`` itself (used when the replay drifts)."""
    with rec.span("dp.run_direct") as span:
        DetailedPlacer(db, passes=params.detailed_passes,
                       fences=fences).run(x_lg, y_lg)
    return duration(span)


def lg_probes(rec: SpanRecorder, db, params, fences, flow: dict):
    """Direct Tetris and Abacus calls on the GP result.

    Only where the workload legalizes without fences: there the pair is
    exactly what ``legalize`` runs, and its output must match bit for
    bit (returned as the second value; ``None`` when not comparable).
    """
    enabled = params.legalize and not fences
    x_gp, y_gp = flow["x_gp"], flow["y_gp"]
    tetris = rec.stage("lg.tetris", enabled,
                       lambda: tetris_legalize(db, x_gp, y_gp))
    abacus = None
    if tetris is not None:
        lx, ly, row_of_cell = tetris
        abacus = rec.stage(
            "lg.abacus", True,
            lambda: abacus_legalize(db, lx, ly, row_of_cell,
                                    desired_x=x_gp))
    else:
        rec.stage("lg.abacus", False, None)
    values = {
        "lg.tetris_s": total(rec.spans, "lg.tetris"),
        "lg.abacus_s": total(rec.spans, "lg.abacus"),
    }
    same = None
    if abacus is not None:
        same = bool(np.array_equal(abacus[0], flow["x_lg"])
                    and np.array_equal(abacus[1], flow["y_lg"]))
    return values, same


def coarsen_probe(rec: SpanRecorder, db, params, fences) -> dict:
    """A separate ``build_levels`` call (one identity level when flat)."""
    with rec.span("netlist.coarsen") as span:
        levels = build_levels(db, params, fences=fences)
    span["levels"] = len(levels)
    return {"netlist.coarsen_s": duration(span)}


def _sample_ms(rec: SpanRecorder, name: str, fn) -> dict:
    fn()  # first call sizes workspace buffers and transform plans
    samples = []
    with rec.span(name, calls=PROBE_CALLS):
        for _ in range(PROBE_CALLS):
            start = time.perf_counter()
            fn()
            samples.append(1e3 * (time.perf_counter() - start))
    return timing_summary(samples)


def ops_probes(rec: SpanRecorder, db, params, fences, x_gp, y_gp) -> dict:
    """Eager operator calls on a fresh ``GlobalPlacer`` at the GP result."""
    placer = GlobalPlacer(db, params, fences=fences)
    placer.set_positions(x_gp, y_gp)
    objective, pos = placer.objective, placer.pos
    objective.density_weight = 1.0

    def fwd_bwd(module):
        def call():
            pos.zero_grad()
            module(pos).backward()
        return call

    solver = PoissonSolver(placer.grid)
    rho = np.random.default_rng(0).random(placer.grid.shape)
    probes = {
        "ops.wl_fwd_bwd_ms": fwd_bwd(objective.wirelength),
        "ops.density_fwd_bwd_ms": fwd_bwd(objective.density),
        "ops.objective_fwd_bwd_ms": fwd_bwd(objective),
        "ops.overflow_ms": placer.overflow,
        "ops.hpwl_ms": placer.hpwl,
        "ops.poisson_solve_ms": lambda: solver.solve(rho),
    }
    values = {
        "ops.pins": db.num_pins,
        "ops.nodes": db.num_movable + placer.num_fillers,
        "ops.bins": placer.grid.nx * placer.grid.ny,
    }
    for name, fn in probes.items():
        summary = _sample_ms(rec, name.removesuffix("_ms"), fn)
        values[f"{name}.p50"] = summary["p50"]
        values[f"{name}.hi"] = summary["hi"]
    return values


def _tree_kib(root: str) -> float:
    size = 0
    for directory, _, files in os.walk(root):
        size += sum(os.path.getsize(os.path.join(directory, f))
                    for f in files)
    return size / 1024.0


def runner_probes(rec: SpanRecorder, aux: str, specs: list,
                  store_root: str):
    """The runner without a pool, and the flow without the runner.

    ``specs`` is empty on the placement workloads: every stage is then
    switched off and reads as the cost of its empty span.  Returns the
    metrics, the serial job hashes, and whether every serial job, every
    serial cache hit and every direct run agreed.
    """
    jobs = len(specs)
    enabled = jobs > 0
    db = rec.stage("runner.design_load", enabled,
                   lambda: DesignRef.parse(aux).load())

    def hash_all():
        for spec in specs * _HASH_ROUNDS:
            spec.job_hash(db)

    rec.stage("runner.job_hash", enabled, hash_all)

    scheduler = None
    if enabled:
        store = RunStore(store_root)
        scheduler = Scheduler(store, cache=ResultCache(store), workers=1)

    def drain():
        for spec in specs:
            scheduler.submit(spec)
        return scheduler.run()

    cold = rec.stage("runner.serial_jobs", enabled, drain) or []
    hits = rec.stage("runner.serial_cache_hits", enabled, drain) or []

    def direct():
        return [DreamPlacer(db, spec.effective_params()).run().hpwl_final
                for spec in specs]

    direct_hpwl = rec.stage("runner.flow_direct", enabled, direct) or []

    serial_s = total(rec.spans, "runner.serial_jobs")
    direct_s = total(rec.spans, "runner.flow_direct")
    per_job = max(jobs, 1)
    values = {
        "runner.design_load_s": total(rec.spans, "runner.design_load"),
        "runner.job_hash_ms": 1e3 * total(rec.spans, "runner.job_hash")
        / (per_job * _HASH_ROUNDS),
        "runner.serial_job_s": serial_s,
        "runner.flow_direct_s": direct_s,
        "runner.job_overhead_ms": 1e3 * (serial_s - direct_s) / per_job,
        "runner.cache_hit_serial_ms":
            1e3 * total(rec.spans, "runner.serial_cache_hits") / per_job,
        "runner.run_dir_kb":
            _tree_kib(os.path.join(store_root, "runs")) / per_job
            if enabled else 0.0,
    }
    agree = (
        all(o.ok and not o.cached for o in cold)
        and all(o.ok and o.cached for o in hits)
        and [o.metrics["hpwl"]["final"] for o in cold] == direct_hpwl
    )
    return values, [o.job_hash for o in cold], agree
