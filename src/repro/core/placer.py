"""The full DREAMPlace flow (Fig. 2(b)).

``DreamPlacer`` chains random-center initialization, the kernel GP
iterations, (optionally) the routability-driven inflation loop of
Section III-F, Tetris+Abacus legalization and detailed placement, with
per-stage timing matching the paper's runtime tables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from repro.core.convergence import ConvergenceMonitor
from repro.core.metrics import scaled_hpwl
from repro.core.multilevel import level_rounds
from repro.core.params import PlacementParams
from repro.core.rounds import GpRound, run_rounds
from repro.dp.detailed_placer import DetailedPlacer, DetailedPlaceStats
from repro.lg.checker import LegalityError, LegalityReport, check_legal
from repro.lg.legalizer import legalize
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


@dataclass
class StageTimes:
    """Wall-clock seconds per flow stage (the paper's runtime columns)."""

    global_place: float = 0.0
    global_route: float = 0.0  # routability mode only ("GR" in Table V)
    legalize: float = 0.0
    detailed: float = 0.0

    @property
    def total(self) -> float:
        return (self.global_place + self.global_route
                + self.legalize + self.detailed)


@contextmanager
def _stage(times: StageTimes, field: str, span_name: str, **attrs):
    """Run a flow stage under a trace span and add the span's seconds
    to ``times.<field>``; yields the span."""
    with trace_span(span_name, **attrs) as span:
        yield span
    setattr(times, field, getattr(times, field) + span.seconds)


@dataclass
class PlacementResult:
    """Everything the paper's tables report for one run."""

    x: np.ndarray
    y: np.ndarray
    hpwl_global: float
    hpwl_legal: float
    hpwl_final: float
    overflow: float
    iterations: int
    times: StageTimes
    legality: Optional[LegalityReport] = None
    dp_stats: Optional[DetailedPlaceStats] = None
    # routability-driven metrics (Table V)
    rc: Optional[float] = None
    shpwl: Optional[float] = None
    inflation_rounds: int = 0
    router_calls: int = 0
    # convergence robustness (TCAD hardening)
    recoveries: int = 0
    diverged: bool = False
    best_hpwl: float = float("nan")
    #: per-level GP outcomes (coarsest first) when the multilevel
    #: cascade ran; None for the flat single-level flow
    gp_levels: Optional[list] = None


class DreamPlacer:
    """End-to-end placer: GP -> (routability loop) -> LG -> DP.

    With ``fences`` (a list of :class:`~repro.core.fence.FenceRegion`)
    the whole flow is fence-aware: GP spreads each fence group in its
    own field, LG legalizes each group inside its region, DP never
    moves a cell across a fence boundary, and the legality gate
    (:attr:`PlacementParams.legality_gate`) verifies all of it after
    LG and after DP.
    """

    def __init__(self, db: PlacementDB, params: PlacementParams | None = None,
                 fences=None):
        self.db = db
        self.params = params or PlacementParams()
        self.fences = list(fences) if fences else None
        #: resolved router capacity (``route_tile_capacity <= 0`` means
        #: auto-calibrate to a mildly congested level on first routing)
        self._route_capacity: float | None = (
            self.params.route_tile_capacity
            if self.params.route_tile_capacity > 0 else None
        )
        #: routability-mode counters of the last run (Table V)
        self.inflation_rounds = 0
        self.router_calls = 0

    def _check_stage(self, stage: str, x: np.ndarray, y: np.ndarray
                     ) -> LegalityReport:
        """Post-stage legality check; the gate raises on violations."""
        with trace_span(f"check.{stage}") as span:
            report = check_legal(self.db, x, y, fences=self.fences)
            span.update(report.as_dict())
        if self.params.legality_gate and not report.legal:
            raise LegalityError(stage, report)
        return report

    # ------------------------------------------------------------------
    def run(self, on_iteration=None,
            resume_state: Optional[dict] = None) -> PlacementResult:
        """Run the flow.

        ``on_iteration(placer, info)`` is forwarded to every GP round
        (see :meth:`GlobalPlacer.place`): the checkpoint/telemetry hook
        of ``repro.runner``.  ``resume_state`` continues an interrupted
        GP stage from a ``capture_loop_state`` dict, in whichever round
        (cascade level, inflation step) it was taken.
        """
        params = self.params
        db = self.db
        times = StageTimes()
        self.inflation_rounds = self.router_calls = 0

        gp_result = run_rounds(
            partial(
                level_rounds, db, params, self.fences,
                tagged=params.multilevel_levels > 1,
                fine_rounds=(partial(self._inflation_rounds, times)
                             if params.routability else None),
            ),
            on_iteration=on_iteration, resume_state=resume_state,
        )
        # routing between inflation rounds ran inside the GP stage but
        # is reported under GR only
        times.global_place = gp_result.runtime - times.global_route

        x, y = gp_result.x.copy(), gp_result.y.copy()
        hpwl_global = db.hpwl(x, y)

        hpwl_legal = hpwl_global
        legality = None
        if params.legalize:
            with _stage(times, "legalize", "stage.lg"):
                x, y = legalize(db, x, y, fences=self.fences)
            hpwl_legal = db.hpwl(x, y)
            legality = self._check_stage("legalize", x, y)

        hpwl_final = hpwl_legal
        dp_stats = None
        if params.legalize and params.detailed:
            with _stage(times, "detailed", "stage.dp"):
                dp = DetailedPlacer(db, passes=params.detailed_passes,
                                    fences=self.fences)
                x, y, dp_stats = dp.run(x, y)
            hpwl_final = db.hpwl(x, y)
            legality = self._check_stage("detailed", x, y)

        db.set_positions(x, y)

        rc = None
        shpwl = None
        if params.routability:
            # route the final placement to report RC and sHPWL (Table V)
            with _stage(times, "global_route", "stage.route", final=True):
                routing = self._make_router(x, y).route(x, y)
            rc, shpwl = routing.rc, scaled_hpwl(hpwl_final, routing.rc)

        return PlacementResult(
            x=x, y=y,
            hpwl_global=hpwl_global,
            hpwl_legal=hpwl_legal,
            hpwl_final=hpwl_final,
            overflow=gp_result.overflow,
            iterations=gp_result.iterations,
            times=times,
            legality=legality,
            dp_stats=dp_stats,
            rc=rc,
            shpwl=shpwl,
            inflation_rounds=self.inflation_rounds,
            router_calls=self.router_calls,
            recoveries=gp_result.recoveries,
            diverged=gp_result.diverged,
            best_hpwl=gp_result.best_hpwl,
            gp_levels=gp_result.levels,
        )

    # ------------------------------------------------------------------
    def _inflation_rounds(self, times: StageTimes, base: GpRound,
                          state: Optional[dict]):
        """The cell-inflation loop of Section III-F as a round schedule
        (see ``repro.core.rounds``) on the finest level.

        Every round is ``base`` run down to the inflation trigger
        overflow; between rounds the placement is routed and congested
        cells are inflated.  Once an inflation adds too little area (or
        the round budget is spent) a last round finishes placement to
        the real target — warm-restarting the same placer when the
        inflation converged.  ``state`` resumes a checkpointed round.
        """
        from repro.route.inflation import apply_inflation, inflation_ratio_map

        params = self.params
        db = self.db
        original_width = db.cell_width.copy()
        total_cell_area = db.total_movable_area
        # one monitor spans every round: plateau/checkpoint references
        # reset per round, the divergence anchor carries across rounds
        monitor = ConvergenceMonitor.from_params(params)
        finishing = False  # the inflation converged: last round
        reuse = False  # warm-restart the previous round's placer
        width = db.cell_width.copy()  # what the next round runs under
        built_width = width  # what its placer is (or was) built under
        if state is not None:
            self.inflation_rounds = int(state["inflation_round"])
            self.router_calls = int(state["inflation_router_calls"])
            self._route_capacity = state["inflation_route_capacity"]
            finishing = bool(state["inflation_finishing"])
            width = state["inflation_width"]
            built_width = state["inflation_built_width"]
            db.cell_width[:] = built_width
        warm = base.warm
        try:
            while True:
                rounds = self.inflation_rounds
                more = not finishing and rounds < params.inflation_max_rounds
                result = yield replace(
                    base, db=None if reuse else db, cell_width=width,
                    warm=warm, monitor=monitor,
                    tags={**base.tags, "round": rounds},
                    span=base.span or f"gp.round{rounds}",
                    # run down to the inflation trigger overflow (20%)
                    stop_overflow=(params.inflation_overflow_trigger
                                   if more else None),
                    lambda_period=(params.inflation_lambda_period
                                   if rounds else 1),
                    extra={
                        **base.extra,
                        "inflation_round": rounds,
                        "inflation_finishing": finishing,
                        "inflation_width": width,
                        "inflation_built_width": built_width,
                        "inflation_router_calls": self.router_calls,
                        "inflation_route_capacity": self._route_capacity,
                    },
                )
                if not more:
                    return
                with _stage(times, "global_route", "stage.route",
                            round=rounds):
                    routing = self._make_router(result.x, result.y).route(
                        result.x, result.y)
                self.router_calls += 1
                ratios = inflation_ratio_map(
                    routing.tile_ratio_map,
                    params.inflation_exponent,
                    params.inflation_max_ratio,
                )
                added = apply_inflation(
                    db, routing.grid.tiles, ratios,
                    x=result.x, y=result.y,
                    whitespace_cap=params.inflation_whitespace_cap,
                )
                width = db.cell_width.copy()
                if added < params.inflation_stop_ratio * total_cell_area:
                    # converged: warm-restart the same placer (rebind +
                    # momentum restart) and finish placement to target
                    finishing = reuse = True
                else:
                    self.inflation_rounds += 1
                    built_width = width
                warm = (result.x, result.y)
        finally:
            db.cell_width = original_width

    def _make_router(self, x=None, y=None):
        """Build the global router, auto-calibrating capacity if asked."""
        from repro.route.router import GlobalRouter, calibrate_capacity

        params = self.params
        if self._route_capacity is None:
            self._route_capacity = calibrate_capacity(
                self.db, params.route_num_tiles, params.route_num_layers,
                x, y,
            )
        return GlobalRouter(
            self.db, params.route_num_tiles, params.route_num_layers,
            self._route_capacity,
        )
