"""The one GP round driver (the "kernel GP iterations" box of Fig. 2(b)).

Every GP mode is a *schedule of rounds* over :func:`run_rounds`.  A
round is one ``GlobalPlacer.place()`` call; a schedule is a generator
that yields :class:`GpRound` descriptions and is sent each round's
result back, so its between-rounds step is the code between two
``yield``s.  Flat is one round, the multilevel cascade one round per
level with prolongation in between (``multilevel.level_rounds``),
routability one round per inflation step with routing + inflation in
between (``DreamPlacer._inflation_rounds``, on the finest level).

The driver owns the rest: building or warm-restarting each round's
placer, stamping ``checkpoint_extra``, tagging ``on_iteration`` infos,
the iteration/recovery totals and per-level history, the ``stage.gp``
and per-round spans, the GP seconds.  To resume, the schedule is given
the checkpoint and re-issues the checkpointed round first; the driver
restores that round's loop state and its own totals from the same dict.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import ConvergenceMonitor
from repro.core.global_place import GlobalPlacer, GlobalPlaceResult
from repro.core.params import PlacementParams
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


@dataclass
class GpRound:
    """One ``GlobalPlacer.place()`` call of a schedule."""

    #: problem the round's placer is built from; ``None`` warm-restarts
    #: the previous round's placer instead
    db: PlacementDB | None
    params: PlacementParams
    fences: list | None = None
    #: cascade level the round runs on (history is kept per level)
    level: int = 0
    #: keys added to every ``on_iteration`` info and to the round's span
    tags: dict = field(default_factory=dict)
    #: trace span around the round (``None``: none)
    span: str | None = None
    #: where the schedule stands, stamped into the round's checkpoints
    extra: dict = field(default_factory=dict)
    #: warm-start positions ``(x, y)``
    warm: tuple | None = None
    stop_overflow: float | None = None
    lambda_period: int = 1
    #: rounds that pass the same monitor share its divergence anchor
    monitor: ConvergenceMonitor | None = None
    #: ``db.cell_width`` to install once the placer is built (a resumed
    #: round whose placer predates the last inflation)
    cell_width: np.ndarray | None = None


def run_rounds(schedule, on_iteration=None,
               resume_state: dict | None = None) -> GlobalPlaceResult:
    """Run ``schedule(resume_state)`` to completion; returns the last
    round's result with ``iterations``/``recoveries`` totalled and
    ``levels`` the per-level history (when rounds are level-tagged).

    A level's entry describes its last round — an inflation round
    re-runs its level from a warm start and supersedes the entry —
    while recoveries add up over every round.  Completed rounds never
    replay on resume: their totals and history ride in the checkpoint.
    """
    state = resume_state or {}
    done = [dict(entry) for entry in state.get("multilevel_done", [])]
    recoveries = int(state.get("multilevel_recoveries", 0))
    placer = None
    with trace_span("stage.gp") as stage, \
            closing(schedule(resume_state)) as rounds:
        rnd = next(rounds)
        while True:
            if rnd.db is not None:
                placer = GlobalPlacer(rnd.db, rnd.params, fences=rnd.fences)
            if rnd.cell_width is not None:
                placer.db.cell_width[:] = rnd.cell_width
            placer.lambda_period = rnd.lambda_period
            if rnd.warm is not None:
                placer.set_positions(*rnd.warm)
            placer.checkpoint_extra = {
                **rnd.extra,
                "multilevel_iterations": sum(e["iterations"] for e in done),
                "multilevel_recoveries": recoveries,
                "multilevel_done": [dict(entry) for entry in done],
            }
            hook = None
            if on_iteration is not None:
                def hook(placer_, info, _tags=rnd.tags, _carried=recoveries):
                    on_iteration(placer_, {
                        **info, **_tags,
                        "recoveries": info["recoveries"] + _carried,
                    })
            db = placer.db
            with (nullcontext() if rnd.span is None else trace_span(
                    rnd.span, cells=db.num_movable, nets=db.num_nets,
                    pins=db.num_pins, **rnd.tags)):
                result = placer.place(
                    stop_overflow=rnd.stop_overflow, monitor=rnd.monitor,
                    on_iteration=hook, resume_state=resume_state,
                )
            resume_state = None
            recoveries += result.recoveries
            if done and done[-1]["level"] == rnd.level:
                done.pop()
            # deterministic fields only: this dict lands in metrics.json,
            # which the kill/resume machinery compares bit-exactly against
            # uninterrupted runs (timing lives in the trace spans)
            done.append({
                "level": rnd.level,
                "cells": int(db.num_movable),
                "nets": int(db.num_nets),
                "pins": int(db.num_pins),
                "bins": int(placer.grid.nx),
                "iterations": int(result.iterations),
                "hpwl": float(result.hpwl),
                "overflow": float(result.overflow),
                "converged": bool(result.converged),
            })
            try:
                rnd = rounds.send(result)
            except StopIteration:
                break
        result.iterations = sum(e["iterations"] for e in done)
        result.recoveries = recoveries
        if "level" in rnd.tags:
            result.levels = done
        stage.update(iterations=result.iterations,
                     converged=result.converged, levels=len(done))
    result.runtime = stage.seconds
    return result
