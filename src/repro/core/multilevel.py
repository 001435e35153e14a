"""Multilevel global placement: coarse-to-fine GP cascade.

The DG-RePlAce-style accelerant on top of the kernel GP loop: coarsen
the netlist ``multilevel_levels - 1`` times (``repro.netlist.coarsen``,
deterministic heavy-edge matching), run GP on the coarsest problem
from a cold start, then repeatedly *prolong* cluster positions onto
the next-finer level and warm-start its GP from there.

Why it is fast:

- a level with ``r``x fewer movable cells costs roughly ``r``x less
  per iteration (wirelength is pin-linear, the density grid auto-sizes
  to ``sqrt(num_movable)`` via ``PlacementParams.resolve_num_bins``),
  so coarse iterations are nearly free;
- the fine level starts from an already-spread placement, skipping
  the expensive early phase where a cold start untangles the random
  center initialization — it needs a fraction of the flat iteration
  count to reach the same overflow target.

Coarse levels run with a relaxed overflow target and a short plateau
patience (``multilevel_coarse_*`` knobs): past that point the coarse
optimum stops transferring through prolongation, so the budget is
handed to the finer level instead.

The cascade is a *schedule* over the one GP round driver
(``repro.core.rounds``): :func:`level_rounds` yields one round per
level and prolongs between them.  Every checkpoint records the active
level (and its movable-cell count, as a determinism guard); because
coarsening is a pure function of the database and parameters, resuming
rebuilds the identical level stack and continues prolonging downward —
completed coarser levels never replay, their only output (the
warm-start positions) is already inside the checkpoint.

Each level's GP runs inside a ``gp.level{i}`` trace span/profiler op
(plus ``gp.coarsen``/``gp.prolong`` for the transfer operators), and
each ``on_iteration`` info dict gains ``level``/``num_levels`` keys.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.global_place import GlobalPlaceResult
from repro.core.params import PlacementParams
from repro.core.rounds import GpRound, run_rounds
from repro.netlist.coarsen import CoarseLevel, coarsen
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


def build_levels(db: PlacementDB, params: PlacementParams,
                 fences=None) -> list[CoarseLevel]:
    """The level stack, finest first.

    ``levels[0]`` is an identity level over ``db``; ``levels[i]`` for
    ``i >= 1`` coarsens ``levels[i-1].db``.  Generation stops early
    when a level would fall below ``multilevel_min_cells`` movable
    cells or the coarsener stalls, so the stack may be shorter than
    ``multilevel_levels``.
    """
    levels = [coarsen(db, 1.0, fences=fences)]
    for _ in range(1, max(int(params.multilevel_levels), 1)):
        prev = levels[-1]
        if prev.db.num_movable <= params.multilevel_min_cells:
            break
        with trace_span("gp.coarsen", level=len(levels)):
            step = coarsen(prev.db, params.coarsen_ratio,
                           fences=prev.fences)
        if step.identity:
            break
        levels.append(step)
    return levels


def _coarse_bins(num_movable: int) -> int:
    """Coarse-level grid rule: power of two *below* sqrt(#movable).

    The default auto-sizing (``PlacementParams.resolve_num_bins``)
    rounds up, which is right for the final-quality fine level; coarse
    levels only need the density field to spread clusters, and the
    DCT/stamping cost is quadratic in the grid side, so rounding down
    buys a 4x cheaper field at no measurable transfer loss.
    """
    guess = 2 ** int(np.floor(np.log2(max(
        np.sqrt(max(num_movable, 1)), 1))))
    return int(np.clip(guess, 16, 512))


def _level_params(params: PlacementParams, level: int, num_levels: int,
                  num_movable: int) -> PlacementParams:
    """Per-level GP knobs.

    Coarse levels (``level > 0``) scale the density grid to their own
    cell count, stop early on relaxed targets/plateaus, and ramp
    lambda hotter (``multilevel_coarse_mu``) — their job is global
    structure, not a polished optimum.  Warm-started levels (all but
    the coarsest) soften the balanced lambda_0 restart by
    ``multilevel_warm_lambda_scale`` so refinement opens with
    wirelength-led repair iterations.  A single-level stack therefore
    returns ``params`` untouched: the flat path stays bit-identical.
    """
    p = params
    if level > 0:
        p = p.with_overrides(
            num_bins=_coarse_bins(num_movable),
            stop_overflow=max(params.stop_overflow,
                              params.multilevel_coarse_overflow),
            plateau_patience=min(params.plateau_patience,
                                 params.multilevel_coarse_patience),
            mu_max=max(params.mu_max, params.multilevel_coarse_mu),
        )
    if level < num_levels - 1:
        p = p.with_overrides(
            density_weight_scale=(p.density_weight_scale
                                  * params.multilevel_warm_lambda_scale),
        )
    return p


def level_rounds(db: PlacementDB, params: PlacementParams, fences=None,
                 state: dict | None = None, *,
                 tagged: bool = True, fine_rounds=None):
    """The cascade as a round schedule (see ``repro.core.rounds``).

    Yields one :class:`GpRound` per level, coarsest first, prolonging
    the result sent back onto the next-finer level.  ``tagged=False``
    is the flat flow: the identity level alone, its round undecorated
    (no ``level`` keys, no ``gp.level0`` span).  ``fine_rounds(base,
    state)`` is a sub-schedule that takes over on the finest level with
    variations of that level's round (routability).  ``state`` is the
    checkpoint to resume from: the cascade restarts at its level.
    """
    levels = build_levels(db, params, fences=fences)
    level = len(levels) - 1
    if state is not None:
        level = int(state.get("multilevel_level", level))
        if not 0 <= level < len(levels):
            raise ValueError(
                f"checkpoint level {level} outside the rebuilt "
                f"{len(levels)}-level cascade (parameters changed?)"
            )
        expect = state.get("multilevel_cells")
        have = levels[level].db.num_movable
        if expect is not None and int(expect) != have:
            raise ValueError(
                f"checkpoint level {level} had {expect} movable "
                f"cells, rebuilt level has {have}: the cascade is not "
                f"the one that was checkpointed"
            )
    warm = None
    while True:
        stack = levels[level]
        rnd = GpRound(
            stack.db,
            _level_params(params, level, len(levels), stack.db.num_movable),
            stack.fences, level=level, warm=warm,
            extra={"multilevel_level": level,
                   "multilevel_cells": stack.db.num_movable},
        )
        if tagged:
            rnd.tags = {"level": level, "num_levels": len(levels)}
            rnd.span = f"gp.level{level}"
        if level == 0:
            if fine_rounds is None:
                yield rnd
            else:
                yield from fine_rounds(rnd, state)
            return
        result = yield rnd
        state = None  # only the first round issued is a resumed one
        with trace_span("gp.prolong", level=level):
            warm = stack.prolong(result.x, result.y)
        level -= 1


def multilevel_place(db: PlacementDB, params: PlacementParams,
                     fences=None, on_iteration=None,
                     resume_state: dict | None = None) -> GlobalPlaceResult:
    """Run the coarse-to-fine cascade; returns the *fine* GP result.

    The returned :class:`GlobalPlaceResult` carries the fine level's
    positions/metrics, with ``iterations`` summed across every level
    (total GP work) and a ``levels`` attribute listing the per-level
    outcomes.  ``resume_state`` must come from a checkpoint captured
    by this driver (it records the active level).
    """
    return run_rounds(partial(level_rounds, db, params, fences),
                      on_iteration=on_iteration, resume_state=resume_state)
