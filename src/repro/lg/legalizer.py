"""Legalization orchestrator: Tetris pass then Abacus refinement.

With fences, legalization runs once per cell group: every fence group
over the row segments clipped to its fence rectangle, and the default
group over the core rows with the fence rectangles subtracted as
blockers — fences are exclusive, so a fence-legal GP result stays
fence-legal through legalization.
"""

from __future__ import annotations

import numpy as np

from repro.lg.abacus import abacus_legalize
from repro.lg.macro_legalize import legalize_macros, movable_macro_index
from repro.lg.rows import build_row_segments, clip_segments_to_fence
from repro.lg.tetris import tetris_legalize
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


def _fence_blocker_rects(db: PlacementDB, fences) -> list[tuple]:
    """Fence rectangles snapped *outward* to the site grid, so the
    default group's free segments end on-grid at every fence edge."""
    region = db.region
    site = region.site_width
    rects = []
    for fence in fences:
        xl = region.xl + np.floor((fence.xl - region.xl) / site + 1e-9) * site
        xh = region.xl + np.ceil((fence.xh - region.xl) / site - 1e-9) * site
        rects.append((float(xl), fence.yl, float(xh), fence.yh))
    return rects


def legalize(db: PlacementDB, x: np.ndarray | None = None,
             y: np.ndarray | None = None,
             refine: bool = True,
             fences=None) -> tuple[np.ndarray, np.ndarray]:
    """Legalize movable cells, following Section III-E.

    Movable macros (multi-row cells) are legalized greedily first and
    then treated as fixed obstacles.  The Tetris-like greedy pass
    assigns standard cells to rows and removes overlaps, then (if
    ``refine``) Abacus minimizes displacement within rows using the
    pre-legalization positions as targets.  With ``fences`` (a list of
    :class:`~repro.core.fence.FenceRegion`), each fence group is
    legalized inside its fence and the default group outside all of
    them.  Returns legal ``(x, y)``.
    """
    desired_x = db.cell_x.copy() if x is None else np.asarray(x).copy()
    desired_y = db.cell_y.copy() if y is None else np.asarray(y).copy()

    macros = movable_macro_index(db)
    if macros.size:
        if fences:
            from repro.core.fence import fence_of_cell
            if (fence_of_cell(db, fences)[macros] >= 0).any():
                raise NotImplementedError(
                    "movable macros inside fence regions are not supported"
                )
        with trace_span("lg.macros"):
            mx, my, _ = legalize_macros(db, desired_x, desired_y)
        desired_x[macros] = mx[macros]
        desired_y[macros] = my[macros]
        # std-cell legalizers see the macros as fixed obstacles
        work = db.clone()
        work.movable = work.movable.copy()
        work.movable[macros] = False
        work.cell_x[macros] = mx[macros]
        work.cell_y[macros] = my[macros]
    else:
        work = db

    if not fences:
        with trace_span("lg.tetris"):
            lx, ly, row_of_cell = tetris_legalize(work, desired_x, desired_y)
        if refine:
            with trace_span("lg.abacus"):
                lx, ly = abacus_legalize(
                    work, lx, ly, row_of_cell, desired_x=desired_x,
                )
    else:
        from repro.core.fence import fence_of_cell

        membership = fence_of_cell(work, fences)
        movable = np.flatnonzero(work.movable)
        base = build_row_segments(work)
        default_segments = build_row_segments(
            work, extra_blockers=_fence_blocker_rects(work, fences)
        )
        # (cells, segments) per group: one per fence, then the default
        groups = [
            (movable[membership[movable] == f],
             clip_segments_to_fence(work, base, fence))
            for f, fence in enumerate(fences)
        ]
        groups.append((movable[membership[movable] < 0], default_segments))

        lx = desired_x.copy()
        ly = desired_y.copy()
        row_of_cell = np.full(work.num_cells, -1, dtype=np.int64)
        with trace_span("lg.tetris"):
            for cells, segments in groups:
                if cells.size == 0:
                    continue
                lx, ly, rows = tetris_legalize(
                    work, lx, ly, cells=cells, segments=segments,
                )
                row_of_cell[cells] = rows[cells]
        if refine:
            with trace_span("lg.abacus"):
                for cells, segments in groups:
                    if cells.size == 0:
                        continue
                    lx, ly = abacus_legalize(
                        work, lx, ly, row_of_cell, desired_x=desired_x,
                        cells=cells, segments=segments,
                    )

    if macros.size:
        lx[macros] = desired_x[macros]
        ly[macros] = desired_y[macros]
    return lx, ly
