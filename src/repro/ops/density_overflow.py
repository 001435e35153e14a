"""Density overflow metric.

The stopping criterion of global placement: the fraction of movable area
that exceeds the target density, computed on the *unstretched* cells
(no smoothing, no fillers) like RePlAce reports it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bins import BinGrid
from repro.netlist.database import PlacementDB
from repro.ops.density_map import (
    build_overlap_plan,
    scatter_density,
    scatter_plan,
)
from repro.perf.workspace import NullWorkspace, Workspace


def fixed_free_area(db: PlacementDB, grid: BinGrid) -> np.ndarray:
    """Per-bin free area after discounting fixed cells.

    Iteration-invariant: callers evaluating overflow every iteration
    should compute this once and pass it as ``free_area``.
    """
    fixed = db.fixed_index
    fixed_map = scatter_density(
        grid, db.cell_x[fixed], db.cell_y[fixed],
        db.cell_width[fixed], db.cell_height[fixed],
        np.ones(fixed.shape[0]), strategy="naive",
    )
    return np.maximum(grid.bin_area - fixed_map, 0.0)


def density_overflow(db: PlacementDB, grid: BinGrid,
                     x: np.ndarray | None = None,
                     y: np.ndarray | None = None,
                     target_density: float = 1.0,
                     free_area: np.ndarray | None = None,
                     workspace: Workspace | None = None) -> float:
    """Total overflow ratio in [0, ~1].

    ``sum_b max(0, movable_area(b) - target * free_area(b)) / total_movable_area``
    where ``free_area(b)`` discounts fixed cells in bin ``b``.  Pass the
    precomputed :func:`fixed_free_area` as ``free_area`` to skip the
    per-call fixed-cell rasterization, and a pooling :class:`Workspace`
    to run the movable scatter allocation-free (default: a private
    :class:`NullWorkspace`, i.e. fresh buffers).
    """
    cx = db.cell_x if x is None else np.asarray(x)
    cy = db.cell_y if y is None else np.asarray(y)
    movable = db.movable_index

    if free_area is None:
        free_area = fixed_free_area(db, grid)

    ws = workspace if workspace is not None else NullWorkspace()
    m = movable.shape[0]
    xl = ws.acquire("ovf.xl", m)
    yl = ws.acquire("ovf.yl", m)
    xh = ws.acquire("ovf.xh", m)
    yh = ws.acquire("ovf.yh", m)
    np.take(cx, movable, out=xl, mode="clip")
    np.take(cy, movable, out=yl, mode="clip")
    np.add(xl, _take(db.cell_width, movable, ws, "ovf.w"), out=xh)
    np.add(yl, _take(db.cell_height, movable, ws, "ovf.h"), out=yh)
    one = ws.acquire("ovf.one", m)
    one.fill(1.0)
    plan = build_overlap_plan(grid, xl, yl, xh, yh, one, ws, "ovf")
    mov_map = ws.zeros("ovf.rho", grid.shape)
    scatter_plan(plan, mov_map)
    np.subtract(mov_map, _scaled(free_area, target_density, ws),
                out=mov_map)
    np.maximum(mov_map, 0.0, out=mov_map)
    overflow = mov_map.sum()

    total = db.total_movable_area
    return float(overflow / total) if total > 0 else 0.0


def _take(arr: np.ndarray, idx: np.ndarray, ws: Workspace,
          name: str) -> np.ndarray:
    out = ws.acquire(name, idx.shape[0], arr.dtype)
    np.take(arr, idx, out=out, mode="clip")
    return out


def _scaled(free_area: np.ndarray, target: float, ws: Workspace) -> np.ndarray:
    cap = ws.acquire("ovf.cap", free_area.shape, free_area.dtype)
    np.multiply(free_area, target, out=cap)
    return cap
