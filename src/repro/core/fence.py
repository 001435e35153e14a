"""Fence regions via multiple electric fields (Section III-G).

The paper's proposed extension: "fence regions can be implemented by
introducing multiple electric fields, e.g., one for each region, to
enable independent spreading between regions."  Cells assigned to a
fence spread inside their own electrostatic system over the fence's
bin grid; unassigned cells use the default system over the whole core.
Position clamping keeps every group inside its region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.bins import BinGrid
from repro.geometry.region import PlacementRegion
from repro.netlist.database import PlacementDB
from repro.nn.function import Function
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops.density_map import gather_field, scatter_density
from repro.ops.density_op import stretch_sizes
from repro.ops.electrostatics import PoissonSolver


@dataclass
class FenceRegion:
    """A rectangular fence and the cells constrained to it."""

    name: str
    xl: float
    yl: float
    xh: float
    yh: float
    cells: list[int] = field(default_factory=list)

    def as_region(self, row_height: float, site_width: float
                  ) -> PlacementRegion:
        return PlacementRegion(self.xl, self.yl, self.xh, self.yh,
                               row_height=row_height,
                               site_width=site_width)


class _FieldSystem:
    """One electrostatic system: a cell group over its own bin grid."""

    def __init__(self, db: PlacementDB, region: PlacementRegion,
                 cells: np.ndarray, num_bins: int, dct_impl: str):
        self.cells = np.asarray(cells, dtype=np.int64)
        self.grid = BinGrid(region, num_bins, num_bins)
        self.solver = PoissonSolver(self.grid, impl=dct_impl)
        self.orig_w = db.cell_width[self.cells]
        self.orig_h = db.cell_height[self.cells]
        self.part_w, self.part_h, self.scale = stretch_sizes(
            self.orig_w, self.orig_h, self.grid
        )

    def energy_and_force(self, x: np.ndarray, y: np.ndarray):
        xl = x[self.cells] + 0.5 * (self.orig_w - self.part_w)
        yl = y[self.cells] + 0.5 * (self.orig_h - self.part_h)
        rho = scatter_density(self.grid, xl, yl, self.part_w, self.part_h,
                              self.scale)
        solution = self.solver.solve(rho)
        energy = float((rho * solution.potential).sum())
        fx = gather_field(self.grid, solution.field_x, xl, yl,
                          self.part_w, self.part_h, self.scale)
        fy = gather_field(self.grid, solution.field_y, xl, yl,
                          self.part_w, self.part_h, self.scale)
        return energy, fx, fy


class _MultiFieldFunction(Function):
    capture_safe = True

    def forward(self, pos: np.ndarray, *, op: "MultiRegionDensity"):
        n = pos.shape[0] // 2
        x = pos[:n]
        y = pos[n:]
        grad = np.zeros_like(pos)
        total = 0.0
        for system in op.systems:
            energy, fx, fy = system.energy_and_force(x, y)
            total += energy
            grad[system.cells] = -fx
            grad[n + system.cells] = -fy
        grad[op.fixed_index] = 0.0
        grad[n + op.fixed_index] = 0.0
        self.save_for_backward(grad)
        return np.asarray(total, dtype=pos.dtype)

    def backward(self, grad_output):
        (grad,) = self.saved_values
        return (np.asarray(grad_output) * grad,)


class MultiRegionDensity(Module):
    """Density penalty with one independent electric field per fence.

    Cells listed in a :class:`FenceRegion` spread within that fence;
    all remaining movable cells spread in the default field covering
    the core region.  Drop-in compatible with
    :class:`~repro.ops.density_op.ElectricDensity` for designs without
    fillers.
    """

    def __init__(self, db: PlacementDB, fences: list[FenceRegion],
                 num_bins: int = 32, dct_impl: str = "2d"):
        assigned: set[int] = set()
        for fence in fences:
            overlap = assigned & set(fence.cells)
            if overlap:
                raise ValueError(
                    f"cells {sorted(overlap)} assigned to multiple fences"
                )
            assigned |= set(fence.cells)
        movable = set(db.movable_index.tolist())
        bad = assigned - movable
        if bad:
            raise ValueError(f"non-movable cells in fences: {sorted(bad)}")

        self.fences = fences
        self.fixed_index = np.flatnonzero(~db.movable)
        self.systems: list[_FieldSystem] = []
        row = db.region.row_height
        site = db.region.site_width
        for fence in fences:
            self.systems.append(_FieldSystem(
                db, fence.as_region(row, site),
                np.asarray(sorted(fence.cells), dtype=np.int64),
                num_bins, dct_impl,
            ))
        default_cells = np.asarray(sorted(movable - assigned),
                                   dtype=np.int64)
        if default_cells.size:
            self.systems.append(_FieldSystem(
                db, db.region, default_cells, num_bins, dct_impl,
            ))

    def forward(self, pos: Tensor) -> Tensor:
        return _MultiFieldFunction.apply(pos, op=self)


def fence_of_cell(db: PlacementDB, fences: list[FenceRegion]
                  ) -> np.ndarray:
    """Fence membership per cell: index into ``fences``, ``-1`` = none.

    The shared vocabulary of the post-GP stages: the legalizers, the
    detailed-placement passes and the legality checker all constrain
    moves to cells of equal membership, so a fence-legal GP result
    stays fence-legal through the whole flow.  Raises ``ValueError``
    on a cell assigned to more than one fence.
    """
    membership = np.full(db.num_cells, -1, dtype=np.int64)
    for f, fence in enumerate(fences):
        cells = np.asarray(list(fence.cells), dtype=np.int64)
        taken = membership[cells] >= 0
        if taken.any():
            raise ValueError(
                f"cells {sorted(cells[taken].tolist())} assigned to "
                f"multiple fences"
            )
        membership[cells] = f
    return membership


def fence_clamp_bounds(db: PlacementDB, fences: list[FenceRegion]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate clamp bounds keeping each cell in its fence.

    Returns ``(lo, hi)`` of length ``2 * num_cells`` ([x..., y...])
    suitable as a projection for the optimizer.
    """
    n = db.num_cells
    lo = np.empty(2 * n)
    hi = np.empty(2 * n)
    region = db.region
    lo[:n] = region.xl
    hi[:n] = np.maximum(region.xh - db.cell_width, region.xl)
    lo[n:] = region.yl
    hi[n:] = np.maximum(region.yh - db.cell_height, region.yl)
    for fence in fences:
        cells = np.asarray(fence.cells, dtype=np.int64)
        lo[cells] = fence.xl
        hi[cells] = np.maximum(fence.xh - db.cell_width[cells], fence.xl)
        lo[n + cells] = fence.yl
        hi[n + cells] = np.maximum(
            fence.yh - db.cell_height[cells], fence.yl
        )
    frozen = np.flatnonzero(~db.movable)
    for offset in (0, n):
        lo[offset + frozen] = db.cell_x[frozen] if offset == 0 \
            else db.cell_y[frozen]
        hi[offset + frozen] = lo[offset + frozen]
    return lo, hi
