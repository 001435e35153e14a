"""Electrostatic density penalty operator (Sections II-C and III-B).

``ElectricDensity`` is the custom OP computing the density cost ``D`` in
eq. (2): cells (plus filler cells) are charges, the forward pass scatters
charge into bins, solves Poisson's equation spectrally and returns the
potential energy; the backward pass gathers the electric force per cell.

The scatter/gather kernel is the one ``strategy`` names (see
:mod:`repro.ops.density_map`).  With the default ``"flat"`` the forward
builds one flat (cell, bin) overlap plan per iteration in the op's
workspace and the backward reuses its overlap coefficients for both
force gathers, so overlaps are computed once instead of three times and
no large temporaries are allocated in steady state; ``"naive"`` /
``"sorted"`` / ``"stamp"`` run the paper's per-call kernels.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bins import BinGrid
from repro.netlist.database import PlacementDB
from repro.nn.function import Function
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.trace import trace_span
from repro.ops.density_map import (
    STRATEGIES,
    build_overlap_plan,
    gather_field,
    gather_plan,
    scatter_density,
    scatter_plan,
)
from repro.ops.electrostatics import PoissonSolver
from repro.perf.workspace import Workspace

SQRT2 = float(np.sqrt(2.0))


def stretch_sizes(width: np.ndarray, height: np.ndarray,
                  grid: BinGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ePlace cell smoothing: expand small cells to sqrt(2) x bin size.

    Cells narrower than ``sqrt(2) * bin`` in a dimension are stretched to
    that size, with a density scale preserving total charge (area).
    Returns ``(stretched_w, stretched_h, scale)``.
    """
    sw = np.maximum(width, SQRT2 * grid.bin_w)
    sh = np.maximum(height, SQRT2 * grid.bin_h)
    area = width * height
    stretched_area = sw * sh
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(stretched_area > 0, area / stretched_area, 0.0)
    return sw, sh, scale


class _DensityFunction(Function):
    """Autograd node: pos (2*N,) -> scalar density penalty."""

    capture_safe = True

    def forward(self, pos: np.ndarray, *, op: "ElectricDensity"):
        with trace_span("density.forward"):
            n = pos.shape[0] // 2
            if op.max_participant >= n:
                raise ValueError(
                    "position vector too short for the configured fillers"
                )
            ws = op.ws
            m = op.participant_index.shape[0]
            pos = pos.astype(op.dtype, copy=False)
            # density boxes are centered on the cell, using stretched
            # sizes; low edges of both axes come from one gather per
            # half of the (x..., y...) vector into one stacked buffer
            lo = ws.acquire("den.xy", 2 * m, op.dtype)
            np.take(pos[:n], op.participant_index, out=lo[:m], mode="clip")
            np.take(pos[n:], op.participant_index, out=lo[m:], mode="clip")
            lo += op.offsets
            xl, yl = lo[:m], lo[m:]
            rho_mov = ws.zeros("den.rho", op.grid.shape, op.dtype)
            plan = None
            with trace_span("density.scatter"):
                if op.strategy == "flat":
                    hi = ws.acquire("den.xyh", 2 * m, op.dtype)
                    np.add(lo, op.sizes, out=hi)
                    plan = build_overlap_plan(op.grid, xl, yl, hi[:m], hi[m:],
                                              op.part_scale, ws, "den")
                    scatter_plan(plan, rho_mov)
                else:
                    scatter_density(
                        op.grid, xl, yl, op.part_w, op.part_h, op.part_scale,
                        strategy=op.strategy, out=rho_mov, dtype=op.dtype,
                    )
            rho = ws.acquire("den.rho_total", op.grid.shape, op.dtype)
            np.add(rho_mov, op.fixed_density, out=rho)
            with trace_span("density.solve"):
                solution = op.solver.solve(rho)
            # rho consumed by the solve; reuse it for the energy product
            np.multiply(rho_mov, solution.potential, out=rho)
            energy = float(rho.sum())
            self.save_for_backward(op, xl, yl, solution, n, plan)
            return np.asarray(energy, dtype=op.dtype)

    def backward(self, grad_output):
        with trace_span("density.backward"):
            op, xl, yl, solution, n, plan = self.saved_values
            idx = op.participant_index
            scale = float(np.asarray(grad_output))
            grad = op.ws.zeros("den.grad", 2 * n, op.dtype)
            # moving along the field decreases the potential energy
            for half, field in ((grad[:n], solution.field_x),
                                (grad[n:], solution.field_y)):
                if plan is not None:
                    force = gather_plan(plan, field, op.ws, "den.force")
                else:
                    force = gather_field(
                        op.grid, field, xl, yl, op.part_w, op.part_h,
                        op.part_scale, strategy=op.strategy, dtype=op.dtype,
                    )
                force *= -scale
                half[idx] = force
            return (grad,)


class ElectricDensity(Module):
    """Density penalty ``D(pos)`` as a differentiable module.

    Parameters
    ----------
    db:
        Placement database.  Fixed cells are rasterized once into a
        static density map; movable cells (and fillers) are re-scattered
        every call.
    grid:
        Bin grid of the electrostatic system.
    num_fillers, filler_width, filler_height:
        Filler cells appended to the position vector (indices
        ``db.num_cells ..``), following ePlace's whitespace filling.
    strategy:
        Density map kernel, one of
        :data:`repro.ops.density_map.STRATEGIES`.
    dct_impl:
        Poisson solver transform, see
        :class:`repro.ops.electrostatics.PoissonSolver`.
    workspace:
        Optional externally owned :class:`Workspace`; defaults to a
        private one.
    """

    def __init__(self, db: PlacementDB, grid: BinGrid,
                 num_fillers: int = 0, filler_width: float = 0.0,
                 filler_height: float = 0.0, strategy: str = "flat",
                 dct_impl: str = "2d", dtype=np.float64,
                 workspace: Workspace | None = None):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.grid = grid
        self.strategy = strategy
        self.dtype = np.dtype(dtype)
        self.ws = workspace if workspace is not None else Workspace()
        self.solver = PoissonSolver(grid, impl=dct_impl)
        self.num_fillers = int(num_fillers)
        self.num_cells = db.num_cells

        movable = db.movable_index
        orig_w = np.concatenate([
            db.cell_width[movable],
            np.full(self.num_fillers, float(filler_width)),
        ])
        orig_h = np.concatenate([
            db.cell_height[movable],
            np.full(self.num_fillers, float(filler_height)),
        ])
        self.orig_w = orig_w
        self.orig_h = orig_h
        part_w, part_h, part_scale = stretch_sizes(orig_w, orig_h, grid)
        self.part_w = part_w.astype(self.dtype)
        self.part_h = part_h.astype(self.dtype)
        self.part_scale = part_scale.astype(self.dtype)
        # hoisted centering offsets: box low edge = pos + (w - sw) / 2,
        # and box sizes, both as (x..., y...) stacks
        self.offsets = np.concatenate([
            0.5 * (orig_w - part_w), 0.5 * (orig_h - part_h),
        ]).astype(self.dtype)
        self.sizes = np.concatenate([self.part_w, self.part_h])
        self.participant_index = np.concatenate([
            movable,
            db.num_cells + np.arange(self.num_fillers, dtype=np.int64),
        ])
        #: the position vector must reach past this index (checked per call)
        self.max_participant = int(self.participant_index.max(initial=-1))

        # static map of fixed cells (not stretched; they are real blockages)
        fixed = db.fixed_index
        self.fixed_density = scatter_density(
            grid,
            db.cell_x[fixed], db.cell_y[fixed],
            db.cell_width[fixed], db.cell_height[fixed],
            np.ones(fixed.shape[0]),
            strategy="naive", dtype=self.dtype,
        )

    def forward(self, pos: Tensor) -> Tensor:
        return _DensityFunction.apply(pos, op=self)
