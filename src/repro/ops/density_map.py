"""Density map scatter and electric-force gather (Section III-B1/B2).

The density map computation is the "dynamic bipartite graph forward" of
Fig. 5(a): every cell spreads its (stretched) area over the bins it
overlaps.  The force computation is the matching backward (Fig. 5(b)):
every cell gathers the field of the bins it overlaps with the same
overlap weights.  Three strategies reproduce the paper's kernel study
(Fig. 6, Fig. 12) and a fourth is the production kernel:

``naive``
    One unit of work per cell, looping over its bins sequentially — the
    'one thread per cell' scheme with its load-imbalance problem.
``sorted``
    Cells grouped by identical bin-span footprint (the CPU analog of
    sorting cells by area so a warp processes similar sizes), each group
    processed as one vectorized batch.
``stamp``
    Offset-parallel updates: for every (dx, dy) bin offset all cells
    covering that offset update simultaneously — the analog of 'update
    one cell with multiple threads'.
``flat``
    Every (cell, bin) overlap pair enumerated once as a flat
    contribution list (:func:`build_overlap_plan`) living in workspace
    buffers; the scatter is one ``add.at`` over it and each force gather
    one ``take`` + segment reduction reusing the same coefficients.
    The default of :class:`~repro.ops.density_op.ElectricDensity`,
    which builds the plan once per iteration and shares it between the
    forward scatter and both backward gathers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bins import BinGrid
from repro.perf.workspace import NullWorkspace, Workspace

STRATEGIES = ("naive", "sorted", "stamp", "flat")

# cells spanning more bins than this are processed with the naive loop in
# the vectorized strategies (the handful of macros in a design)
_MACRO_SPAN = 32


def cell_bin_spans(grid: BinGrid, xl, yl, wx, wy):
    """First overlapped bin and bin count per cell, per axis."""
    ix0, ix1 = grid.span_x(xl, xl + wx)
    iy0, iy1 = grid.span_y(yl, yl + wy)
    return ix0, ix1 - ix0, iy0, iy1 - iy0


def _overlap_x(grid: BinGrid, xl, xh, ix):
    lo = grid.region.xl + ix * grid.bin_w
    return np.maximum(np.minimum(xh, lo + grid.bin_w) - np.maximum(xl, lo), 0.0)


def _overlap_y(grid: BinGrid, yl, yh, iy):
    lo = grid.region.yl + iy * grid.bin_h
    return np.maximum(np.minimum(yh, lo + grid.bin_h) - np.maximum(yl, lo), 0.0)


# ---------------------------------------------------------------------------
# scatter (density map)
# ---------------------------------------------------------------------------
def _scatter_naive_subset(grid, out, xl, yl, wx, wy, weight, index):
    for i in index:
        cxl, cyl = xl[i], yl[i]
        cxh, cyh = cxl + wx[i], cyl + wy[i]
        ix0, ix1 = grid.span_x(cxl, cxh)
        iy0, iy1 = grid.span_y(cyl, cyh)
        cols = np.arange(ix0, ix1)
        rows = np.arange(iy0, iy1)
        ovx = _overlap_x(grid, cxl, cxh, cols)
        ovy = _overlap_y(grid, cyl, cyh, rows)
        out[ix0:ix1, iy0:iy1] += weight[i] * np.outer(ovx, ovy)


def _scatter_offsets(grid, out, xl, yl, wx, wy, weight, index,
                     ix0, sx, iy0, sy):
    """Vectorized scatter for a set of cells via (dx, dy) offset passes."""
    if index.size == 0:
        return
    max_sx = int(sx[index].max())
    max_sy = int(sy[index].max())
    xh = xl + wx
    yh = yl + wy
    for dx in range(max_sx):
        sel_x = index[sx[index] > dx]
        if sel_x.size == 0:
            continue
        cols = ix0[sel_x] + dx
        ovx = _overlap_x(grid, xl[sel_x], xh[sel_x], cols)
        for dy in range(max_sy):
            sel = sel_x[sy[sel_x] > dy]
            if sel.size == 0:
                continue
            cols_s = ix0[sel] + dx
            rows_s = iy0[sel] + dy
            ovx_s = ovx[sy[sel_x] > dy]
            ovy = _overlap_y(grid, yl[sel], yh[sel], rows_s)
            np.add.at(out, (cols_s, rows_s), weight[sel] * ovx_s * ovy)


def scatter_density(grid: BinGrid, xl, yl, wx, wy, weight,
                    strategy: str = "stamp",
                    out: np.ndarray | None = None,
                    dtype=np.float64) -> np.ndarray:
    """Accumulate per-cell area into the bin map.

    ``weight`` is the per-unit-area density of each cell (the stretching
    scale), so cell ``i`` contributes ``weight[i] * overlap_area`` to
    each bin.  Returns the ``(nx, ny)`` map in ``dtype`` precision.
    """
    xl = np.asarray(xl, dtype=dtype)
    yl = np.asarray(yl, dtype=dtype)
    wx = np.asarray(wx, dtype=dtype)
    wy = np.asarray(wy, dtype=dtype)
    weight = np.asarray(weight, dtype=dtype)
    if out is None:
        out = grid.zeros(dtype=dtype)
    n = xl.shape[0]
    if n == 0:
        return out
    if strategy == "naive":
        _scatter_naive_subset(grid, out, xl, yl, wx, wy, weight,
                              np.arange(n))
        return out
    if strategy == "flat":
        scatter_plan(build_overlap_plan(grid, xl, yl, xl + wx, yl + wy,
                                        weight, NullWorkspace()), out)
        return out

    ix0, sx, iy0, sy = cell_bin_spans(grid, xl, yl, wx, wy)
    big = (sx > _MACRO_SPAN) | (sy > _MACRO_SPAN)
    _scatter_naive_subset(grid, out, xl, yl, wx, wy, weight,
                          np.flatnonzero(big))
    small = np.flatnonzero(~big)

    if strategy == "stamp":
        _scatter_offsets(grid, out, xl, yl, wx, wy, weight, small,
                         ix0, sx, iy0, sy)
    elif strategy == "sorted":
        # group cells with identical footprints (the warp-balancing sort)
        keys = sx[small] * (_MACRO_SPAN + 1) + sy[small]
        order = np.argsort(keys, kind="stable")
        sorted_cells = small[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        for chunk in np.split(sorted_cells, boundaries):
            _scatter_offsets(grid, out, xl, yl, wx, wy, weight, chunk,
                             ix0, sx, iy0, sy)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return out


# ---------------------------------------------------------------------------
# flat-contribution kernels (strategy "flat"; zero steady-state
# allocations on a pooling workspace)
#
# Instead of looping over (dx, dy) offsets with boolean-mask passes,
# every (cell, bin) overlap pair is one flat contribution:
# ``counts[i] = sx[i] * sy[i]`` pairs per cell, laid out cell-major so
# per-cell segment reductions are a single ``reduceat``.  The plan (flat
# bin index + overlap-area weight per pair) is built once in workspace
# buffers and can be shared by the density scatter (forward) and both
# force gathers (backward) — the other strategies recompute the
# overlaps three times per iteration.  Arbitrary spans are handled
# uniformly, so macros need no separate naive pass.
# ---------------------------------------------------------------------------
@dataclass
class FlatOverlapPlan:
    """Per-(cell, bin) contribution plan living in workspace buffers.

    Valid until the owning workspace rebuilds the same-named buffers;
    consumers must finish with it before the next ``build_overlap_plan``
    call on the same workspace/prefix.
    """

    flat_index: np.ndarray  # (total,) int64, bin index into map.ravel()
    coefficient: np.ndarray  # (total,) weight * overlap_x * overlap_y
    starts: np.ndarray  # (n + 1,) int64 cell segment starts (cell-major)
    num_cells: int


def _span_1d(lo_arr, hi_arr, origin, step, nbins, idx0, span, tf):
    """span_x/span_y on workspace buffers: first bin + count per cell."""
    np.subtract(lo_arr, origin, out=tf)
    tf /= step
    np.floor(tf, out=tf)
    np.clip(tf, 0, nbins - 1, out=tf)
    np.copyto(idx0, tf, casting="unsafe")
    np.subtract(hi_arr, origin, out=tf)
    tf /= step
    tf -= 1e-9
    np.floor(tf, out=tf)
    np.clip(tf, 0, nbins - 1, out=tf)
    np.copyto(span, tf, casting="unsafe")
    span += 1
    span -= idx0
    np.maximum(span, 1, out=span)


def _overlap_1d(idx_flat, lo_g, hi_g, origin, step, fa, fb):
    """overlap = max(min(hi, lo_bin + step) - max(lo, lo_bin), 0).

    ``lo_g``/``hi_g`` hold the gathered cell edges; the result is
    written over ``hi_g`` (``fa``/``fb`` are scratch).
    """
    np.multiply(idx_flat, step, out=fa)
    fa += origin
    np.maximum(lo_g, fa, out=fb)
    fa += step
    np.minimum(hi_g, fa, out=hi_g)
    hi_g -= fb
    np.maximum(hi_g, 0.0, out=hi_g)
    return hi_g


def build_overlap_plan(grid: BinGrid, xl, yl, xh, yh, weight,
                       ws: Workspace, prefix: str = "dm") -> FlatOverlapPlan:
    """Build the flat (cell, bin) contribution plan in ``ws`` buffers.

    All inputs must already be arrays of the working dtype; ``xh``/``yh``
    are the high edges (``xl + w``).  No allocations in steady state.
    """
    n = xl.shape[0]
    dtype = xl.dtype
    tf = ws.acquire(prefix + ".tf", n, dtype)
    ix0 = ws.acquire(prefix + ".ix0", n, np.int64)
    sx = ws.acquire(prefix + ".sx", n, np.int64)
    iy0 = ws.acquire(prefix + ".iy0", n, np.int64)
    sy = ws.acquire(prefix + ".sy", n, np.int64)
    _span_1d(xl, xh, grid.region.xl, grid.bin_w, grid.nx, ix0, sx, tf)
    _span_1d(yl, yh, grid.region.yl, grid.bin_h, grid.ny, iy0, sy, tf)
    counts = ws.acquire(prefix + ".counts", n, np.int64)
    np.multiply(sx, sy, out=counts)
    starts = ws.acquire(prefix + ".starts", n + 1, np.int64)
    starts[0] = 0
    np.cumsum(counts, out=starts[1:])
    total = int(starts[n])
    # group id per flat slot: mark segment boundaries, prefix-sum.
    # counts >= 1 always (span_* guarantees one bin), so boundaries are
    # distinct and the scatter-of-ones is exact.
    grp = ws.acquire_flat(prefix + ".grp", total, np.int64)
    grp.fill(0)
    grp[starts[1:-1]] = 1
    np.cumsum(grp, out=grp)
    # within-cell offset -> (dx, dy) via divmod by the y-span
    offs = ws.acquire_flat(prefix + ".offs", total, np.int64)
    np.take(starts, grp, out=offs, mode="clip")
    np.subtract(ws.arange(total), offs, out=offs)
    syg = ws.acquire_flat(prefix + ".syg", total, np.int64)
    np.take(sy, grp, out=syg, mode="clip")
    col = ws.acquire_flat(prefix + ".col", total, np.int64)
    np.floor_divide(offs, syg, out=col)  # col = dx for now
    np.remainder(offs, syg, out=offs)    # offs now holds dy
    row = syg  # syg consumed; reuse as the row buffer
    np.take(iy0, grp, out=row, mode="clip")
    row += offs
    tmp = offs  # dy consumed; reuse as the ix0 gather
    np.take(ix0, grp, out=tmp, mode="clip")
    col += tmp
    # overlap coefficient = weight * overlap_x * overlap_y
    ga = ws.acquire_flat(prefix + ".ga", total, dtype)
    gb = ws.acquire_flat(prefix + ".gb", total, dtype)
    gc = ws.acquire_flat(prefix + ".gc", total, dtype)
    sa = ws.acquire_flat(prefix + ".sa", total, dtype)
    sb = ws.acquire_flat(prefix + ".sb", total, dtype)
    np.take(xl, grp, out=ga, mode="clip")
    np.take(xh, grp, out=gb, mode="clip")
    ov = _overlap_1d(col, ga, gb, grid.region.xl, grid.bin_w, sa, sb)
    np.take(yl, grp, out=ga, mode="clip")
    np.take(yh, grp, out=gc, mode="clip")
    ovy = _overlap_1d(row, ga, gc, grid.region.yl, grid.bin_h, sa, sb)
    ov *= ovy
    np.take(weight, grp, out=ga, mode="clip")
    ov *= ga
    # flat map index: col * ny + row (in place over col)
    col *= grid.ny
    col += row
    return FlatOverlapPlan(flat_index=col, coefficient=ov,
                           starts=starts, num_cells=n)


def scatter_plan(plan: FlatOverlapPlan, out: np.ndarray) -> None:
    """Accumulate the plan's contributions into the bin map ``out``."""
    np.add.at(out.reshape(-1), plan.flat_index, plan.coefficient)


def gather_plan(plan: FlatOverlapPlan, field: np.ndarray,
                ws: Workspace, name: str = "dm.force") -> np.ndarray:
    """Per-cell overlap-weighted sum of a bin field, reusing the plan.

    The plan already holds the overlap coefficients, so a gather is a
    flat ``take`` + one segment reduction — overlaps are not recomputed
    per axis as in the other strategies.
    """
    dtype = plan.coefficient.dtype
    total = plan.flat_index.shape[0]
    if field.dtype != dtype:
        cast = ws.acquire(name + ".cast", field.shape, dtype)
        np.copyto(cast, field)
        field = cast
    val = ws.acquire_flat(name + ".val", total, dtype)
    np.take(field.reshape(-1), plan.flat_index, out=val, mode="clip")
    val *= plan.coefficient
    out = ws.acquire(name, plan.num_cells, dtype)
    np.add.reduceat(val, plan.starts[:-1], out=out)
    return out


def _gather_naive_subset(grid, field, xl, yl, wx, wy, weight, index, out):
    for i in index:
        cxl, cyl = xl[i], yl[i]
        cxh, cyh = cxl + wx[i], cyl + wy[i]
        ix0, ix1 = grid.span_x(cxl, cxh)
        iy0, iy1 = grid.span_y(cyl, cyh)
        cols = np.arange(ix0, ix1)
        rows = np.arange(iy0, iy1)
        ovx = _overlap_x(grid, cxl, cxh, cols)
        ovy = _overlap_y(grid, cyl, cyh, rows)
        out[i] = weight[i] * float(
            ovx @ field[ix0:ix1, iy0:iy1] @ ovy
        )


def _gather_offsets(grid, field, xl, yl, wx, wy, weight, index,
                    ix0, sx, iy0, sy, out):
    if index.size == 0:
        return
    max_sx = int(sx[index].max())
    max_sy = int(sy[index].max())
    xh = xl + wx
    yh = yl + wy
    for dx in range(max_sx):
        mask_x = sx[index] > dx
        sel_x = index[mask_x]
        if sel_x.size == 0:
            continue
        cols = ix0[sel_x] + dx
        ovx = _overlap_x(grid, xl[sel_x], xh[sel_x], cols)
        for dy in range(max_sy):
            mask_y = sy[sel_x] > dy
            sel = sel_x[mask_y]
            if sel.size == 0:
                continue
            rows_s = iy0[sel] + dy
            ovy = _overlap_y(grid, yl[sel], yh[sel], rows_s)
            # cell indices are unique within one (dx, dy) pass, so plain
            # fancy-index accumulation is race-free
            out[sel] += weight[sel] * ovx[mask_y] * ovy * \
                field[ix0[sel] + dx, rows_s]


def gather_field(grid: BinGrid, field: np.ndarray, xl, yl, wx, wy, weight,
                 strategy: str = "stamp", dtype=np.float64) -> np.ndarray:
    """Per-cell overlap-weighted sum of a bin field (force gathering).

    Returns ``f[i] = weight[i] * sum_b overlap(i, b) * field[b]``.
    """
    xl = np.asarray(xl, dtype=dtype)
    yl = np.asarray(yl, dtype=dtype)
    wx = np.asarray(wx, dtype=dtype)
    wy = np.asarray(wy, dtype=dtype)
    weight = np.asarray(weight, dtype=dtype)
    n = xl.shape[0]
    out = np.zeros(n, dtype=dtype)
    if n == 0:
        return out
    if strategy == "naive":
        _gather_naive_subset(grid, field, xl, yl, wx, wy, weight,
                             np.arange(n), out)
        return out
    if strategy == "flat":
        ws = NullWorkspace()
        plan = build_overlap_plan(grid, xl, yl, xl + wx, yl + wy, weight, ws)
        return gather_plan(plan, field, ws)

    ix0, sx, iy0, sy = cell_bin_spans(grid, xl, yl, wx, wy)
    big = (sx > _MACRO_SPAN) | (sy > _MACRO_SPAN)
    _gather_naive_subset(grid, field, xl, yl, wx, wy, weight,
                         np.flatnonzero(big), out)
    small = np.flatnonzero(~big)

    if strategy == "stamp":
        _gather_offsets(grid, field, xl, yl, wx, wy, weight, small,
                        ix0, sx, iy0, sy, out)
    elif strategy == "sorted":
        keys = sx[small] * (_MACRO_SPAN + 1) + sy[small]
        order = np.argsort(keys, kind="stable")
        sorted_cells = small[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        for chunk in np.split(sorted_cells, boundaries):
            _gather_offsets(grid, field, xl, yl, wx, wy, weight, chunk,
                            ix0, sx, iy0, sy, out)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return out
