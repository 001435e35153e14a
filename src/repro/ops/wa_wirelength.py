"""Weighted-average (WA) wirelength operator (Section III-A).

Implements eq. (3) with the max/min-stabilized exponents and the exact
gradient eq. (6).  Three implementation strategies reproduce the paper's
kernel study (Fig. 10):

``net_by_net``
    One unit of work per net, looping in Python — the analog of net-level
    parallelization where |E| threads each walk their own net.
``atomic``
    Algorithm 1: pin-level multi-pass computation with scatter
    ("atomic") updates into per-net intermediate arrays x±, a±, b±, c±
    held in "global memory", followed by a separate backward kernel.
``merged``
    Algorithm 2: forward and backward merged into a single pass over
    net-sorted pins with segment reductions and no stored per-pass
    intermediates beyond the final cost and gradient.

Every strategy runs one dataflow, used by eager execution and tape
replay alike.  Both axes go through a single kernel call: the x and y
pin problems are laid out back to back (``2P`` pins, ``2E`` net
segments), so every segment reduction, scatter and gather processes
the same elements in the same order as two per-axis calls would, in
half the numpy dispatches.  Every temporary lives in a
:class:`~repro.perf.workspace.Workspace` buffer written via ``out=``
arguments and in-place ufuncs — allocation-free in steady state on the
default pool, freshly allocated on a
:class:`~repro.perf.workspace.NullWorkspace` — iteration-invariant
quantities (the multi-pin-net mask, the effective per-net and per-pin
weights, the cell-grouped pin ordering that replaces ``bincount``) are
hoisted into module precompute, and the backward pass reuses the
gradient computed in the forward.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.netlist.database import PlacementDB
from repro.nn.function import Function
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs.trace import trace_span
from repro.perf.workspace import Workspace

STRATEGIES = ("net_by_net", "atomic", "merged")


# ---------------------------------------------------------------------------
# kernels: all take the both-axis net-sorted pin coordinates and return
# (total wl, per-sorted-pin gradient).  Every temporary is a named
# workspace buffer written with out=/in-place ufuncs.
# ---------------------------------------------------------------------------
def _axis_total(t, op, dtype):
    """Total WL from the per-net array, one partial sum per axis.

    The per-net array holds the x nets followed by the y nets; summing
    each half separately and adding keeps the reduction order — and
    therefore every rounding — that of two independent per-axis kernel
    calls.
    """
    total = dtype.type(0.0)
    total += dtype.type(t[:op.axis_split].sum())
    total += dtype.type(t[op.axis_split:].sum())
    return total


def _wa_finish(p, op, ws, a_pos, a_neg, pa,
               x_max, x_min, b_pos, b_neg, c_pos, c_neg, gamma):
    """Shared WL reduction + eq. (6) gradient over net intermediates.

    Consumes ``x_max``/``x_min`` as scratch; returns (total, grad) with
    the gradient in the persistent ``wa.g`` buffer.
    """
    num_pins = p.shape[0]
    # wl = w_eff * (c+/b+ - c-/b-); single-pin nets have b = 1, and
    # w_eff already zeroes them, so the division is safe
    np.divide(c_pos, b_pos, out=x_max)
    np.divide(c_neg, b_neg, out=x_min)
    x_max -= x_min
    x_max *= op.net_weight_eff
    total = _axis_total(x_max, op, p.dtype)
    # gradient: g+ = ((1 + p/γ)·b+ - c+/γ) / b+² read per pin
    t1 = ws.acquire("wa.t1", num_pins, p.dtype)
    t2 = ws.acquire("wa.t2", num_pins, p.dtype)
    g = ws.acquire("wa.g", num_pins, p.dtype)
    np.take(b_pos, op.net_of_pin, out=t1, mode="clip")
    np.take(c_pos, op.net_of_pin, out=t2, mode="clip")
    np.multiply(p, t1, out=g)
    g -= t2
    g /= gamma
    g += t1
    np.multiply(t1, t1, out=t1)
    g /= t1
    g *= a_pos
    # g- = ((1 - p/γ)·b- + c-/γ) / b-², folded as b- - (p·b- - c-)/γ
    np.take(b_neg, op.net_of_pin, out=t1, mode="clip")
    np.take(c_neg, op.net_of_pin, out=t2, mode="clip")
    h = pa
    np.multiply(p, t1, out=h)
    h -= t2
    h /= gamma
    np.subtract(t1, h, out=h)
    np.multiply(t1, t1, out=t1)
    h /= t1
    h *= a_neg
    g -= h
    g *= op.pin_weight
    return total, g


def _wa_exponents(p, op, ws, x_max, x_min, gamma):
    """a± = exp(±(p - x∓)/γ) into persistent buffers."""
    num_pins = p.shape[0]
    a_pos = ws.acquire("wa.apos", num_pins, p.dtype)
    np.take(x_max, op.net_of_pin, out=a_pos, mode="clip")
    np.subtract(p, a_pos, out=a_pos)
    a_pos /= gamma
    np.exp(a_pos, out=a_pos)
    a_neg = ws.acquire("wa.aneg", num_pins, p.dtype)
    np.take(x_min, op.net_of_pin, out=a_neg, mode="clip")
    a_neg -= p
    a_neg /= gamma
    np.exp(a_neg, out=a_neg)
    return a_pos, a_neg


def _wa_merged(p, op, ws, gamma):
    """Algorithm 2: single fused pass, reduceat for every segment op."""
    num_nets = op.seg.shape[0]
    num_pins = p.shape[0]
    seg = op.seg
    x_max = ws.acquire("wa.xmax", num_nets, p.dtype)
    x_min = ws.acquire("wa.xmin", num_nets, p.dtype)
    np.maximum.reduceat(p, seg, out=x_max)
    np.minimum.reduceat(p, seg, out=x_min)
    a_pos, a_neg = _wa_exponents(p, op, ws, x_max, x_min, gamma)
    pa = ws.acquire("wa.pa", num_pins, p.dtype)
    b_pos = ws.acquire("wa.bpos", num_nets, p.dtype)
    b_neg = ws.acquire("wa.bneg", num_nets, p.dtype)
    c_pos = ws.acquire("wa.cpos", num_nets, p.dtype)
    c_neg = ws.acquire("wa.cneg", num_nets, p.dtype)
    np.add.reduceat(a_pos, seg, out=b_pos)
    np.add.reduceat(a_neg, seg, out=b_neg)
    np.multiply(p, a_pos, out=pa)
    np.add.reduceat(pa, seg, out=c_pos)
    np.multiply(p, a_neg, out=pa)
    np.add.reduceat(pa, seg, out=c_neg)
    return _wa_finish(p, op, ws, a_pos, a_neg, pa,
                      x_max, x_min, b_pos, b_neg, c_pos, c_neg, gamma)


def _wa_atomic(p, op, ws, gamma):
    """Algorithm 1: multi-pass pin-level ufunc.at scatters into net arrays."""
    num_nets = op.seg.shape[0]
    num_pins = p.shape[0]
    x_max = ws.acquire("wa.xmax", num_nets, p.dtype)
    x_min = ws.acquire("wa.xmin", num_nets, p.dtype)
    x_max.fill(-np.inf)
    x_min.fill(np.inf)
    np.maximum.at(x_max, op.net_of_pin, p)
    np.minimum.at(x_min, op.net_of_pin, p)
    a_pos, a_neg = _wa_exponents(p, op, ws, x_max, x_min, gamma)
    pa = ws.acquire("wa.pa", num_pins, p.dtype)
    b_pos = ws.zeros("wa.bpos", num_nets, p.dtype)
    b_neg = ws.zeros("wa.bneg", num_nets, p.dtype)
    c_pos = ws.zeros("wa.cpos", num_nets, p.dtype)
    c_neg = ws.zeros("wa.cneg", num_nets, p.dtype)
    np.add.at(b_pos, op.net_of_pin, a_pos)
    np.add.at(b_neg, op.net_of_pin, a_neg)
    np.multiply(p, a_pos, out=pa)
    np.add.at(c_pos, op.net_of_pin, pa)
    np.multiply(p, a_neg, out=pa)
    np.add.at(c_neg, op.net_of_pin, pa)
    return _wa_finish(p, op, ws, a_pos, a_neg, pa,
                      x_max, x_min, b_pos, b_neg, c_pos, c_neg, gamma)


def _wa_net_by_net(p, op, ws, gamma):
    """Reference per-net loop (the slow 'one thread per net' scheme).

    The oracle ``atomic`` and ``merged`` are tested against.
    """
    starts = op.starts
    grad = ws.zeros("wa.g", p.shape[0], p.dtype)
    scratch = ws.acquire("wa.scratch", (3, op.max_degree), p.dtype)
    # one running total per axis, added at the end (see _axis_total)
    totals = [p.dtype.type(0.0), p.dtype.type(0.0)]
    weight = op.net_weight
    for e in range(starts.shape[0] - 1):
        lo, hi = starts[e], starts[e + 1]
        d = hi - lo
        if d < 2:
            continue
        xs = p[lo:hi]
        a_pos = scratch[0, :d]
        a_neg = scratch[1, :d]
        t = scratch[2, :d]
        np.subtract(xs, xs.max(), out=a_pos)
        a_pos /= gamma
        np.exp(a_pos, out=a_pos)
        np.subtract(xs.min(), xs, out=a_neg)
        a_neg /= gamma
        np.exp(a_neg, out=a_neg)
        b_pos = a_pos.sum()
        b_neg = a_neg.sum()
        c_pos = np.dot(xs, a_pos)
        c_neg = np.dot(xs, a_neg)
        w = weight[e]
        totals[e >= op.axis_split] += w * (c_pos / b_pos - c_neg / b_neg)
        # g+·a+ into t, then subtract g-·a- and scale by the net weight
        np.multiply(xs, b_pos / gamma, out=t)
        t += b_pos - c_pos / gamma
        t /= b_pos * b_pos
        t *= a_pos
        out = grad[lo:hi]
        np.multiply(xs, -b_neg / gamma, out=out)
        out += b_neg + c_neg / gamma
        out /= b_neg * b_neg
        out *= a_neg
        np.subtract(t, out, out=out)
        out *= w
    return totals[0] + totals[1], grad


_KERNELS: dict[str, Callable] = {
    "net_by_net": _wa_net_by_net,
    "atomic": _wa_atomic,
    "merged": _wa_merged,
}


class _PinWirelengthFunction(Function):
    """Autograd node: pos (2*N,) -> scalar smooth wirelength.

    The pin pipeline of the WA and LSE ops, both axes in one pass: the
    forward gathers pin coordinates into workspace buffers, runs
    ``op.kernel``, and scatters the per-pin gradient to cells with the
    precomputed cell-grouped ``reduceat`` plan (the allocation-free
    replacement for ``bincount``); the backward scales that gradient.
    ``N`` may exceed ``db.num_cells`` when filler cells are appended to
    the position vector; fillers carry no pins and get zero gradient.
    """

    capture_safe = True

    def forward(self, pos: np.ndarray, *, op):
        with trace_span("wl.forward"):
            ws = op.ws
            pos = pos.astype(op.dtype, copy=False)
            n = pos.shape[0] // 2
            num_pins = op.pin_cell_sorted.shape[0]
            grad = ws.zeros("wl.grad", 2 * n, op.dtype)
            self.save_for_backward(op, grad)
            if num_pins == 0:
                return np.zeros((), dtype=op.dtype)
            p = ws.acquire("wl.p", 2 * num_pins, op.dtype)
            np.take(pos[:n], op.pin_cell_sorted, out=p[:num_pins],
                    mode="clip")
            np.take(pos[n:], op.pin_cell_sorted, out=p[num_pins:],
                    mode="clip")
            p += op.pin_offsets
            total, g = op.kernel(p, op, ws, op.dtype.type(op.gamma))
            gs = ws.acquire("wl.gsort", 2 * num_pins, op.dtype)
            np.take(g, op.cell_order, out=gs, mode="clip")
            cells = op.cells_with_pins
            cell_grad = ws.acquire("wl.cellgrad", 2 * cells.shape[0],
                                   op.dtype)
            np.add.reduceat(gs, op.cell_seg, out=cell_grad)
            # fixed cells are read live so a caller may re-mask the op
            for half, cg in ((grad[:n], cell_grad[:cells.shape[0]]),
                             (grad[n:], cell_grad[cells.shape[0]:])):
                half[cells] = cg
                half[op.fixed_idx] = 0.0
            return np.asarray(total, dtype=op.dtype)

    def backward(self, grad_output):
        with trace_span("wl.backward"):
            op, grad = self.saved_values
            out = op.ws.acquire("wl.gout", grad.shape[0], grad.dtype)
            np.multiply(grad, np.asarray(grad_output), out=out)
            return (out,)


def _both_axes(per_axis: np.ndarray, shift: int = 0) -> np.ndarray:
    """``per_axis`` followed by its copy for the y problem (+ ``shift``)."""
    return np.concatenate([per_axis, per_axis + shift])


def _build_pin_precompute(op, db: PlacementDB) -> None:
    """Hoist iteration-invariant pin/net data onto a wirelength module.

    Shared by the WA and LSE ops: net-sorted pin maps, the multi-pin
    mask folded into the net/pin weights, and the cell-grouped pin
    ordering whose segment reduction replaces ``bincount`` in the
    gradient scatter.  Every pin- or net-indexed array holds the x
    problem followed by the y problem (index arrays shifted by the
    per-axis length), so concatenated ``reduceat``/``ufunc.at`` calls
    are bit-identical to two per-axis ones.
    """
    order = db.net2pin
    starts = db.net2pin_start
    num_pins = order.shape[0]
    num_nets = db.num_nets
    op.pin_cell_sorted = db.pin_cell[order]
    op.pin_offsets = np.concatenate(
        [db.pin_offset_x[order], db.pin_offset_y[order]]).astype(op.dtype)
    op.axis_split = int(num_nets)
    op.starts = np.concatenate([starts[:-1], num_pins + starts])
    op.seg = op.starts[:-1]
    net_weight = db.net_weight.astype(op.dtype)
    # high-fanout filter (DREAMPlace's ignore_net_degree): zeroing the
    # weight here removes the net from the smooth-wirelength *gradient*
    # while reported HPWL (db.hpwl) keeps its own unmasked weights
    limit = int(getattr(op, "ignore_net_degree", 0) or 0)
    if limit > 0:
        net_weight = np.where(
            db.net_degree <= limit, net_weight, 0.0
        ).astype(op.dtype)
    net_of_pin = np.repeat(
        np.arange(num_nets, dtype=np.int64), db.net_degree
    )
    op.net_of_pin = _both_axes(net_of_pin, num_nets)
    op.fixed_idx = np.flatnonzero(~db.movable)
    # iteration-invariant masks (hoisted out of the per-call kernels)
    multi = np.diff(starts) >= 2
    net_weight_eff = np.where(multi, net_weight, 0.0).astype(op.dtype)
    op.net_weight = _both_axes(net_weight)
    op.net_weight_eff = _both_axes(net_weight_eff)
    op.pin_weight = _both_axes(net_weight_eff[net_of_pin])
    op.max_degree = int(db.net_degree.max()) if num_nets else 0
    # cell-grouped pin plan: pins sorted by cell, segment starts per
    # cell that has pins
    cell_order = np.argsort(op.pin_cell_sorted, kind="stable")
    cells_sorted = op.pin_cell_sorted[cell_order]
    first = np.ones(cells_sorted.shape[0], dtype=bool)
    first[1:] = cells_sorted[1:] != cells_sorted[:-1]
    cell_seg = np.flatnonzero(first)
    op.cell_order = _both_axes(cell_order, num_pins)
    op.cell_seg = _both_axes(cell_seg, num_pins)
    op.cells_with_pins = cells_sorted[cell_seg]


class WeightedAverageWirelength(Module):
    """WA wirelength as a differentiable module over cell positions.

    Parameters
    ----------
    db:
        The placement database providing the netlist connectivity.
    gamma:
        Smoothness parameter of eq. (3); mutable between iterations (the
        global placer anneals it as overflow decreases).
    strategy:
        One of :data:`STRATEGIES`.
    dtype:
        ``numpy.float32`` or ``numpy.float64`` (the paper's precisions).
    workspace:
        Optional externally owned :class:`Workspace` (to share pools
        across ops); defaults to a private one.
    ignore_net_degree:
        Mask nets with more pins than this out of the gradient
        (0 = keep every net, the default).
    """

    def __init__(self, db: PlacementDB, gamma: float = 1.0,
                 strategy: str = "merged", dtype=np.float64,
                 workspace: Workspace | None = None,
                 ignore_net_degree: int = 0):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if (np.diff(db.net2pin_start) < 1).any():
            raise ValueError("WA wirelength requires every net to have pins")
        self.strategy = strategy
        self.kernel = _KERNELS[strategy]
        self.gamma = float(gamma)
        self.dtype = np.dtype(dtype)
        self.num_cells = db.num_cells
        self.ignore_net_degree = int(ignore_net_degree)
        self.ws = workspace if workspace is not None else Workspace()
        _build_pin_precompute(self, db)

    def forward(self, pos: Tensor) -> Tensor:
        return _PinWirelengthFunction.apply(pos, op=self)
