"""Log-sum-exp (LSE) wirelength operator.

The classic smooth wirelength of Naylor et al. (reference [29] of the
paper), also provided by DREAMPlace:

``WL_e = gamma * (log sum exp(x/gamma) + log sum exp(-x/gamma))`` per
axis, stabilized by shifting with the net max/min.  Its gradient is the
softmax weighting of the pins.

The op is one kernel plugged into the pin pipeline of
:mod:`repro.ops.wa_wirelength` (hoisted pin precompute, both axes per
call, ``reduceat`` gradient scatter, workspace buffers throughout).
"""

from __future__ import annotations

import numpy as np

from repro.netlist.database import PlacementDB
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.ops.wa_wirelength import (
    _axis_total,
    _build_pin_precompute,
    _PinWirelengthFunction,
)
from repro.perf.workspace import Workspace


def _lse_kernel(p, op, ws, gamma):
    """Fused LSE forward/backward over net-sorted pin coordinates."""
    num_nets = op.seg.shape[0]
    num_pins = p.shape[0]
    seg = op.seg
    x_max = ws.acquire("lse.xmax", num_nets, p.dtype)
    x_min = ws.acquire("lse.xmin", num_nets, p.dtype)
    np.maximum.reduceat(p, seg, out=x_max)
    np.minimum.reduceat(p, seg, out=x_min)
    # a± = exp(±(p - x∓)/γ)
    a_pos = ws.acquire("lse.apos", num_pins, p.dtype)
    np.take(x_max, op.net_of_pin, out=a_pos, mode="clip")
    np.subtract(p, a_pos, out=a_pos)
    a_pos /= gamma
    np.exp(a_pos, out=a_pos)
    a_neg = ws.acquire("lse.aneg", num_pins, p.dtype)
    np.take(x_min, op.net_of_pin, out=a_neg, mode="clip")
    a_neg -= p
    a_neg /= gamma
    np.exp(a_neg, out=a_neg)
    b_pos = ws.acquire("lse.bpos", num_nets, p.dtype)
    b_neg = ws.acquire("lse.bneg", num_nets, p.dtype)
    np.add.reduceat(a_pos, seg, out=b_pos)
    np.add.reduceat(a_neg, seg, out=b_neg)
    # wl = w_eff * (γ(log b+ + log b-) + (x_max - x_min)); single-pin
    # nets contribute exactly zero before weighting, and w_eff zeroes
    # them regardless
    t = ws.acquire("lse.t", num_nets, p.dtype)
    np.log(b_pos, out=t)
    x_max -= x_min
    np.log(b_neg, out=x_min)
    t += x_min
    t *= gamma
    t += x_max
    t *= op.net_weight_eff
    total = _axis_total(t, op, p.dtype)
    # grad = pin_weight * (a+/b+ - a-/b-)
    g = ws.acquire("lse.g", num_pins, p.dtype)
    h = ws.acquire("lse.h", num_pins, p.dtype)
    np.take(b_pos, op.net_of_pin, out=g, mode="clip")
    np.divide(a_pos, g, out=g)
    np.take(b_neg, op.net_of_pin, out=h, mode="clip")
    np.divide(a_neg, h, out=h)
    g -= h
    g *= op.pin_weight
    return total, g


class LogSumExpWirelength(Module):
    """LSE wirelength module with the same interface as the WA op."""

    def __init__(self, db: PlacementDB, gamma: float = 1.0,
                 dtype=np.float64, workspace: Workspace | None = None,
                 ignore_net_degree: int = 0):
        if (np.diff(db.net2pin_start) < 1).any():
            raise ValueError("LSE wirelength requires every net to have pins")
        self.kernel = _lse_kernel
        self.gamma = float(gamma)
        self.dtype = np.dtype(dtype)
        self.num_cells = db.num_cells
        self.ignore_net_degree = int(ignore_net_degree)
        self.ws = workspace if workspace is not None else Workspace()
        _build_pin_precompute(self, db)

    def forward(self, pos: Tensor) -> Tensor:
        return _PinWirelengthFunction.apply(pos, op=self)
