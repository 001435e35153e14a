"""Convergence monitoring and divergence recovery (TCAD hardening).

The kernel GP loop of eq. (2) can diverge: the density weight lambda can
outrun the wirelength term and Nesterov's momentum amplifies the blow-up,
while a single non-finite gradient poisons every subsequent iterate.  The
TCAD extension of DREAMPlace (and DG-RePlAce) treat divergence detection
and recovery as first-class parts of a production placer; this module
provides the building blocks:

- :class:`ConvergenceMonitor` classifies every iteration as improving /
  plateau / diverging / non-finite from rolling HPWL and overflow
  statistics plus NaN/Inf scans of the loss, gradient and positions.
- :class:`PlacerSnapshot` is an exact checkpoint of the loop state
  (positions, optimizer internals, density weight, gamma), captured at
  the best iterate seen so far and restored on rollback so the loop
  never hands back a worse answer than it computed.
- :class:`GpLoopState` is everything one ``GlobalPlacer.place()`` call
  mutates — the snapshots, the monitor, the traces and the live
  optimizer — with the ``state_dict()`` that checkpoint files hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


class IterationStatus(Enum):
    """Classification of one GP iteration (TCAD-style robustness)."""

    #: overflow (or feasible-region wirelength) made progress
    IMPROVING = "improving"
    #: no meaningful progress, but the iterate is sane
    PLATEAU = "plateau"
    #: HPWL blew past ``divergence_ratio`` times its running best
    DIVERGING = "diverging"
    #: NaN/Inf detected in loss, gradient, metrics or positions
    NON_FINITE = "non_finite"


def _finite(value: Optional[float]) -> bool:
    return value is None or math.isfinite(value)


def _array_finite(array: Optional[np.ndarray]) -> bool:
    if array is None:
        return True
    return bool(np.isfinite(np.min(array)) and np.isfinite(np.max(array)))


@dataclass
class PlacerSnapshot:
    """Exact checkpoint of the GP loop at one iterate.

    ``pos`` is always present; the optimizer / density-weight / scheduler
    state dicts are optional so lightweight position-only snapshots (the
    best-wirelength fallback) stay cheap.
    """

    iteration: int
    hpwl: float
    overflow: float
    pos: np.ndarray
    optimizer_state: Optional[dict] = None
    weight_state: Optional[dict] = None
    scheduler_state: Optional[dict] = None
    gamma: float = math.nan


def snapshot_state_dict(snap: PlacerSnapshot) -> dict:
    """Serializable copy of a :class:`PlacerSnapshot` (checkpoint files)."""
    return {**vars(snap), "pos": snap.pos.copy()}


def snapshot_from_state(state: dict) -> PlacerSnapshot:
    """Rebuild a :class:`PlacerSnapshot` from :func:`snapshot_state_dict`."""
    return PlacerSnapshot(**{**state, "pos": state["pos"].copy()})


@dataclass
class ConvergenceMonitor:
    """Rolling-statistics classifier for the GP loop.

    ``observe`` ingests one iteration's metrics and returns an
    :class:`IterationStatus`; the ``progress_improved`` /
    ``wirelength_improved`` flags tell the caller when the current
    iterate is worth checkpointing.  The monitor is reusable across
    warm-started rounds (the routability inflation loop): call
    :meth:`new_round` between rounds to reset the per-round references
    while keeping the cross-round divergence statistics.
    """

    divergence_ratio: float = 8.0
    plateau_patience: int = 150
    overflow_tol: float = 1e-3
    #: convergence target: overflow at or below this value is "feasible"
    #: and further overflow reduction no longer outranks wirelength
    stop_overflow: float = 0.0

    #: running minimum HPWL over real iterations (the divergence anchor)
    best_hpwl: float = math.inf
    #: running minimum overflow (the plateau anchor)
    best_overflow: float = math.inf
    plateau_count: int = 0
    #: set by ``observe``: current iterate beats the best checkpoint key
    progress_improved: bool = field(default=False, repr=False)
    #: set by ``observe``: current iterate has the lowest HPWL seen
    wirelength_improved: bool = field(default=False, repr=False)
    _best_key_overflow: float = field(default=math.inf, repr=False)
    _best_key_hpwl: float = field(default=math.inf, repr=False)
    _best_wl_hpwl: float = field(default=math.inf, repr=False)

    @classmethod
    def from_params(cls, params, stop_overflow: Optional[float] = None
                    ) -> "ConvergenceMonitor":
        """The monitor a ``PlacementParams`` asks for."""
        return cls(
            divergence_ratio=params.divergence_ratio,
            plateau_patience=params.plateau_patience,
            overflow_tol=params.overflow_improve_tol,
            stop_overflow=(params.stop_overflow if stop_overflow is None
                           else stop_overflow),
        )

    # ------------------------------------------------------------------
    def observe(self, iteration: int, hpwl: float, overflow: float,
                loss: Optional[float] = None,
                grad: Optional[np.ndarray] = None,
                pos: Optional[np.ndarray] = None) -> IterationStatus:
        """Classify one iteration; iteration 0 seeds the references."""
        self.progress_improved = False
        self.wirelength_improved = False

        if not (math.isfinite(hpwl) and math.isfinite(overflow)
                and _finite(loss) and _array_finite(pos)
                and _array_finite(grad)):
            return IterationStatus.NON_FINITE

        # -- divergence: HPWL blew past its running best ----------------
        # the anchor excludes iteration 0 (the clustered initial state
        # sits far below any spread iterate and would false-trigger)
        if iteration > 0:
            self.best_hpwl = min(self.best_hpwl, hpwl)
        diverging = (math.isfinite(self.best_hpwl)
                     and hpwl > self.divergence_ratio * self.best_hpwl)

        # -- plateau: overflow stopped improving ------------------------
        if overflow < self.best_overflow - self.overflow_tol:
            self.best_overflow = overflow
            self.plateau_count = 0
        else:
            self.plateau_count += 1

        if diverging:
            return IterationStatus.DIVERGING

        # -- checkpoint keys (only sane iterates are checkpointable) ----
        # overflow is clamped at the stop target: all feasible iterates
        # tie on the first key and compete on wirelength
        key_overflow = max(overflow, self.stop_overflow)
        if key_overflow < self._best_key_overflow - self.overflow_tol or (
            key_overflow <= self._best_key_overflow
            and hpwl < self._best_key_hpwl
        ):
            self._best_key_overflow = min(key_overflow,
                                          self._best_key_overflow)
            self._best_key_hpwl = hpwl
            self.progress_improved = True
        if hpwl < self._best_wl_hpwl:
            self._best_wl_hpwl = hpwl
            self.wirelength_improved = True

        if self.progress_improved or self.wirelength_improved:
            return IterationStatus.IMPROVING
        return IterationStatus.PLATEAU

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of every rolling statistic, sufficient to continue
        the classification sequence exactly (the checkpoint/resume
        contract of ``repro.runner``)."""
        return {
            "divergence_ratio": self.divergence_ratio,
            "plateau_patience": self.plateau_patience,
            "overflow_tol": self.overflow_tol,
            "stop_overflow": self.stop_overflow,
            "best_hpwl": self.best_hpwl,
            "best_overflow": self.best_overflow,
            "plateau_count": self.plateau_count,
            "progress_improved": self.progress_improved,
            "wirelength_improved": self.wirelength_improved,
            "best_key_overflow": self._best_key_overflow,
            "best_key_hpwl": self._best_key_hpwl,
            "best_wl_hpwl": self._best_wl_hpwl,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.divergence_ratio = float(state["divergence_ratio"])
        self.plateau_patience = int(state["plateau_patience"])
        self.overflow_tol = float(state["overflow_tol"])
        self.stop_overflow = float(state["stop_overflow"])
        self.best_hpwl = float(state["best_hpwl"])
        self.best_overflow = float(state["best_overflow"])
        self.plateau_count = int(state["plateau_count"])
        self.progress_improved = bool(state["progress_improved"])
        self.wirelength_improved = bool(state["wirelength_improved"])
        self._best_key_overflow = float(state["best_key_overflow"])
        self._best_key_hpwl = float(state["best_key_hpwl"])
        self._best_wl_hpwl = float(state["best_wl_hpwl"])

    # ------------------------------------------------------------------
    @property
    def plateau_exceeded(self) -> bool:
        """Overflow has not improved for ``plateau_patience`` iterations."""
        return self.plateau_count >= self.plateau_patience

    def notify_rollback(self, resume_hpwl: float) -> None:
        """Re-anchor after a rollback: divergence is measured relative to
        the restored iterate, not the stale pre-blow-up minimum."""
        if math.isfinite(resume_hpwl):
            self.best_hpwl = resume_hpwl
        self.plateau_count = 0

    def new_round(self, stop_overflow: Optional[float] = None) -> None:
        """Reset per-round references for a warm-started round (the
        routability inflation loop) while keeping ``best_hpwl`` as a
        cross-round divergence anchor."""
        if stop_overflow is not None:
            self.stop_overflow = float(stop_overflow)
        self.best_overflow = math.inf
        self.plateau_count = 0
        self.progress_improved = False
        self.wirelength_improved = False
        self._best_key_overflow = math.inf
        self._best_key_hpwl = math.inf
        self._best_wl_hpwl = math.inf


@dataclass
class GpLoopState:
    """Everything one ``place()`` call mutates, in one object.

    The live parts a step advances (positions, objective, optimizer,
    LR scheduler, density weight, convergence monitor) sit next to the
    loop's own bookkeeping; :meth:`state_dict` serializes all of it
    and :meth:`load_state_dict` restores it *into* the live parts, so
    a resumed loop continues bit-exactly at ``iteration + 1``.
    """

    pos: object  # nn.Parameter holding the extended position vector
    objective: object  # PlacementObjective (owns gamma and lambda)
    optimizer: object
    scheduler: Optional[object]
    weight: object  # DensityWeight
    monitor: ConvergenceMonitor
    #: last completed iteration (0: only the initial state was seen)
    iteration: int = 0
    hpwl: float = math.nan
    overflow: float = math.nan
    hpwl_trace: list[float] = field(default_factory=list)
    overflow_trace: list[float] = field(default_factory=list)
    best_hpwl: float = math.inf
    recoveries: int = 0
    #: rollback target: best (overflow-then-wirelength) iterate
    best_snap: Optional[PlacerSnapshot] = None
    #: positions-only lowest-wirelength iterate
    best_wl_snap: Optional[PlacerSnapshot] = None

    def state_dict(self) -> dict:
        scheduler = self.scheduler
        return {
            "iteration": self.iteration,
            "hpwl": self.hpwl,
            "overflow": self.overflow,
            "pos": self.pos.data.copy(),
            "gamma": self.objective.gamma,
            "density_weight": self.objective.density_weight,
            "optimizer": self.optimizer.state_dict(),
            "scheduler": None if scheduler is None else scheduler.state_dict(),
            "weight": self.weight.state_dict(),
            "monitor": self.monitor.state_dict(),
            "best_snap": snapshot_state_dict(self.best_snap),
            "best_wl_snap": snapshot_state_dict(self.best_wl_snap),
            "hpwl_trace": list(self.hpwl_trace),
            "overflow_trace": list(self.overflow_trace),
            "best_hpwl": self.best_hpwl,
            "recoveries": self.recoveries,
        }

    def load_state_dict(self, state: dict) -> None:
        self.pos.data = np.asarray(
            state["pos"], dtype=self.pos.data.dtype
        ).copy()
        self.optimizer.load_state_dict(state["optimizer"])
        if self.scheduler is not None and state["scheduler"] is not None:
            self.scheduler.load_state_dict(state["scheduler"])
        self.weight.load_state_dict(state["weight"])
        self.monitor.load_state_dict(state["monitor"])
        self.objective.gamma = float(state["gamma"])
        self.objective.density_weight = float(state["density_weight"])
        self.iteration = int(state["iteration"])
        self.hpwl = float(state["hpwl"])
        self.overflow = float(state["overflow"])
        self.hpwl_trace = list(state["hpwl_trace"])
        self.overflow_trace = list(state["overflow_trace"])
        self.best_hpwl = float(state["best_hpwl"])
        self.recoveries = int(state["recoveries"])
        self.best_snap = snapshot_from_state(state["best_snap"])
        self.best_wl_snap = snapshot_from_state(state["best_wl_snap"])
