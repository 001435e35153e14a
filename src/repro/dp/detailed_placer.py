"""Detailed placement orchestrator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dp.global_swap import global_swap
from repro.dp.incremental import IncrementalHpwl
from repro.dp.independent_set import independent_set_matching
from repro.dp.local_reorder import local_reorder
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


@dataclass
class DetailedPlaceStats:
    """Per-pass acceptance counts and HPWL trajectory."""

    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    swaps: list[int] = field(default_factory=list)
    reorders: list[int] = field(default_factory=list)
    matchings: list[int] = field(default_factory=list)


class DetailedPlacer:
    """Iterates global-swap -> local-reorder -> independent-set passes.

    With ``fences`` every pass is fence-constrained: swap partners,
    reorder windows and matching classes never mix cells of different
    fence memberships, so a fence-legal input stays fence-legal.
    """

    def __init__(self, db: PlacementDB, passes: int = 2,
                 reorder_window: int = 3, group_size: int = 12,
                 fences=None):
        self.db = db
        self.passes = int(passes)
        self.reorder_window = int(reorder_window)
        self.group_size = int(group_size)
        self.fences = fences
        self.fence_id: np.ndarray | None = None
        if fences:
            from repro.core.fence import fence_of_cell

            self.fence_id = fence_of_cell(db, fences)

    def run(self, x: np.ndarray, y: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, DetailedPlaceStats]:
        state = IncrementalHpwl(self.db, x, y)
        stats = DetailedPlaceStats(hpwl_before=state.total_hpwl())
        for _ in range(self.passes):
            with trace_span("dp.global_swap"):
                stats.swaps.append(
                    global_swap(self.db, state, fence_id=self.fence_id)
                )
            with trace_span("dp.local_reorder"):
                stats.reorders.append(local_reorder(
                    self.db, state, self.reorder_window,
                    fence_id=self.fence_id,
                ))
            with trace_span("dp.independent_set"):
                stats.matchings.append(independent_set_matching(
                    self.db, state, self.group_size,
                    fence_id=self.fence_id,
                ))
            if stats.swaps[-1] + stats.reorders[-1] + stats.matchings[-1] == 0:
                break
        stats.hpwl_after = state.total_hpwl()
        return state.x, state.y, stats


def detailed_place(db: PlacementDB, x: np.ndarray, y: np.ndarray,
                   passes: int = 2, fences=None):
    """Convenience wrapper; returns ``(x, y, stats)``."""
    return DetailedPlacer(db, passes=passes, fences=fences).run(x, y)
