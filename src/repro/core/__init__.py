"""Core placement engine: the DREAMPlace flow (Fig. 2(b)).

Random-center initial placement -> kernel global-placement iterations
(wirelength + density forward/backward, gradient-descent optimizer,
density-weight and gamma annealing) -> legalization -> detailed
placement, with an optional routability-driven cell-inflation loop.
"""

from repro.core.params import DEFAULT_SEED, PlacementParams
from repro.core.placer import DreamPlacer, PlacementResult, StageTimes
from repro.core.global_place import GlobalPlacer, GlobalPlaceResult
from repro.core.multilevel import build_levels, multilevel_place
from repro.core.convergence import (
    ConvergenceMonitor,
    GpLoopState,
    IterationStatus,
    PlacerSnapshot,
)
from repro.core.metrics import (
    placement_result_metrics,
    placement_summary,
    placement_summary_metrics,
    scaled_hpwl,
)
from repro.core.fence import (
    FenceRegion,
    MultiRegionDensity,
    fence_clamp_bounds,
    fence_of_cell,
)

__all__ = [
    "DEFAULT_SEED",
    "PlacementParams",
    "placement_result_metrics",
    "placement_summary_metrics",
    "DreamPlacer",
    "PlacementResult",
    "StageTimes",
    "GlobalPlacer",
    "GlobalPlaceResult",
    "build_levels",
    "multilevel_place",
    "ConvergenceMonitor",
    "GpLoopState",
    "IterationStatus",
    "PlacerSnapshot",
    "placement_summary",
    "scaled_hpwl",
    "FenceRegion",
    "MultiRegionDensity",
    "fence_clamp_bounds",
    "fence_of_cell",
]
