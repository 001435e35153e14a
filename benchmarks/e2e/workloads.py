"""The five workloads: what each generates, and why it is in the ledger.

Importing this module imports nothing from ``repro``; the builders do,
so the parent process of ``run.py`` stays light and the workload
process pays (and reports) the import time as part of ``setup_s``.

The ``--seed`` of a run changes only the generated design (and, for
``flow_fenced``, which cells the fences hold).  ``PlacementParams.seed``
keeps its default everywhere except ``batch_pool``, whose jobs differ
in nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: design (and Bookshelf file) name: equal names + equal spec give
    #: byte-identical input files (``gp_flat`` / ``gp_cascade``)
    design: str
    cells: int
    smoke_cells: int
    seed_offset: int = 0
    #: extra ``CircuitSpec`` fields
    spec: dict = field(default_factory=dict)
    #: ``PlacementParams`` overrides
    params: dict = field(default_factory=dict)
    fenced: bool = False
    #: > 0: the design is placed ``jobs`` times through ``repro.runner``
    jobs: int = 0
    smoke_jobs: int = 0
    #: an unfenced GP that exits above this overflow is a failed run
    overflow_limit: float | None = None


_MACROS = {"macro_area_fraction": 0.04, "num_macros": 4}

WORKLOADS = (
    Workload(
        name="flow_flat",
        why="8000 cells + 4 macros, float32, file->GP->LG->DP->file: the "
            "run a user makes; DP is ~80% of it, so batched DP shows here "
            "and a GP-kernel change barely does.",
        design="flat8k", cells=8000, smoke_cells=800, spec=_MACROS,
        params={"dtype": "float32"}, overflow_limit=0.105,
    ),
    Workload(
        name="gp_flat",
        why="20000 cells, float32, GP only: ops/nn/core do all the work "
            "at a size where kernels outweigh Python overhead; lg/dp do "
            "none, so a DP change must leave it flat.",
        design="gp20k", cells=20000, smoke_cells=1000, spec=_MACROS,
        params={"dtype": "float32", "legalize": False, "detailed": False},
        overflow_limit=0.105,
    ),
    Workload(
        name="gp_cascade",
        why="gp_flat's byte-identical input with multilevel_levels=3: "
            "coarsening, three grid sizes, prolongation, warm restarts and "
            "tape recapture; hpwl_final against gp_flat is its quality cost.",
        design="gp20k", cells=20000, smoke_cells=1000, spec=_MACROS,
        params={"dtype": "float32", "legalize": False, "detailed": False,
                "multilevel_levels": 3},
        overflow_limit=0.105,
    ),
    Workload(
        name="flow_fenced",
        why="3000 cells, two full-height fences at 0.70 fill, float64, GP "
            "fixed at 300 iterations, full flow: the fence paths of "
            "density, LG and DP, and the other dtype.",
        design="fenced3k", cells=3000, smoke_cells=600, seed_offset=1,
        params={"dtype": "float64", "max_global_iters": 300}, fenced=True,
    ),
    Workload(
        name="batch_pool",
        why="one 600-cell design, six jobs differing in placement seed, "
            "Scheduler(workers=2): round 1 cold, round 2 all cache hits; "
            "spawn, reload, hashing and persistence outweigh placement.",
        design="batch600", cells=600, smoke_cells=300, seed_offset=2,
        params={"dtype": "float32"}, jobs=6, smoke_jobs=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: fences cover this share of the die width on each side ...
FENCE_WIDTH_SHARE = 0.30
#: ... and hold movable cells up to this share of their own area
FENCE_FILL = 0.70


def circuit_spec(workload: Workload, seed: int, smoke: bool):
    from repro.benchgen import CircuitSpec

    return CircuitSpec(
        name=workload.design,
        num_cells=workload.smoke_cells if smoke else workload.cells,
        seed=seed + workload.seed_offset,
        **workload.spec,
    )


def placement_params(workload: Workload, **overrides):
    from repro.core import PlacementParams

    return PlacementParams(**{**workload.params, **overrides})


def fence_regions(db, seed: int) -> list:
    """Two full-height fences on the left and right of the die.

    Each spans ``FENCE_WIDTH_SHARE`` of the die width, snapped down to
    the site grid, and takes movable cells in the order of one seeded
    permutation until the next cell would pass ``FENCE_FILL`` of the
    fence's area.
    """
    import numpy as np

    from repro.core import FenceRegion

    region = db.region
    site = region.site_width
    band = np.floor(FENCE_WIDTH_SHARE * region.width / site) * site
    capacity = FENCE_FILL * band * region.height
    order = np.random.default_rng(seed).permutation(db.movable_index)
    area = db.cell_area[order]

    fences = []
    taken = 0
    for name, xl in (("left", region.xl), ("right", region.xh - band)):
        count = int(np.searchsorted(np.cumsum(area[taken:]), capacity))
        fences.append(FenceRegion(
            name, float(xl), region.yl, float(xl + band), region.yh,
            cells=[int(c) for c in order[taken:taken + count]],
        ))
        taken += count
    return fences
