"""Fig. 6 — work partitioning in the density scatter/gather kernels.

The paper sweeps how many GPU threads update one cell (1x1 .. 4x4) in
the density map kernel on bigblue4, with float32 and float64.  The CPU
analog is the work-partitioning strategy: ``naive`` (one unit of work
per cell, load-imbalanced), ``sorted`` (area-grouped batches = warp
balancing) and ``stamp`` (offset-parallel = multiple threads per cell);
``flat`` (this repo's production overlap-plan kernel, not a paper row)
is timed alongside.  Numbers are normalized to ``naive`` float64, like
the figure.
"""

import time

import numpy as np
import pytest

from _support import get_design, print_header, print_row, record
from repro.geometry import BinGrid
from repro.ops.density_map import STRATEGIES, gather_field, scatter_density

_TIMINGS: dict[tuple[str, str], float] = {}


def _density_workload(dtype):
    db = get_design("bigblue4")
    movable = db.movable_index
    grid = BinGrid(db.region, 128, 128)
    xl = db.cell_x[movable].astype(dtype)
    yl = db.cell_y[movable].astype(dtype)
    w = db.cell_width[movable].astype(dtype)
    h = db.cell_height[movable].astype(dtype)
    weight = np.ones(movable.shape[0], dtype=dtype)
    field = np.asarray(
        np.random.default_rng(0).normal(size=grid.shape), dtype=dtype
    )
    return grid, xl, yl, w, h, weight, field


@pytest.mark.parametrize("dtype_name", ["float64", "float32"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fig6_strategy(benchmark, strategy, dtype_name):
    dtype = np.dtype(dtype_name)
    grid, xl, yl, w, h, weight, field = _density_workload(dtype)

    def forward_backward():
        rho = scatter_density(grid, xl, yl, w, h, weight,
                              strategy=strategy, dtype=dtype)
        fx = gather_field(grid, field, xl, yl, w, h, weight,
                          strategy=strategy, dtype=dtype)
        return rho, fx

    start = time.perf_counter()
    benchmark.pedantic(forward_backward, rounds=3, iterations=1,
                       warmup_rounds=1)
    _TIMINGS[(strategy, dtype_name)] = benchmark.stats["mean"]
    record("fig6_density_scatter", {
        "strategy": strategy, "dtype": dtype_name,
        "mean_seconds": benchmark.stats["mean"],
    })


def test_fig6_summary(benchmark):
    if (("naive", "float64")) not in _TIMINGS:
        pytest.skip("strategy timings did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = _TIMINGS[("naive", "float64")]
    print_header(
        "Fig. 6 analog: density scatter+gather work partitioning "
        "(bigblue4), normalized to naive/float64",
        ["strategy", "dtype", "normalized"],
    )
    for (strategy, dtype_name), seconds in sorted(_TIMINGS.items()):
        print_row([strategy, dtype_name, seconds / base])
    # shape: partitioned strategies beat the per-cell loop
    for dtype_name in ("float64", "float32"):
        key = ("stamp", dtype_name)
        if key in _TIMINGS:
            assert _TIMINGS[key] < _TIMINGS[("naive", dtype_name)]
