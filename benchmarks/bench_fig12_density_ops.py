"""Fig. 12 — full density operator forward+backward comparison.

Times the complete density pipeline (scatter -> Poisson solve ->
gather) per design: the DAC-version analog (naive scatter + row-column
2N-point DCT) against the TCAD-version analog (offset-parallel scatter
+ fast transforms), plus a reference-kernel "single thread" analog and
this repo's production configuration (the ``flat`` overlap-plan kernel
shared between scatter and gathers; not a paper row).
Paper shape: TCAD version 1.5-2.1x over DAC version on GPU; 3.1x from
1 to 40 threads on CPU.
"""

import numpy as np
import pytest

from _support import get_design, print_header, print_row, record, suite_names
from repro.geometry import BinGrid
from repro.nn import Parameter
from repro.ops.density_op import ElectricDensity

_DESIGNS = suite_names("ispd2005")[:4]

_CONFIGS = {
    "dac-version": dict(strategy="naive", dct_impl="2n"),
    "tcad-sorted": dict(strategy="sorted", dct_impl="n"),
    "tcad-stamp": dict(strategy="stamp", dct_impl="2d"),
    "production-flat": dict(strategy="flat", dct_impl="2d"),
}
_TIMINGS: dict[tuple[str, str], float] = {}


@pytest.mark.parametrize("design", _DESIGNS)
@pytest.mark.parametrize("config", list(_CONFIGS))
def test_fig12_density_op(benchmark, design, config):
    db = get_design(design)
    grid = BinGrid(db.region, 128, 128)
    op = ElectricDensity(db, grid, dtype=np.float32, **_CONFIGS[config])
    pos = Parameter(
        np.concatenate([db.cell_x, db.cell_y]).astype(np.float32)
    )

    def forward_backward():
        pos.zero_grad()
        op(pos).backward()

    benchmark.pedantic(forward_backward, rounds=3, iterations=1,
                       warmup_rounds=1)
    _TIMINGS[(design, config)] = benchmark.stats["mean"]
    record("fig12_density_ops", {
        "design": design, "config": config,
        "mean_seconds": benchmark.stats["mean"],
    })


def test_fig12_summary(benchmark):
    designs = {d for d, _ in _TIMINGS}
    if not designs:
        pytest.skip("timings missing")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_header(
        "Fig. 12 analog: density fwd+bwd, float32 (seconds)",
        ["design"] + list(_CONFIGS) + ["tcad speedup"],
    )
    speedups = []
    for design in sorted(designs):
        row = [_TIMINGS[(design, c)] for c in _CONFIGS]
        speedup = (_TIMINGS[(design, "dac-version")]
                   / _TIMINGS[(design, "tcad-stamp")])
        speedups.append(speedup)
        print_row([design] + row + [speedup])
    mean = sum(speedups) / len(speedups)
    print(f"-- TCAD-analog over DAC-analog: {mean:.1f}x "
          "(paper GPU: 1.5-2.1x)")
    record("fig12_density_ops", {
        "design": "__summary__", "tcad_speedup": mean,
    })
    for design in designs:
        assert _TIMINGS[(design, "tcad-stamp")] < \
            _TIMINGS[(design, "dac-version")]
