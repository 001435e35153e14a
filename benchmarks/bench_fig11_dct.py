"""Fig. 11 — DCT/IDCT algorithm comparison.

Times the 2N-point FFT, N-point FFT (Algorithm 3) and single 2-D FFT
(Algorithm 4) implementations of the 2-D DCT and IDCT on square maps,
float32-sized like the paper (map sizes scaled down with the designs).
Expected shape: 2-D > N-point > 2N-point.  A fourth column, ``scipy``,
times the library transform the production Poisson solve runs on:
``scipy.fft.dctn`` type 2/3 scaled to eq. (7), in float32.
"""

import numpy as np
import pytest
import scipy.fft

from _support import print_header, print_row, record
from repro.ops import dct as D

SIZES = (128, 256, 512)
_TIMINGS: dict[tuple[str, str, int], float] = {}

_DCT_IMPLS = ("2n", "n", "2d", "scipy")


def _transform(transform, impl):
    if impl == "scipy":
        # unnormalized DCT-II/III are twice eq. (7a)/(7b) per axis
        kind = 2 if transform == "dct" else 3
        return lambda x: scipy.fft.dctn(x, type=kind) * 0.25
    fn = D.dct2d if transform == "dct" else D.idct2d
    return lambda x: fn(x, impl=impl)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("impl", _DCT_IMPLS)
@pytest.mark.parametrize("transform", ["dct", "idct"])
def test_fig11_transform(benchmark, transform, impl, size):
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, size)).astype(np.float32)
    fn = _transform(transform, impl)

    benchmark.pedantic(lambda: fn(x), rounds=7, iterations=1,
                       warmup_rounds=2)
    _TIMINGS[(transform, impl, size)] = benchmark.stats["mean"]
    record("fig11_dct", {
        "transform": transform, "impl": impl, "size": size,
        "mean_seconds": benchmark.stats["mean"],
    })


def test_fig11_summary(benchmark):
    if not _TIMINGS:
        pytest.skip("transform timings missing")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for transform in ("dct", "idct"):
        print_header(
            f"Fig. 11 analog: 2-D {transform.upper()} (seconds)",
            ["size", "2n", "n", "2d", "scipy", "2d speedup"],
        )
        for size in SIZES:
            try:
                t2n, tn, t2d, tlib = (_TIMINGS[(transform, impl, size)]
                                      for impl in _DCT_IMPLS)
            except KeyError:
                continue
            print_row([size, t2n, tn, t2d, tlib, t2n / t2d])
    record("fig11_dct", {"transform": "__summary__"})
    # shape: both fast algorithms clearly beat the 2N-point baseline.
    # (On the GPU of the paper the single 2-D FFT also beats the
    # N-point row-column form because it amortizes kernel launches; on
    # a single CPU core the one-sided real N-point FFT wins instead —
    # see EXPERIMENTS.md.)
    for transform in ("dct", "idct"):
        for size in SIZES:
            key2n = (transform, "2n", size)
            if key2n not in _TIMINGS:
                continue
            for impl in ("n", "2d"):
                assert _TIMINGS[(transform, impl, size)] < _TIMINGS[key2n]
