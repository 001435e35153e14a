"""Property-based tests (hypothesis) on core kernels and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import BinGrid, PlacementRegion
from repro.netlist import CellKind, Netlist
from repro.nn import Parameter, Tensor
from repro.ops import dct as D
from repro.ops.density_map import gather_field, scatter_density
from repro.ops.hpwl import hpwl_per_net
from repro.ops.wa_wirelength import WeightedAverageWirelength

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


def arrays_1d(n_min=2, n_max=32):
    return hnp.arrays(
        np.float64,
        st.integers(min_value=n_min, max_value=n_max).map(lambda n: 2 * (n // 2)).filter(lambda n: n >= 2),
        elements=finite_floats,
    )


class TestDCTProperties:
    @given(arrays_1d())
    @settings(max_examples=40, deadline=None)
    def test_fast_dct_matches_naive(self, x):
        np.testing.assert_allclose(D.dct_n(x), D.dct_naive(x),
                                   atol=1e-7, rtol=1e-7)

    @given(arrays_1d())
    @settings(max_examples=40, deadline=None)
    def test_inversion_property(self, x):
        n = x.shape[-1]
        np.testing.assert_allclose(
            D.idct_n(D.dct_n(x)), (n / 2.0) * x, atol=1e-6, rtol=1e-6
        )

    @given(arrays_1d(), st.floats(min_value=-3.0, max_value=3.0,
                                  allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, x, alpha):
        np.testing.assert_allclose(
            D.dct_n(alpha * x), alpha * D.dct_n(x), atol=1e-6
        )

    @given(arrays_1d())
    @settings(max_examples=30, deadline=None)
    def test_idxst_identity_8e(self, x):
        """eq. (8e): idxst(x) == (-1)^k idct(x_{N-n})."""
        n = x.shape[-1]
        flipped = np.zeros_like(x)
        flipped[1:] = x[:0:-1]
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(
            D.idxst_naive(x), signs * D.idct_naive(flipped), atol=1e-7
        )


class TestHpwlProperties:
    @given(
        hnp.arrays(np.float64, st.integers(4, 40), elements=finite_floats),
        hnp.arrays(np.float64, st.integers(4, 40), elements=finite_floats),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, px, py, num_nets, rnd):
        n = min(px.shape[0], py.shape[0])
        px, py = px[:n], py[:n]
        net = np.array([rnd.randrange(num_nets) for _ in range(n)])
        base = hpwl_per_net(px, py, net, num_nets)
        shifted = hpwl_per_net(px + 7.5, py - 2.5, net, num_nets)
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @given(
        hnp.arrays(np.float64, st.integers(4, 40), elements=finite_floats),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_homogeneity(self, px, scale):
        net = np.zeros(px.shape[0], dtype=np.int64)
        py = np.zeros_like(px)
        base = hpwl_per_net(px, py, net, 1)[0]
        scaled = hpwl_per_net(px * scale, py, net, 1)[0]
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)

    @given(hnp.arrays(np.float64, st.integers(2, 30),
                      elements=finite_floats))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, px):
        net = np.zeros(px.shape[0], dtype=np.int64)
        assert hpwl_per_net(px, px, net, 1)[0] >= 0.0


def build_random_db(coords, widths):
    n = coords.shape[0] // 2
    region = PlacementRegion(-200, -200, 200, 200)
    netlist = Netlist("hyp")
    for i in range(n):
        netlist.add_cell(f"c{i}", float(widths[i % widths.shape[0]]), 1.0,
                         CellKind.MOVABLE,
                         x=float(coords[i]), y=float(coords[n + i]))
    for i in range(n - 1):
        netlist.add_net(f"n{i}", [(i, 0.0, 0.0), (i + 1, 0.0, 0.0)])
    return netlist.compile(region)


class TestWirelengthProperties:
    @given(
        hnp.arrays(np.float64, st.integers(6, 24), elements=finite_floats),
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_wa_below_hpwl(self, coords, gamma):
        if coords.shape[0] % 2:
            coords = coords[:-1]
        db = build_random_db(coords, np.ones(1))
        op = WeightedAverageWirelength(db, gamma=gamma)
        pos = np.concatenate([db.cell_x, db.cell_y])
        assert op(Tensor(pos)).item() <= db.hpwl() + 1e-6

    @given(
        hnp.arrays(np.float64, st.integers(6, 20), elements=finite_floats),
    )
    @settings(max_examples=25, deadline=None)
    def test_wa_gradient_sums_to_zero(self, coords):
        """Newton's third law: internal WL forces cancel."""
        if coords.shape[0] % 2:
            coords = coords[:-1]
        db = build_random_db(coords, np.ones(1))
        op = WeightedAverageWirelength(db, gamma=1.0)
        p = Parameter(np.concatenate([db.cell_x, db.cell_y]))
        op(p).backward()
        n = db.num_cells
        assert abs(p.grad[:n].sum()) < 1e-7
        assert abs(p.grad[n:].sum()) < 1e-7


class TestDensityProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_scatter_mass_conserved(self, n, seed):
        rng = np.random.default_rng(seed)
        region = PlacementRegion(0, 0, 64, 64)
        grid = BinGrid(region, 16, 16)
        xl = rng.uniform(0, 56, size=n)
        yl = rng.uniform(0, 56, size=n)
        w = rng.uniform(0.1, 8.0, size=n)
        h = rng.uniform(0.1, 8.0, size=n)
        out = scatter_density(grid, xl, yl, w, h, np.ones(n))
        np.testing.assert_allclose(out.sum(), (w * h).sum(), rtol=1e-9)

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_strategies_equivalent(self, n, seed):
        rng = np.random.default_rng(seed)
        region = PlacementRegion(0, 0, 64, 64)
        grid = BinGrid(region, 16, 16)
        xl = rng.uniform(0, 56, size=n)
        yl = rng.uniform(0, 56, size=n)
        w = rng.uniform(0.1, 8.0, size=n)
        h = rng.uniform(0.1, 8.0, size=n)
        weight = rng.uniform(0.1, 2.0, size=n)
        ref = scatter_density(grid, xl, yl, w, h, weight, "naive")
        for strategy in ("sorted", "stamp", "flat"):
            out = scatter_density(grid, xl, yl, w, h, weight, strategy)
            np.testing.assert_allclose(out, ref, atol=1e-10)

    @given(st.integers(min_value=1, max_value=25),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_scatter_gather_adjoint(self, n, seed):
        rng = np.random.default_rng(seed)
        region = PlacementRegion(0, 0, 64, 64)
        grid = BinGrid(region, 16, 16)
        xl = rng.uniform(0, 56, size=n)
        yl = rng.uniform(0, 56, size=n)
        w = rng.uniform(0.1, 8.0, size=n)
        h = rng.uniform(0.1, 8.0, size=n)
        weight = rng.uniform(0.1, 2.0, size=n)
        field = rng.normal(size=grid.shape)
        rho = scatter_density(grid, xl, yl, w, h, weight)
        lhs = float((rho * field).sum())
        rhs = float(gather_field(grid, field, xl, yl, w, h, weight).sum())
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestLegalizationProperties:
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=5, max_value=60))
    @settings(max_examples=15, deadline=None)
    def test_tetris_always_legal(self, seed, n):
        from repro.lg import check_legal, tetris_legalize

        rng = np.random.default_rng(seed)
        region = PlacementRegion(0, 0, 32, 32)
        netlist = Netlist("hyp")
        for i in range(n):
            netlist.add_cell(
                f"c{i}", float(rng.integers(1, 4)), 1.0, CellKind.MOVABLE,
                x=float(rng.uniform(0, 28)), y=float(rng.uniform(0, 31)),
            )
        netlist.add_net("n0", [(0, 0, 0), (1, 0, 0)])
        db = netlist.compile(region)
        x, y, _ = tetris_legalize(db)
        report = check_legal(db, x, y)
        assert report.legal, report.messages
