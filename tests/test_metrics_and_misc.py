"""Tests for metrics, reporting, and miscellaneous surfaces."""

import numpy as np
import pytest

from repro.core import PlacementParams, placement_summary, scaled_hpwl
from repro.core.placer import StageTimes
from repro.route.router import calibrate_capacity


class TestStageTimes:
    def test_total_sums_stages(self):
        times = StageTimes(global_place=1.0, global_route=2.0,
                           legalize=0.5, detailed=0.25)
        assert times.total == pytest.approx(3.75)

    def test_defaults_zero(self):
        assert StageTimes().total == 0.0


class TestScaledHpwl:
    def test_no_congestion_identity(self):
        assert scaled_hpwl(12345.0, 100.0) == 12345.0

    def test_three_percent_per_rc_point(self):
        assert scaled_hpwl(1000.0, 101.0) == pytest.approx(1030.0)

    def test_matches_paper_equation(self):
        hpwl, rc = 62.39e6, 102.47
        assert scaled_hpwl(hpwl, rc) == pytest.approx(
            hpwl * (1 + 0.03 * (rc - 100))
        )


class TestPlacementSummary:
    def test_summary_fields(self, small_db):
        summary = placement_summary(small_db)
        assert summary.hpwl == pytest.approx(small_db.hpwl())
        assert summary.num_cells == small_db.num_cells
        assert summary.num_nets == small_db.num_nets
        assert summary.num_pins == small_db.num_pins

    def test_overrides_positions(self, small_db):
        x, y = small_db.positions()
        movable = small_db.movable_index
        x[movable] = 5.0
        y[movable] = 5.0
        piled = placement_summary(small_db, x, y)
        assert piled.overflow > placement_summary(small_db).overflow


class TestCalibrateCapacity:
    def test_returns_positive(self, tiny_design):
        assert calibrate_capacity(tiny_design, num_tiles=12) >= 1.0

    def test_tighter_percentile_lower_capacity(self, tiny_design):
        loose = calibrate_capacity(tiny_design, num_tiles=12,
                                   percentile=99.5, headroom=1.0)
        tight = calibrate_capacity(tiny_design, num_tiles=12,
                                   percentile=80.0, headroom=1.0)
        assert tight <= loose

    def test_produces_mild_congestion(self, tiny_design):
        from repro.route import GlobalRouter

        capacity = calibrate_capacity(tiny_design, num_tiles=12)
        result = GlobalRouter(tiny_design, num_tiles=12,
                              tile_capacity=capacity).route()
        # mildly congested: RC above the floor but not catastrophic
        assert 100.0 <= result.rc < 200.0


class TestReplaceExtrapolate:
    def test_extrapolate_matches_full_quality(self):
        from repro.baseline import ReplacePlacer
        from repro.benchgen import CircuitSpec, generate

        spec = CircuitSpec(name="ex", num_cells=60, num_ios=8,
                           utilization=0.55, seed=41)
        params = PlacementParams(max_global_iters=120, detailed=False,
                                 min_global_iters=1)
        db_full = generate(spec)
        full = ReplacePlacer(db_full, params, timing_mode="full").run()
        db_ex = generate(spec)
        extrapolated = ReplacePlacer(db_ex, params,
                                     timing_mode="extrapolate").run()
        # identical math -> near-identical quality
        assert extrapolated.hpwl_final == pytest.approx(
            full.hpwl_final, rel=0.02
        )
        # and the estimated time is the same order as the measured one
        ratio = extrapolated.nonlinear_time / max(full.nonlinear_time,
                                                  1e-9)
        assert 0.3 < ratio < 3.0

    def test_bad_timing_mode_rejected(self, small_db):
        from repro.baseline import ReplacePlacer

        with pytest.raises(ValueError):
            ReplacePlacer(small_db, timing_mode="guess")


class TestDtypeSweeps:
    """float32 vs float64 parity on the kernels (the paper's precisions)."""

    def test_scatter_dtype_respected(self, grid):
        from repro.ops.density_map import scatter_density

        out = scatter_density(
            grid, np.array([2.0]), np.array([2.0]), np.array([1.0]),
            np.array([1.0]), np.array([1.0]), dtype=np.float32,
        )
        assert out.dtype == np.float32

    def test_scatter_f32_close_to_f64(self, region, grid):
        from repro.ops.density_map import scatter_density

        rng = np.random.default_rng(0)
        n = 30
        xl = rng.uniform(0, 28, n)
        yl = rng.uniform(0, 28, n)
        w = rng.uniform(0.5, 3, n)
        h = rng.uniform(0.5, 3, n)
        ones = np.ones(n)
        a = scatter_density(grid, xl, yl, w, h, ones, dtype=np.float64)
        b = scatter_density(grid, xl, yl, w, h, ones, dtype=np.float32)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)

    def test_density_op_f32_energy(self, blocked_db):
        from repro.geometry import BinGrid
        from repro.nn import Tensor
        from repro.ops.density_op import ElectricDensity

        grid = BinGrid(blocked_db.region, 16, 16)
        pos = np.concatenate([blocked_db.cell_x, blocked_db.cell_y])
        e64 = ElectricDensity(blocked_db, grid, dtype=np.float64)(
            Tensor(pos)
        ).item()
        e32 = ElectricDensity(blocked_db, grid, dtype=np.float32)(
            Tensor(pos.astype(np.float32))
        ).item()
        assert e32 == pytest.approx(e64, rel=1e-3)

    def test_poisson_solve_runs_in_map_dtype(self, grid):
        from repro.ops.electrostatics import PoissonSolver

        rho = np.random.default_rng(1).random(grid.shape, dtype=np.float32)
        sol = PoissonSolver(grid).solve(rho)
        for name in ("potential", "field_x", "field_y"):
            assert getattr(sol, name).dtype == np.float32, name

    @pytest.mark.parametrize("n", [256, 512])
    def test_poisson_solve_f32_close_to_f64(self, n):
        """float32 drift budget: 5e-6 of each map's max magnitude."""
        from repro.geometry import BinGrid, PlacementRegion
        from repro.ops.electrostatics import PoissonSolver

        solver = PoissonSolver(BinGrid(PlacementRegion(0, 0, n, n), n, n))
        rho = np.random.default_rng(n).random((n, n))
        s64 = solver.solve(rho)
        s32 = solver.solve(rho.astype(np.float32))
        for name in ("potential", "field_x", "field_y"):
            a, b = getattr(s32, name), getattr(s64, name)
            assert np.abs(a - b).max() <= 5e-6 * np.abs(b).max(), name
