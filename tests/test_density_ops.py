"""Tests for density map scatter/gather, Poisson solver, density op."""

import numpy as np
import pytest

from repro.geometry import BinGrid, PlacementRegion
from repro.netlist import CellKind, Netlist
from repro.nn import Parameter, Tensor
from repro.ops.density_map import (
    STRATEGIES,
    cell_bin_spans,
    gather_field,
    scatter_density,
)
from repro.ops.density_op import ElectricDensity, stretch_sizes
from repro.ops.density_overflow import density_overflow
from repro.ops.electrostatics import PoissonSolver


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def random_cells(rng, n, region):
    xl = rng.uniform(region.xl, region.xh - 4, size=n)
    yl = rng.uniform(region.yl, region.yh - 4, size=n)
    w = rng.uniform(0.5, 4.0, size=n)
    h = rng.uniform(0.5, 4.0, size=n)
    return xl, yl, w, h


class TestScatter:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mass_conservation(self, rng, region, grid, strategy):
        xl, yl, w, h = random_cells(rng, 50, region)
        out = scatter_density(grid, xl, yl, w, h, np.ones(50), strategy)
        np.testing.assert_allclose(out.sum(), (w * h).sum(), rtol=1e-10)

    @pytest.mark.parametrize("strategy", ["sorted", "stamp", "flat"])
    def test_strategies_match_naive(self, rng, region, grid, strategy):
        xl, yl, w, h = random_cells(rng, 50, region)
        weight = rng.uniform(0.5, 2.0, size=50)
        ref = scatter_density(grid, xl, yl, w, h, weight, "naive")
        out = scatter_density(grid, xl, yl, w, h, weight, strategy)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_single_cell_in_single_bin(self, region, grid):
        out = scatter_density(
            grid, np.array([2.1]), np.array([2.1]),
            np.array([1.0]), np.array([1.0]), np.array([1.0]),
        )
        assert out[1, 1] == pytest.approx(1.0)
        assert out.sum() == pytest.approx(1.0)

    def test_cell_split_across_bins(self, region, grid):
        # cell [1.5, 2.5] x [0, 1] splits evenly between bins 0 and 1
        out = scatter_density(
            grid, np.array([1.5]), np.array([0.0]),
            np.array([1.0]), np.array([1.0]), np.array([1.0]),
        )
        assert out[0, 0] == pytest.approx(0.5)
        assert out[1, 0] == pytest.approx(0.5)

    def test_weight_scales_contribution(self, region, grid):
        out = scatter_density(
            grid, np.array([2.0]), np.array([2.0]),
            np.array([1.0]), np.array([1.0]), np.array([0.25]),
        )
        assert out.sum() == pytest.approx(0.25)

    def test_macro_handled_by_fallback(self, region):
        """A cell spanning more bins than the vectorized limit."""
        grid = BinGrid(region, 16, 16)
        out = scatter_density(
            grid, np.array([0.0]), np.array([0.0]),
            np.array([30.0]), np.array([30.0]), np.array([1.0]),
            strategy="stamp",
        )
        assert out.sum() == pytest.approx(900.0)

    def test_empty_input(self, grid):
        out = scatter_density(
            grid, np.empty(0), np.empty(0), np.empty(0), np.empty(0),
            np.empty(0),
        )
        assert out.sum() == 0.0

    def test_unknown_strategy(self, grid):
        with pytest.raises(ValueError):
            scatter_density(
                grid, np.array([1.0]), np.array([1.0]),
                np.array([1.0]), np.array([1.0]), np.array([1.0]),
                strategy="gpu",
            )

    def test_accumulates_into_out(self, region, grid):
        out = grid.zeros()
        out[0, 0] = 5.0
        scatter_density(
            grid, np.array([2.0]), np.array([2.0]),
            np.array([1.0]), np.array([1.0]), np.array([1.0]), out=out,
        )
        assert out[0, 0] == 5.0
        assert out.sum() == pytest.approx(6.0)


class TestGather:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_uniform_field_returns_area(self, rng, region, grid, strategy):
        xl, yl, w, h = random_cells(rng, 30, region)
        field = np.ones(grid.shape)
        out = gather_field(grid, field, xl, yl, w, h, np.ones(30), strategy)
        np.testing.assert_allclose(out, w * h, rtol=1e-9)

    @pytest.mark.parametrize("strategy", ["sorted", "stamp", "flat"])
    def test_strategies_match_naive(self, rng, region, grid, strategy):
        xl, yl, w, h = random_cells(rng, 40, region)
        field = rng.normal(size=grid.shape)
        weight = rng.uniform(0.5, 2.0, size=40)
        ref = gather_field(grid, field, xl, yl, w, h, weight, "naive")
        out = gather_field(grid, field, xl, yl, w, h, weight, strategy)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    def test_scatter_gather_adjoint(self, rng, region, grid):
        """<scatter(q), f> == <q_area_weighted, gather(f)> (bipartite
        forward/backward of Fig. 5 are transposes)."""
        xl, yl, w, h = random_cells(rng, 25, region)
        weight = rng.uniform(0.5, 2.0, size=25)
        field = rng.normal(size=grid.shape)
        rho = scatter_density(grid, xl, yl, w, h, weight)
        lhs = float((rho * field).sum())
        rhs = float(gather_field(grid, field, xl, yl, w, h, weight).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSpans:
    def test_span_counts(self, grid):
        ix0, sx, iy0, sy = cell_bin_spans(
            grid, np.array([1.0]), np.array([1.0]),
            np.array([3.0]), np.array([1.0]),
        )
        assert sx[0] == 2  # [1, 4] covers bins [0,2) and [2,4)
        assert sy[0] == 1


class TestPoisson:
    def test_eigenfunction_exact(self, region):
        grid = BinGrid(region, 32, 32)
        solver = PoissonSolver(grid)
        i = np.arange(32)[:, None]
        j = np.arange(32)[None, :]
        u, v = 3, 5
        wu = np.pi * u / 32 / grid.bin_w
        wv = np.pi * v / 32 / grid.bin_h
        rho = np.cos(np.pi * u * (i + 0.5) / 32) * \
            np.cos(np.pi * v * (j + 0.5) / 32)
        sol = solver.solve(rho)
        np.testing.assert_allclose(
            sol.potential, rho / (wu ** 2 + wv ** 2), atol=1e-10
        )

    def test_field_is_negative_gradient(self, region):
        grid = BinGrid(region, 32, 32)
        solver = PoissonSolver(grid)
        i = np.arange(32)[:, None]
        j = np.arange(32)[None, :]
        rho = np.cos(np.pi * 2 * (i + 0.5) / 32) * \
            np.cos(np.pi * 1 * (j + 0.5) / 32)
        sol = solver.solve(rho)
        # central finite difference of psi vs field (interior bins);
        # the FD of a cosine carries a sinc(w*dx) factor, so allow ~1%
        grad_x = (sol.potential[2:, :] - sol.potential[:-2, :]) / \
            (2 * grid.bin_w)
        np.testing.assert_allclose(
            sol.field_x[1:-1, :], -grad_x, atol=0.02 * np.abs(grad_x).max()
        )

    def test_dc_free_output(self, rng, region):
        grid = BinGrid(region, 16, 16)
        rho = rng.uniform(0, 1, size=(16, 16))
        sol = PoissonSolver(grid).solve(rho)
        assert abs(sol.potential.mean()) < 1e-9

    def test_uniform_density_no_field(self, region):
        grid = BinGrid(region, 16, 16)
        sol = PoissonSolver(grid).solve(np.full((16, 16), 3.0))
        assert np.abs(sol.field_x).max() < 1e-9
        assert np.abs(sol.field_y).max() < 1e-9

    def test_impl_variants_agree(self, rng, region):
        grid = BinGrid(region, 16, 16)
        rho = rng.normal(size=(16, 16))
        ref = PoissonSolver(grid, impl="naive").solve(rho)
        for impl in ("2n", "n", "2d"):
            sol = PoissonSolver(grid, impl=impl).solve(rho)
            np.testing.assert_allclose(sol.potential, ref.potential,
                                       atol=1e-8)
            np.testing.assert_allclose(sol.field_x, ref.field_x, atol=1e-8)

    def test_shape_mismatch_rejected(self, region):
        grid = BinGrid(region, 16, 16)
        with pytest.raises(ValueError):
            PoissonSolver(grid).solve(np.zeros((8, 8)))


class TestStretch:
    def test_small_cells_stretched(self, grid):
        w = np.array([0.5])
        h = np.array([0.5])
        sw, sh, scale = stretch_sizes(w, h, grid)
        assert sw[0] == pytest.approx(np.sqrt(2) * grid.bin_w)
        assert scale[0] == pytest.approx(0.25 / (sw[0] * sh[0]))

    def test_large_cells_untouched(self, grid):
        w = np.array([10.0])
        h = np.array([10.0])
        sw, sh, scale = stretch_sizes(w, h, grid)
        assert sw[0] == 10.0
        assert scale[0] == 1.0

    def test_charge_preserved(self, grid):
        w = np.array([0.3, 5.0])
        h = np.array([1.0, 2.0])
        sw, sh, scale = stretch_sizes(w, h, grid)
        np.testing.assert_allclose(sw * sh * scale, w * h)


def two_cell_db(x_a=14.0, x_b=15.0):
    region = PlacementRegion(0, 0, 32, 32)
    netlist = Netlist("two")
    netlist.add_cell("a", 4.0, 4.0, CellKind.MOVABLE, x=x_a, y=14.0)
    netlist.add_cell("b", 4.0, 4.0, CellKind.MOVABLE, x=x_b, y=14.0)
    return netlist.compile(region)


def mixed_cell_db():
    """Overlapping cells of three sizes (distinct bin-span footprints)."""
    region = PlacementRegion(0, 0, 32, 32)
    netlist = Netlist("mixed")
    rng = np.random.default_rng(2)
    for i, size in enumerate([1.0, 4.0, 9.0] * 4):
        netlist.add_cell(f"c{i}", size, size, CellKind.MOVABLE,
                         x=float(rng.uniform(8, 14)),
                         y=float(rng.uniform(8, 14)))
    return netlist.compile(region)


class TestElectricDensity:
    def test_overlapping_cells_pushed_apart(self, grid):
        db = two_cell_db()
        op = ElectricDensity(db, BinGrid(db.region, 16, 16))
        p = Parameter(np.concatenate([db.cell_x, db.cell_y]))
        op(p).backward()
        # descent (-grad) moves a left and b right
        assert p.grad[0] > 0
        assert p.grad[1] < 0

    def test_energy_decreases_when_separated(self):
        db = two_cell_db()
        grid = BinGrid(db.region, 16, 16)
        op = ElectricDensity(db, grid)
        close = op(
            Tensor(np.array([14.0, 15.0, 14.0, 14.0]))
        ).item()
        far = op(
            Tensor(np.array([4.0, 24.0, 14.0, 14.0]))
        ).item()
        assert far < close

    def test_fixed_cells_pre_stamped(self, blocked_db):
        grid = BinGrid(blocked_db.region, 16, 16)
        op = ElectricDensity(blocked_db, grid)
        assert op.fixed_density.sum() == pytest.approx(64.0)  # 8x8 macro

    def test_fillers_participate(self):
        db = two_cell_db()
        grid = BinGrid(db.region, 16, 16)
        op = ElectricDensity(db, grid, num_fillers=3,
                             filler_width=2.0, filler_height=1.0)
        n = db.num_cells + 3
        pos = np.full(2 * n, 10.0)
        p = Parameter(pos)
        op(p).backward()
        assert p.grad.shape == (2 * n,)
        # fillers stacked on the cells feel a force too
        assert np.abs(p.grad[2:5]).max() > 0

    def test_short_pos_vector_rejected(self):
        db = two_cell_db()
        op = ElectricDensity(db, BinGrid(db.region, 16, 16),
                             num_fillers=5, filler_width=1.0,
                             filler_height=1.0)
        with pytest.raises(ValueError, match="too short"):
            op(Tensor(np.zeros(2 * db.num_cells)))

    def test_unknown_strategy_rejected(self):
        db = two_cell_db()
        with pytest.raises(ValueError, match="unknown strategy"):
            ElectricDensity(db, BinGrid(db.region, 16, 16), strategy="gpu")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_selects_its_kernel(self, strategy, monkeypatch):
        """Each name reaches its own scatter kernel, and all agree."""
        import repro.ops.density_map as density_map
        import repro.ops.density_op as density_op

        db = mixed_cell_db()
        grid = BinGrid(db.region, 16, 16)
        pos = np.concatenate([db.cell_x, db.cell_y])
        calls = {"naive_cells": 0, "offset_passes": 0, "plans": 0}

        def counted(fn, key, amount):
            def wrapper(*args, **kwargs):
                calls[key] += amount(args)
                return fn(*args, **kwargs)
            return wrapper

        def run(name, count=False):
            op = ElectricDensity(db, grid, strategy=name)
            p = Parameter(pos.copy())
            with monkeypatch.context() as patch:
                if count:  # forward only: the scatter kernels
                    patch.setattr(density_map, "_scatter_naive_subset", counted(
                        density_map._scatter_naive_subset, "naive_cells",
                        lambda args: len(args[7])))
                    patch.setattr(density_map, "_scatter_offsets", counted(
                        density_map._scatter_offsets, "offset_passes",
                        lambda args: 1))
                    patch.setattr(density_op, "build_overlap_plan", counted(
                        density_op.build_overlap_plan, "plans",
                        lambda args: 1))
                out = op(p)
            out.backward()
            return out.item(), p.grad.copy()

        ref_energy, ref_grad = run("naive")
        energy, grad = run(strategy, count=True)
        footprints = calls.pop("offset_passes")
        assert calls == {
            "naive_cells": db.num_movable if strategy == "naive" else 0,
            "plans": 1 if strategy == "flat" else 0,
        }
        if strategy == "sorted":
            assert footprints > 1  # one pass per distinct footprint
        else:
            assert footprints == (1 if strategy == "stamp" else 0)
        assert energy == pytest.approx(ref_energy, rel=1e-9)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-9)


class TestOverflow:
    def test_zero_when_spread(self, region, grid):
        netlist = Netlist("spread")
        for i in range(4):
            netlist.add_cell(f"c{i}", 2.0, 1.0, CellKind.MOVABLE,
                             x=float(8 * i), y=float(8 * i))
        netlist.add_net("n", [(0, 0, 0), (1, 0, 0)])
        db = netlist.compile(region)
        assert density_overflow(db, grid) == pytest.approx(0.0)

    def test_positive_when_stacked(self, region, grid):
        netlist = Netlist("stacked")
        for i in range(8):
            netlist.add_cell(f"c{i}", 2.0, 2.0, CellKind.MOVABLE,
                             x=10.0, y=10.0)
        netlist.add_net("n", [(0, 0, 0), (1, 0, 0)])
        db = netlist.compile(region)
        overflow = density_overflow(db, grid)
        assert overflow > 0.5

    def test_target_density_loosens(self, region, grid):
        netlist = Netlist("half")
        # two cells exactly overlapping one bin: density 2x bin area
        netlist.add_cell("a", 2.0, 2.0, CellKind.MOVABLE, x=2.0, y=2.0)
        netlist.add_cell("b", 2.0, 2.0, CellKind.MOVABLE, x=2.0, y=2.0)
        netlist.add_net("n", [(0, 0, 0), (1, 0, 0)])
        db = netlist.compile(region)
        tight = density_overflow(db, grid, target_density=0.5)
        loose = density_overflow(db, grid, target_density=1.0)
        assert tight > loose

    def test_fixed_cells_consume_capacity(self, blocked_db):
        grid = BinGrid(blocked_db.region, 16, 16)
        x, y = blocked_db.positions()
        movable = blocked_db.movable_index
        # pile all movable cells onto the macro
        x[movable] = 14.0
        y[movable] = 14.0
        blocked = density_overflow(blocked_db, grid, x, y)
        # same pile in open space
        x[movable] = 2.0
        y[movable] = 2.0
        open_space = density_overflow(blocked_db, grid, x, y)
        assert blocked > open_space
