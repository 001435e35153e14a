"""Tests for the RePlAce-style baseline (B2B init + reference kernels)."""

import numpy as np
import pytest

from repro.baseline import ReplacePlacer, bound2bound_place
from repro.core import PlacementParams
from tests.conftest import make_chain_db


class TestB2B:
    def test_chain_collapses_toward_line(self):
        """Quadratic placement pulls a chain's cells together."""
        db = make_chain_db(num_cells=6, spacing=5.0)
        x, y = bound2bound_place(db, iterations=4)
        movable = db.movable_index
        # free-floating quadratic system with no anchors collapses
        assert np.ptp(x[movable]) < np.ptp(db.cell_x[movable])

    def test_anchored_chain_spreads_between_pads(self, small_db):
        """With fixed pads the solution interpolates between them."""
        x, y = bound2bound_place(small_db, iterations=4)
        movable = small_db.movable_index
        assert small_db.region.contains(
            x[movable], y[movable],
            small_db.cell_width[movable],
            small_db.cell_height[movable],
        ).all()

    def test_reduces_hpwl_vs_random(self, tiny_design):
        db = tiny_design
        rng = np.random.default_rng(0)
        movable = db.movable_index
        rand_x = db.cell_x.copy()
        rand_y = db.cell_y.copy()
        rand_x[movable] = rng.uniform(0, db.region.width, movable.shape[0])
        rand_y[movable] = rng.uniform(0, db.region.height, movable.shape[0])
        bx, by = bound2bound_place(db, iterations=3)
        assert db.hpwl(bx, by) < db.hpwl(rand_x, rand_y)

    def test_fixed_cells_untouched(self, small_db):
        x, y = bound2bound_place(small_db)
        fixed = small_db.fixed_index
        np.testing.assert_allclose(x[fixed], small_db.cell_x[fixed])

    def test_deterministic_given_rng(self, small_db):
        x1, _ = bound2bound_place(small_db, rng=np.random.default_rng(5))
        x2, _ = bound2bound_place(small_db, rng=np.random.default_rng(5))
        np.testing.assert_allclose(x1, x2)


class TestReplacePlacer:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.benchgen import CircuitSpec, generate

        db = generate(CircuitSpec(name="bl", num_cells=120, num_ios=8,
                                  utilization=0.55, seed=13))
        params = PlacementParams(max_global_iters=400, detailed_passes=1)
        return db, ReplacePlacer(db, params).run()

    def test_reference_strategies_forced(self):
        from repro.benchgen import CircuitSpec, generate

        db = generate(CircuitSpec(name="bl2", num_cells=100, seed=1))
        placer = ReplacePlacer(
            db, PlacementParams(wirelength_strategy="merged",
                                density_strategy="stamp"),
        )
        assert placer.params.wirelength_strategy == "net_by_net"
        assert placer.params.density_strategy == "naive"
        assert placer.params.dct_impl == "2n"

    def test_gp_runs_the_naive_density_scatter(self, monkeypatch):
        """The reference strategy reaches the per-cell loop every call."""
        import repro.ops.density_map as density_map
        from repro.benchgen import CircuitSpec, generate

        db = generate(CircuitSpec(name="bl3", num_cells=60, seed=2))
        naive_cells = []
        original = density_map._scatter_naive_subset

        def counting(*args):
            naive_cells.append(len(args[7]))
            return original(*args)

        placer = ReplacePlacer(db, PlacementParams(
            max_global_iters=3, min_global_iters=1, legalize=False))
        monkeypatch.setattr(density_map, "_scatter_naive_subset", counting)
        res = placer.run()
        # every objective evaluation scatters every movable cell + filler
        assert res.iterations == 3
        assert sum(c >= db.num_movable for c in naive_cells) >= res.iterations

    def test_flow_converges_and_legal(self, result):
        db, res = result
        assert res.overflow <= 0.15
        assert res.legality is not None and res.legality.legal

    def test_init_time_tracked_separately(self, result):
        _, res = result
        assert res.init_place_time > 0
        assert res.nonlinear_time > 0
        assert res.gp_time == pytest.approx(
            res.init_place_time + res.nonlinear_time
        )

    def test_hpwl_reported(self, result):
        _, res = result
        assert np.isfinite(res.hpwl_final)
        assert res.hpwl_final > 0
