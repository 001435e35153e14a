"""Tests for the end-to-end DreamPlacer flow."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate
from repro.core import DreamPlacer, PlacementParams, placement_summary


@pytest.fixture(scope="module")
def flow_result():
    db = generate(CircuitSpec(name="flow", num_cells=300, num_ios=16,
                              utilization=0.6, macro_area_fraction=0.04,
                              num_macros=2, seed=31))
    params = PlacementParams(max_global_iters=300, detailed_passes=1)
    return db, DreamPlacer(db, params).run()


class TestFullFlow:
    def test_final_placement_legal(self, flow_result):
        _, result = flow_result
        assert result.legality is not None
        assert result.legality.legal, result.legality.messages

    def test_dp_improves_over_lg(self, flow_result):
        _, result = flow_result
        assert result.hpwl_final <= result.hpwl_legal

    def test_lg_cost_is_moderate(self, flow_result):
        _, result = flow_result
        assert result.hpwl_legal <= 1.25 * result.hpwl_global

    def test_times_populated(self, flow_result):
        _, result = flow_result
        assert result.times.global_place > 0
        assert result.times.legalize > 0
        assert result.times.detailed > 0
        assert result.times.total == pytest.approx(
            result.times.global_place + result.times.legalize
            + result.times.detailed + result.times.global_route
        )

    def test_db_updated_with_final(self, flow_result):
        db, result = flow_result
        np.testing.assert_allclose(db.cell_x, result.x)

    def test_summary_metrics(self, flow_result):
        db, result = flow_result
        summary = placement_summary(db)
        assert summary.hpwl == pytest.approx(result.hpwl_final)
        assert summary.num_cells == db.num_cells

    def test_no_routability_metrics_in_plain_mode(self, flow_result):
        _, result = flow_result
        assert result.rc is None
        assert result.shpwl is None


class TestFlowVariants:
    def make_db(self, seed=33):
        return generate(CircuitSpec(name="var", num_cells=200, num_ios=8,
                                    utilization=0.55, seed=seed))

    def test_gp_only(self):
        db = self.make_db()
        params = PlacementParams(legalize=False, detailed=False,
                                 max_global_iters=60, min_global_iters=1)
        result = DreamPlacer(db, params).run()
        assert result.legality is None
        assert result.times.legalize == 0.0

    def test_lg_without_dp(self):
        db = self.make_db()
        params = PlacementParams(detailed=False, max_global_iters=60,
                                 min_global_iters=1)
        result = DreamPlacer(db, params).run()
        assert result.legality.legal
        assert result.hpwl_final == result.hpwl_legal

    def test_routability_mode_reports_rc(self):
        db = generate(CircuitSpec(name="routa", num_cells=250, num_ios=8,
                                  utilization=0.5, seed=37))
        params = PlacementParams(
            max_global_iters=250, routability=True, detailed=False,
            route_num_tiles=16, route_tile_capacity=3.0,
            inflation_max_rounds=2,
        )
        result = DreamPlacer(db, params).run()
        assert result.rc is not None and result.rc >= 100.0
        assert result.shpwl is not None
        assert result.shpwl >= result.hpwl_final
        assert result.router_calls >= 1
        assert result.times.global_route > 0
        assert result.legality.legal

    def test_routability_composes_with_multilevel(self):
        db = generate(CircuitSpec(name="routm", num_cells=600, num_ios=16,
                                  utilization=0.5, seed=47))
        params = PlacementParams(
            max_global_iters=250, routability=True, detailed=False,
            route_num_tiles=16, route_tile_capacity=0.0,
            inflation_max_rounds=2,
            multilevel_levels=2, multilevel_min_cells=64,
        )
        seen = set()
        result = DreamPlacer(db, params).run(
            on_iteration=lambda placer, info:
            seen.add((info["level"], info.get("round"))))
        # the coarse round, then the inflation rounds on the fine level
        assert (1, None) in seen and {(0, 0), (0, 1)} <= seen
        assert len(result.gp_levels) == 2 and result.rc is not None
        assert [e["level"] for e in result.gp_levels] == [1, 0]
        assert result.iterations == sum(e["iterations"]
                                        for e in result.gp_levels)
        assert result.inflation_rounds >= 1
        assert result.legality.legal

    def test_routability_resumes_in_the_finishing_round(self):
        """A checkpoint taken after the inflation converged (the round
        that warm-restarts the placer built before the last inflation)
        resumes bit-exactly, widths and router bookkeeping included."""
        spec = CircuitSpec(name="routf", num_cells=300, num_ios=8,
                           utilization=0.6, seed=43)
        params = PlacementParams(
            max_global_iters=300, routability=True, detailed=False,
            route_num_tiles=16, route_tile_capacity=6.0,
            inflation_max_rounds=5, inflation_stop_ratio=0.05,
        )
        state = {}

        def hook(placer, info):
            extra = placer.checkpoint_extra
            if (extra["inflation_finishing"] and info["iteration"] == 7
                    and not state):
                state.update(placer.capture_loop_state())

        reference = DreamPlacer(generate(spec), params).run(
            on_iteration=hook)
        assert state, "the inflation never converged"
        assert not np.array_equal(state["inflation_width"],
                                  state["inflation_built_width"])
        db = generate(spec)
        widths = db.cell_width.copy()
        resumed = DreamPlacer(db, params).run(resume_state=state)
        np.testing.assert_array_equal(resumed.x, reference.x)
        np.testing.assert_array_equal(resumed.y, reference.y)
        assert (resumed.rc, resumed.inflation_rounds, resumed.router_calls,
                resumed.iterations) == (
            reference.rc, reference.inflation_rounds,
            reference.router_calls, reference.iterations)
        np.testing.assert_array_equal(db.cell_width, widths)

    def test_routability_restores_original_widths(self):
        db = generate(CircuitSpec(name="routb", num_cells=250, num_ios=8,
                                  utilization=0.5, seed=37))
        widths = db.cell_width.copy()
        params = PlacementParams(
            max_global_iters=200, routability=True, detailed=False,
            route_num_tiles=16, route_tile_capacity=2.0,
            inflation_max_rounds=1,
        )
        DreamPlacer(db, params).run()
        np.testing.assert_allclose(db.cell_width, widths)

    def test_inflation_rounds_triggered_under_pressure(self):
        db = generate(CircuitSpec(name="routc", num_cells=250, num_ios=8,
                                  utilization=0.5, seed=39))
        params = PlacementParams(
            max_global_iters=250, routability=True, detailed=False,
            route_num_tiles=16, route_tile_capacity=0.8,
            inflation_max_rounds=3,
        )
        result = DreamPlacer(db, params).run()
        assert result.inflation_rounds >= 1
        assert result.router_calls >= 2
