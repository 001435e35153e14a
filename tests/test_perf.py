"""Tests for the perf subsystem: workspaces, the span view, kernel pools.

Covers the zero-allocation hot-loop contract: every GP kernel has one
dataflow, which must give bit-equal results on a pooling ``Workspace``
(cold and warm) and on a ``NullWorkspace`` (fresh buffers per acquire),
and must not allocate large temporaries in steady state on the former.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.geometry import BinGrid, PlacementRegion
from repro.netlist import CellKind, Netlist
from repro.nn import Parameter, Tensor
from repro.ops.density_op import ElectricDensity
from repro.ops.density_overflow import density_overflow, fixed_free_area
from repro.ops.lse_wirelength import LogSumExpWirelength
from repro.ops.wa_wirelength import STRATEGIES, WeightedAverageWirelength
from repro.core import DreamPlacer, PlacementParams
from repro.obs import Trace, Tracer, active_tracer, trace_span
from repro.perf import NullWorkspace, Workspace, op_stats
from repro.perf.profiler import as_dict, closure_split_line, table


def random_db(seed=7, num_cells=120, num_nets=90, size=64.0):
    """A randomized netlist including degree-1 nets and terminals."""
    rng = np.random.default_rng(seed)
    region = PlacementRegion(0.0, 0.0, size, size, row_height=1.0,
                             site_width=1.0)
    netlist = Netlist("rand")
    for i in range(num_cells):
        netlist.add_cell(
            f"c{i}", 1.0 + float(rng.integers(0, 3)), 1.0,
            CellKind.MOVABLE,
            x=float(rng.uniform(1, size - 4)),
            y=float(rng.integers(1, int(size) - 2)),
        )
    netlist.add_cell("pad0", 0.0, 0.0, CellKind.TERMINAL, x=0.0, y=size / 2)
    netlist.add_cell("pad1", 0.0, 0.0, CellKind.TERMINAL, x=size, y=size / 2)
    for e in range(num_nets):
        if e % 9 == 0:
            degree = 1  # degree-1 nets must contribute zero WL and grad
        else:
            degree = int(rng.integers(2, 8))
        cells = rng.choice(num_cells, size=degree, replace=False)
        pins = [
            (int(c), float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            for c in cells
        ]
        if e % 13 == 0:
            pins.append((num_cells + e % 2, 0.0, 0.0))
        netlist.add_net(f"e{e}", pins)
    return netlist.compile(region)


def pos_vector(db):
    return np.concatenate([db.cell_x, db.cell_y])


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_acquire_is_persistent(self):
        ws = Workspace()
        a = ws.acquire("a", 16)
        b = ws.acquire("a", 16)
        assert a is b

    def test_acquire_reallocates_on_shape_change(self):
        ws = Workspace()
        a = ws.acquire("a", 16)
        b = ws.acquire("a", 32)
        assert a is not b and b.shape == (32,)

    def test_acquire_reallocates_on_dtype_change(self):
        ws = Workspace()
        a = ws.acquire("a", 8, np.float64)
        b = ws.acquire("a", 8, np.float32)
        assert b.dtype == np.float32 and a is not b

    def test_acquire_2d(self):
        ws = Workspace()
        a = ws.acquire("m", (4, 5))
        assert a.shape == (4, 5)
        assert ws.acquire("m", (4, 5)) is a

    def test_zeros_cleared(self):
        ws = Workspace()
        a = ws.acquire("z", 8)
        a.fill(7.0)
        assert not ws.zeros("z", 8).any()

    def test_acquire_flat_views_capacity(self):
        ws = Workspace()
        a = ws.acquire_flat("f", 10)
        base = a.base
        b = ws.acquire_flat("f", 6)
        assert b.base is base and b.shape == (6,)
        c = ws.acquire_flat("f", 11)  # grows geometrically
        assert c.base is not base and c.base.size >= 20

    def test_arange(self):
        ws = Workspace()
        np.testing.assert_array_equal(ws.arange(5), np.arange(5))
        big = ws.arange(9)
        np.testing.assert_array_equal(big, np.arange(9))

    def test_nbytes_len_clear(self):
        ws = Workspace()
        ws.acquire("a", 8, np.float64)
        ws.acquire_flat("b", 4, np.float64)
        assert len(ws) == 2 and ws.nbytes >= 8 * 8
        ws.clear()
        assert len(ws) == 0 and ws.nbytes == 0

    def test_null_workspace_allocates_fresh(self):
        ws = NullWorkspace()
        assert ws.acquire("a", 8) is not ws.acquire("a", 8)
        assert not ws.zeros("a", 8).any()
        assert ws.acquire_flat("f", 3).shape == (3,)
        np.testing.assert_array_equal(ws.arange(4), np.arange(4))


# ---------------------------------------------------------------------------
# The per-op view over spans
# ---------------------------------------------------------------------------
class TestOpStats:
    def test_records_calls_and_time(self):
        with Tracer() as tracer:
            for _ in range(3):
                with trace_span("op.a"):
                    time.sleep(0.001)
        stats = op_stats(tracer.trace.spans)["op.a"]
        assert stats.calls == 3
        assert stats.seconds >= 0.003
        assert stats.self_seconds == pytest.approx(stats.seconds)

    def test_nesting_self_time(self):
        with Tracer() as tracer:
            with trace_span("outer"):
                with trace_span("inner"):
                    time.sleep(0.002)
        stats = op_stats(tracer.trace.spans)
        outer, inner = stats["outer"], stats["inner"]
        assert outer.seconds >= inner.seconds
        assert outer.self_seconds == pytest.approx(
            outer.seconds - inner.seconds
        )

    def test_no_tracer_still_times(self):
        assert active_tracer() is None
        with trace_span("nothing") as span:
            time.sleep(0.001)
        assert span.seconds >= 0.001

    def test_nested_tracer_sees_only_its_own_spans(self):
        with Tracer() as outer:
            with trace_span("before"):
                pass
            with Tracer() as inner:
                with trace_span("during"):
                    pass
            assert active_tracer() is outer
        assert active_tracer() is None
        assert set(op_stats(outer.trace.spans)) == {"before"}
        assert set(op_stats(inner.trace.spans)) == {"during"}

    def test_table_and_as_dict(self):
        with Tracer() as tracer:
            with trace_span("op.x"):
                with trace_span("gp.replay"):
                    pass
        stats = op_stats(tracer.trace.spans)
        text = table(stats, title="breakdown")
        assert "breakdown" in text and "op.x" in text
        assert "total (self)" in text and "alloc" not in text
        assert closure_split_line(stats).startswith(
            "closure split: replay 1x")
        assert closure_split_line({}) is None
        d = as_dict(stats)
        assert d["op.x"]["calls"] == 1
        assert set(d["op.x"]) == {"calls", "seconds", "self_seconds",
                                  "alloc_bytes", "peak_bytes"}

    def test_trace_alloc_counts_bytes(self):
        with Tracer(trace_alloc=True) as tracer:
            with trace_span("alloc"):
                _ = np.empty(1 << 16)  # 512 KB
        assert not tracemalloc.is_tracing()
        stats = op_stats(tracer.trace.spans)
        # to within the few small objects the span bookkeeping frees
        # between the two tracemalloc readings
        assert stats["alloc"].peak_bytes >= (1 << 16) * 8 - 1024
        assert "peak" in table(stats)


@pytest.fixture(scope="module")
def traced_flow():
    """One small GP -> LG -> DP run under a tracer."""
    from repro.benchgen import CircuitSpec, generate

    db = generate(CircuitSpec(name="view", num_cells=200, num_ios=8,
                              utilization=0.5, seed=5))
    with Tracer(process_label="main") as tracer:
        result = DreamPlacer(db, PlacementParams(max_global_iters=60)).run()
    return result, tracer.trace


class TestViewIsAPureFunction:
    def test_same_stats_live_shipped_and_reloaded(self, traced_flow,
                                                  tmp_path):
        _, trace = traced_flow
        live = op_stats(trace.spans)
        assert {"wl.forward", "density.solve", "gp.iteration", "stage.gp",
                "stage.lg", "lg.tetris", "stage.dp", "dp.global_swap",
                "check.legalize"} <= set(live)
        shipped = Trace()
        shipped.extend_dicts(trace.as_dicts(), trace.process_labels)
        assert op_stats(shipped.spans) == live
        reloaded = Trace.load(trace.save(str(tmp_path / "trace.json")))
        assert reloaded.process_labels == trace.process_labels
        assert op_stats(reloaded.spans) == live
        # a slice is a valid input too: self time travels with the span
        tail = op_stats(trace.spans[len(trace.spans) // 2:])
        assert tail["stage.dp"] == live["stage.dp"]

    def test_self_time_totals_to_root_wall_clock(self, traced_flow):
        _, trace = traced_flow
        roots = sum(s.dur for s in trace.spans
                    if s.name.startswith(("stage.", "check."))) / 1e6
        total = sum(s.self_seconds for s in op_stats(trace.spans).values())
        assert total == pytest.approx(roots, rel=1e-9)

    def test_stage_times_are_the_stage_spans(self, traced_flow):
        result, trace = traced_flow
        (gp,) = [s for s in trace.spans if s.name == "stage.gp"]
        (lg,) = [s for s in trace.spans if s.name == "stage.lg"]
        (dp,) = [s for s in trace.spans if s.name == "stage.dp"]
        times = result.times
        assert times.legalize == lg.seconds
        assert times.detailed == dp.seconds
        assert times.global_place + times.global_route == gp.seconds

    def test_merged_pids_do_not_nest(self):
        # the dispatcher's span contains the worker's in wall time, but
        # nesting was recorded per process, so nothing is subtracted
        with Tracer() as dispatcher:
            with trace_span("batch"):
                with Tracer() as worker:
                    with trace_span("job"):
                        with trace_span("stage.gp"):
                            pass
        shipped = [dict(d, pid=d["pid"] + 1) for d in worker.trace.as_dicts()]
        dispatcher.trace.extend_dicts(shipped)
        stats = op_stats(dispatcher.trace.spans)
        assert stats["batch"].self_seconds == stats["batch"].seconds
        assert stats["job"].self_seconds == pytest.approx(
            stats["job"].seconds - stats["stage.gp"].seconds)


# ---------------------------------------------------------------------------
# one kernel, two pools
# ---------------------------------------------------------------------------
_OP_NAMES = (*STRATEGIES, "lse", "density-flat")


def _build_op(name, db, grid, dtype, ws):
    if name == "lse":
        return LogSumExpWirelength(db, gamma=0.8, dtype=dtype, workspace=ws)
    if name == "density-flat":
        return ElectricDensity(db, grid, strategy="flat", dtype=dtype,
                               workspace=ws)
    return WeightedAverageWirelength(db, gamma=0.8, strategy=name,
                                     dtype=dtype, workspace=ws)


class TestCrossStrategyRegression:
    def _run(self, op, pos):
        p = Parameter(pos.copy())
        out = op(p)
        out.backward()
        return out.item(), p.grad.copy()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", _OP_NAMES)
    def test_one_kernel_two_pools(self, name, dtype):
        """Warm pooled buffers and fresh ones give the same bits."""
        db = random_db()
        grid = BinGrid(db.region, 16, 16)
        pos = pos_vector(db).astype(dtype)
        pooled = _build_op(name, db, grid, dtype, Workspace())
        fresh = _build_op(name, db, grid, dtype, NullWorkspace())
        runs = [self._run(pooled, pos), self._run(pooled, pos),
                self._run(fresh, pos)]
        assert np.isfinite(runs[0][0]) and np.abs(runs[0][1]).max() > 0
        for value, grad in runs[1:]:
            assert value == runs[0][0]
            np.testing.assert_array_equal(grad, runs[0][1])

    def test_density_overflow_one_kernel_two_pools(self):
        db = random_db(seed=29)
        grid = BinGrid(db.region, 16, 16)
        free = fixed_free_area(db, grid)
        ws = Workspace()
        cold = density_overflow(db, grid, target_density=0.1,
                                free_area=free, workspace=ws)
        warm = density_overflow(db, grid, target_density=0.1,
                                free_area=free, workspace=ws)
        fresh = density_overflow(db, grid, target_density=0.1)
        assert cold > 0
        assert cold == warm == fresh

    def test_degree_one_nets_contribute_nothing(self):
        db = random_db()
        degree_one = np.flatnonzero(db.net_degree == 1)
        assert degree_one.size > 0, "fixture must include degree-1 nets"
        pos = pos_vector(db)
        for strategy in STRATEGIES:
            op = WeightedAverageWirelength(db, gamma=0.8, strategy=strategy)
            base, grad = self._run(op, pos)
            # moving the lone pin of a degree-1 net changes nothing
            cell = db.pin_cell[db.net2pin[db.net2pin_start[degree_one[0]]]]
            if db.movable[cell]:
                trial = pos.copy()
                trial[cell] += 3.0
                moved = op(Tensor(trial)).item()
                only = db.net_degree[db.pin_net[
                    np.flatnonzero(db.pin_cell == cell)
                ]]
                if (only == 1).all():
                    assert moved == pytest.approx(base)

    def test_shared_workspace_across_ops(self):
        """Prefixed buffer names keep ops on one pool from clobbering."""
        db = random_db(seed=31)
        grid = BinGrid(db.region, 16, 16)
        pos = pos_vector(db)
        ws = Workspace()
        wl = WeightedAverageWirelength(db, gamma=0.8, workspace=ws)
        den = ElectricDensity(db, grid, workspace=ws)
        solo_wl = self._run(
            WeightedAverageWirelength(db, gamma=0.8), pos
        )
        solo_den = self._run(ElectricDensity(db, grid), pos)
        for _ in range(2):  # second pass runs on warm buffers
            got_wl = self._run(wl, pos)
            got_den = self._run(den, pos)
            assert got_wl[0] == pytest.approx(solo_wl[0])
            np.testing.assert_allclose(got_wl[1], solo_wl[1], atol=1e-12)
            assert got_den[0] == pytest.approx(solo_den[0])
            np.testing.assert_allclose(got_den[1], solo_den[1], atol=1e-12)


# ---------------------------------------------------------------------------
# zero-allocation steady state
# ---------------------------------------------------------------------------
class TestZeroAllocation:
    def test_merged_steady_state_allocates_nothing_large(self):
        db = random_db(seed=41, num_cells=1500, num_nets=1200)
        op = WeightedAverageWirelength(db, gamma=0.9, strategy="merged")
        pos = pos_vector(db)
        p = Parameter(pos)
        for _ in range(3):  # warm the pools and the grad buffer
            p.zero_grad()
            op(p).backward()
        pin_bytes = op.pin_cell_sorted.shape[0] * 8
        assert pin_bytes > 8 * 4096, "fixture too small to detect leaks"
        tracemalloc.start()
        try:
            p.zero_grad()
            op(p).backward()  # settle tracemalloc bookkeeping
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(4):
                p.zero_grad()
                op(p).backward()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # steady state must not allocate even one pin-sized temporary
        assert peak - base < pin_bytes // 2, (peak - base, pin_bytes)
        assert current - base < 8192, (current - base,)
