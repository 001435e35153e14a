"""Tests for the captured-tape execution engine (repro.nn.tape).

The replay contract is bit-exactness: a captured objective graph must
produce the same objective value, the same gradients, and therefore the
same placement trajectory as eager evaluation, across wirelength models,
strategies and dtypes, and across every structural event that forces a
recapture (rollback, warm restart, checkpoint resume).
"""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate
from repro.core import FenceRegion, GlobalPlacer, PlacementParams
from repro.geometry import PlacementRegion
from repro.geometry.bins import BinGrid
from repro.netlist import CellKind, Netlist
from repro.nn import Parameter, Tensor
from repro.nn import functional as F
from repro.nn.function import Function
from repro.nn.tape import CaptureError, TapeInvalidated, capture
from repro.ops.electrostatics import PoissonSolver


def make_db(seed=7, cells=120):
    return generate(CircuitSpec(name="tape", num_cells=cells, num_ios=8,
                                utilization=0.55, seed=seed))


# ----------------------------------------------------------------------
class TestCaptureUnit:
    @staticmethod
    def _closure(p, c):
        def run():
            p.zero_grad()
            obj = F.tensor_sum(F.square(F.mul(F.add(p, c), p)))
            obj.backward()
            return obj
        return run

    def test_replay_matches_eager(self):
        p = Parameter(np.linspace(-1.0, 1.0, 7))
        c = Tensor(np.full(7, 0.25))
        run = self._closure(p, c)
        loss, tape = capture(run)
        assert tape is not None
        grad_eager = p.grad.copy()
        for _ in range(3):
            p.zero_grad()
            out = tape.replay()
            assert float(out.data) == float(loss.data)
            assert np.array_equal(p.grad, grad_eager)
        assert tape.replays == 3

    def test_leaf_rebind_flows_into_replay(self):
        p = Parameter(np.linspace(-1.0, 1.0, 7))
        c = Tensor(np.full(7, 0.25))
        run = self._closure(p, c)
        _, tape = capture(run)
        # the optimizer moves the parameter in place between iterations
        p.data[:] = np.linspace(0.5, 2.0, 7)
        p.zero_grad()
        replayed = tape.replay()
        grad_replay = p.grad.copy()
        eager = run()
        assert float(replayed.data) == float(eager.data)
        assert np.array_equal(grad_replay, p.grad)

    def test_leaf_shape_change_invalidates(self):
        p = Parameter(np.ones(5))
        c = Tensor(np.ones(5))
        _, tape = capture(self._closure(p, c))
        p.data = np.ones(6)
        p.zero_grad()
        with pytest.raises(TapeInvalidated):
            tape.replay()

    def test_leaf_dtype_change_invalidates(self):
        p = Parameter(np.ones(5))
        c = Tensor(np.ones(5))
        _, tape = capture(self._closure(p, c))
        p.data = np.ones(5, dtype=np.float32)
        p.zero_grad()
        with pytest.raises(TapeInvalidated):
            tape.replay()

    def test_unsafe_op_yields_no_tape(self):
        class _Opaque(Function):  # capture_safe defaults to False
            def forward(self, a):
                return a * 2.0

            def backward(self, grad_output):
                return 2.0 * grad_output

        p = Parameter(np.ones(4))

        def run():
            p.zero_grad()
            obj = F.tensor_sum(_Opaque.apply(p))
            obj.backward()
            return obj

        loss, tape = capture(run)
        assert tape is None  # eager result still valid
        assert float(loss.data) == 8.0
        assert np.array_equal(p.grad, np.full(4, 2.0))

    def test_no_backward_yields_no_tape(self):
        p = Parameter(np.ones(4))
        _, tape = capture(lambda: F.tensor_sum(p))
        assert tape is None

    def test_nested_capture_raises(self):
        p = Parameter(np.ones(3))

        def outer():
            capture(self._closure(p, Tensor(np.ones(3))))

        with pytest.raises(CaptureError):
            capture(outer)


# ----------------------------------------------------------------------
class TestDeepGraph:
    def test_deep_chain_backward_no_recursion_error(self):
        # regression: the recursive postorder build overflowed CPython's
        # stack around ~1000 chained ops
        p = Parameter(np.array([1.0]))
        c = Tensor(np.array([0.001]))
        out = p
        for _ in range(5000):
            out = F.add(out, c)
        loss = F.tensor_sum(out)
        loss.backward()
        assert np.array_equal(p.grad, np.array([1.0]))

    def test_deep_chain_replay_matches_eager(self):
        p = Parameter(np.array([2.0]))
        c = Tensor(np.array([1.0 + 1e-9]))

        def run():
            p.zero_grad()
            out = p
            for _ in range(2000):
                out = F.mul(out, c)
            obj = F.tensor_sum(out)
            obj.backward()
            return obj

        loss, tape = capture(run)
        assert tape is not None
        grad_eager = p.grad.copy()
        p.zero_grad()
        replayed = tape.replay()
        assert float(replayed.data) == float(loss.data)
        assert np.array_equal(p.grad, grad_eager)


# ----------------------------------------------------------------------
class TestBatchedSolver:
    """``solve(impl="2d")`` runs on ``scipy.fft``; the paper's transforms
    one after another (``_solve_sequential``, Algorithm 4) are its
    independent reference."""

    @staticmethod
    def _setup():
        grid = BinGrid(PlacementRegion(0, 0, 64, 48), 32, 16)
        rho = np.random.default_rng(5).random(grid.shape)
        ref = PoissonSolver(grid)._solve_sequential(rho)
        return grid, rho, ref

    @staticmethod
    def _assert_close(got, ref, rtol):
        for name in ("potential", "field_x", "field_y"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name

    def test_solve_matches_algorithm4(self):
        grid, rho, ref = self._setup()
        solver = PoissonSolver(grid)
        for _ in range(2):  # cold, then cached constants
            self._assert_close(solver.solve(rho), ref, 1e-12)

    def test_odd_grid_matches_naive(self):
        """Algorithm 4 rejects odd lengths; the O(N^2) naive solve does not."""
        grid = BinGrid(PlacementRegion(0, 0, 45, 26), 15, 13)
        rho = np.random.default_rng(6).random(grid.shape)
        ref = PoissonSolver(grid, impl="naive").solve(rho)
        self._assert_close(PoissonSolver(grid).solve(rho), ref, 1e-12)

    def test_default_solver_returns_fresh_maps(self):
        """Successive results must not alias."""
        grid, rho, ref = self._setup()
        solver = PoissonSolver(grid)
        first = solver.solve(rho)
        second = solver.solve(2.0 * rho)
        self._assert_close(first, ref, 1e-12)
        for name in ("potential", "field_x", "field_y"):
            a, b = getattr(first, name), getattr(second, name)
            assert not np.shares_memory(a, b)
            np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
def _place(db, capture_on, **overrides):
    base = dict(max_global_iters=25, min_global_iters=5, seed=5,
                graph_capture=capture_on)
    base.update(overrides)
    placer = GlobalPlacer(db, PlacementParams(**base))
    result = placer.place()
    return placer, result


class TestPlacerCapture:
    @pytest.mark.parametrize("config", [
        dict(wirelength="wa", wirelength_strategy="merged",
             dtype="float64"),
        dict(wirelength="lse", wirelength_strategy="atomic",
             dtype="float32"),
    ])
    def test_captured_place_bit_exact(self, config):
        placer_e, _ = _place(make_db(), False, **config)
        placer_r, _ = _place(make_db(), True, **config)
        assert placer_r._tape is not None
        assert placer_r._tape.replays > 0
        assert np.array_equal(placer_e.pos.data, placer_r.pos.data)

    def test_watched_metrics_flow_from_replay(self):
        placer, _ = _place(make_db(), True)
        assert placer._tape.replays > 0
        assert np.isfinite(placer.objective.last_wirelength)
        assert np.isfinite(placer.objective.last_density)

    def test_unsafe_wirelength_factory_falls_back_to_eager(self):
        def factory(db_, gamma, dtype):
            from repro.ops.wa_wirelength import WeightedAverageWirelength

            return WeightedAverageWirelength(db_, gamma=gamma, dtype=dtype)

        db = make_db()
        placer = GlobalPlacer(
            db, PlacementParams(max_global_iters=10, min_global_iters=2,
                                seed=5),
            wirelength_factory=factory,
        )
        result = placer.place()
        assert placer._tape is None
        assert np.isfinite(result.hpwl)

    def test_rollback_recaptures_and_stays_bit_exact(self):
        # forced divergence: the monitor rolls back (invalidating the
        # tape), the next closure recaptures, and the whole trajectory
        # still matches the eager run bit for bit
        overrides = dict(density_weight_scale=100.0, divergence_ratio=2.0,
                         min_global_iters=2, max_global_iters=40,
                         stop_overflow=0.0, max_recoveries=1,
                         recovery_lambda_damping=0.9, seed=9)
        placer_e, result_e = _place(make_db(seed=9, cells=150), False,
                                    **overrides)
        placer_r, result_r = _place(make_db(seed=9, cells=150), True,
                                    **overrides)
        assert result_r.recoveries >= 1
        assert result_r.recoveries == result_e.recoveries
        assert np.array_equal(placer_e.pos.data, placer_r.pos.data)

    def test_warm_restart_recaptures(self):
        db = make_db()
        placer, _ = _place(db, True, max_global_iters=8)
        first = placer._tape
        assert first is not None
        x = placer.pos.data[:db.num_cells].copy()
        y = placer.pos.data[db.num_cells:2 * db.num_cells].copy()
        placer.set_positions(x, y)
        assert placer._tape is None  # structural event drops the tape
        placer.place(max_iters=5)
        assert placer._tape is not None
        assert placer._tape is not first

    def test_checkpoint_resume_bit_exact(self):
        overrides = dict(max_global_iters=20)
        _, result_full = _place(make_db(), True, **overrides)

        class _Abort(Exception):
            pass

        state = {}

        def grab(placer, info):
            if info["iteration"] == 8:
                state["loop"] = placer.capture_loop_state()
                raise _Abort

        db = make_db()
        interrupted = GlobalPlacer(
            db, PlacementParams(max_global_iters=20, min_global_iters=5,
                                seed=5, graph_capture=True))
        with pytest.raises(_Abort):
            interrupted.place(on_iteration=grab)

        resumed = GlobalPlacer(
            db, PlacementParams(max_global_iters=20, min_global_iters=5,
                                seed=5, graph_capture=True))
        result_res = resumed.place(resume_state=state["loop"])
        assert resumed._tape is not None and resumed._tape.replays > 0
        assert np.array_equal(result_full.x, result_res.x)
        assert np.array_equal(result_full.y, result_res.y)

    def test_capture_disabled_runs_eager(self):
        placer, result = _place(make_db(), False, max_global_iters=8)
        assert placer._tape is None
        assert np.isfinite(result.hpwl)


# ----------------------------------------------------------------------
class TestFencedCapture:
    def _build(self):
        region = PlacementRegion(0, 0, 48, 48)
        netlist = Netlist("fcap")
        rng = np.random.default_rng(3)
        for i in range(80):
            netlist.add_cell(f"c{i}", float(rng.integers(1, 4)), 1.0,
                             CellKind.MOVABLE, x=24.0, y=24.0)
        for e in range(80):
            a = int(rng.integers(80))
            b = int(rng.integers(80))
            if a == b:
                b = (b + 1) % 80
            netlist.add_net(f"n{e}", [(a, 0.5, 0.5), (b, 0.5, 0.5)])
        db = netlist.compile(region)
        fences = [
            FenceRegion("L", 2, 2, 20, 46, cells=list(range(40))),
            FenceRegion("R", 28, 2, 46, 46, cells=list(range(40, 80))),
        ]
        return db, fences

    def test_fenced_place_bit_exact(self):
        db, fences = self._build()
        params = dict(max_global_iters=25, min_global_iters=5, seed=5)
        p_eager = GlobalPlacer(
            db, PlacementParams(graph_capture=False, **params),
            fences=fences)
        p_eager.place()
        db2, fences2 = self._build()
        p_replay = GlobalPlacer(
            db2, PlacementParams(graph_capture=True, **params),
            fences=fences2)
        p_replay.place()
        assert p_replay._tape is not None
        assert p_replay._tape.replays > 0
        assert np.array_equal(p_eager.pos.data, p_replay.pos.data)
