"""Tests for the convergence-monitor / checkpoint-rollback subsystem."""

import math

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate
from repro.core import GlobalPlacer, PlacementParams
from repro.core.convergence import (
    ConvergenceMonitor,
    IterationStatus,
    PlacerSnapshot,
)
from repro.core.density_weight import DensityWeight
from repro.nn import Parameter, Tensor
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import (
    SGD,
    Adam,
    ConjugateGradient,
    ExponentialLR,
    NesterovLineSearch,
    RMSProp,
)


def make_db(seed=9, cells=150):
    return generate(CircuitSpec(name="conv", num_cells=cells, num_ios=8,
                                utilization=0.55, seed=seed))


# ----------------------------------------------------------------------
class TestConvergenceMonitor:
    def test_improving_when_overflow_drops(self):
        monitor = ConvergenceMonitor()
        monitor.observe(0, 100.0, 0.8)
        status = monitor.observe(1, 110.0, 0.5)
        assert status is IterationStatus.IMPROVING
        assert monitor.progress_improved

    def test_plateau_counting_and_exceeded(self):
        monitor = ConvergenceMonitor(plateau_patience=3)
        monitor.observe(0, 100.0, 0.5)
        for i in range(1, 4):
            # overflow flat, hpwl growing: no progress on either key
            monitor.observe(i, 100.0 + i, 0.5)
        assert monitor.plateau_count >= 3
        assert monitor.plateau_exceeded

    def test_diverging_when_hpwl_blows_up(self):
        monitor = ConvergenceMonitor(divergence_ratio=2.0)
        monitor.observe(1, 100.0, 0.5)
        status = monitor.observe(2, 250.0, 0.5)
        assert status is IterationStatus.DIVERGING
        assert not monitor.progress_improved
        assert not monitor.wirelength_improved

    def test_initial_state_not_a_divergence_anchor(self):
        # the clustered iteration-0 HPWL sits far below any spread
        # iterate and must not trip the ratio test
        monitor = ConvergenceMonitor(divergence_ratio=2.0)
        monitor.observe(0, 10.0, 0.9)
        status = monitor.observe(1, 100.0, 0.5)
        assert status is IterationStatus.IMPROVING

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_metrics(self, bad):
        monitor = ConvergenceMonitor()
        assert monitor.observe(1, bad, 0.5) is IterationStatus.NON_FINITE
        assert monitor.observe(1, 1.0, bad) is IterationStatus.NON_FINITE
        assert monitor.observe(1, 1.0, 0.5, loss=bad) is \
            IterationStatus.NON_FINITE

    def test_non_finite_arrays(self):
        monitor = ConvergenceMonitor()
        poisoned = np.array([1.0, float("nan"), 2.0])
        clean = np.ones(3)
        assert monitor.observe(1, 1.0, 0.5, grad=poisoned) is \
            IterationStatus.NON_FINITE
        assert monitor.observe(1, 1.0, 0.5, pos=poisoned) is \
            IterationStatus.NON_FINITE
        assert monitor.observe(1, 1.0, 0.5, grad=clean, pos=clean) is \
            IterationStatus.IMPROVING

    def test_rollback_reanchors_divergence(self):
        monitor = ConvergenceMonitor(divergence_ratio=2.0)
        monitor.observe(1, 100.0, 0.5)
        assert monitor.observe(2, 500.0, 0.5) is IterationStatus.DIVERGING
        monitor.notify_rollback(400.0)
        # relative to the restored iterate 500 is no longer divergent
        assert monitor.observe(3, 500.0, 0.5) is not IterationStatus.DIVERGING
        assert monitor.plateau_count <= 1

    def test_feasible_iterates_compete_on_wirelength(self):
        monitor = ConvergenceMonitor(stop_overflow=0.1)
        monitor.observe(1, 100.0, 0.05)
        # overflow got "worse" but is still under target: lower hpwl wins
        status = monitor.observe(2, 90.0, 0.08)
        assert status is IterationStatus.IMPROVING
        assert monitor.progress_improved

    def test_new_round_resets_references(self):
        monitor = ConvergenceMonitor(plateau_patience=2)
        monitor.observe(0, 100.0, 0.2)
        monitor.observe(1, 120.0, 0.2)
        monitor.observe(2, 121.0, 0.2)
        assert monitor.plateau_exceeded
        monitor.new_round(stop_overflow=0.15)
        assert not monitor.plateau_exceeded
        assert monitor.stop_overflow == 0.15
        # warm-start metrics count as fresh progress next round
        monitor.observe(0, 130.0, 0.2)
        assert monitor.progress_improved


# ----------------------------------------------------------------------
def quadratic_closure(p, scale):
    def closure():
        p.zero_grad()
        loss = F.tensor_sum(F.square(p) * Tensor(scale))
        loss.backward()
        return loss

    return closure


OPTIMIZERS = {
    "sgd": lambda p: SGD([p], lr=0.05, momentum=0.9),
    "adam": lambda p: Adam([p], lr=0.1),
    "rmsprop": lambda p: RMSProp([p], lr=0.05, momentum=0.5),
    "nesterov": lambda p: NesterovLineSearch([p], lr=0.5),
    "cg": lambda p: ConjugateGradient([p], lr=0.5),
}


class TestOptimizerStateDicts:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_round_trip_resumes_exact_trajectory(self, name):
        p = Parameter([5.0, -3.0, 2.0])
        opt = OPTIMIZERS[name](p)
        closure = quadratic_closure(p, [1.0, 2.0, 0.5])
        for _ in range(5):
            opt.step(closure)
        state = opt.state_dict()
        saved_pos = p.data.copy()
        reference = []
        for _ in range(5):
            opt.step(closure)
            reference.append(p.data.copy())
        # perturb everything, then restore and replay
        p.data = p.data + 10.0
        opt.load_state_dict(state)
        if name not in ("nesterov",):  # nesterov restores params from v
            p.data = saved_pos.copy()
        np.testing.assert_allclose(p.data, saved_pos)
        for expected in reference:
            opt.step(closure)
            np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_state_dict_is_a_deep_copy(self, name):
        p = Parameter([4.0, 1.0])
        opt = OPTIMIZERS[name](p)
        closure = quadratic_closure(p, [1.0, 1.0])
        opt.step(closure)
        state = opt.state_dict()
        before = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                  for k, v in state.items()}
        opt.step(closure)
        opt.step(closure)
        for key, value in before.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_allclose(state[key], value)

    def test_nesterov_unstepped_state_round_trips(self):
        p = Parameter([1.0])
        opt = NesterovLineSearch([p], lr=0.5)
        state = opt.state_dict()
        assert state["v"] is None
        opt.load_state_dict(state)
        opt.step(quadratic_closure(p, [1.0]))  # still works

    def test_scheduler_state_round_trip(self):
        p = Parameter([1.0])
        opt = SGD([p], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        state = sched.state_dict()
        sched.step()
        sched.load_state_dict(state)
        assert sched.last_epoch == 2
        assert opt.lr == pytest.approx(0.25)

    def test_density_weight_state_round_trip(self):
        weight = DensityWeight()
        weight.initialize(np.ones(4), np.full(4, 2.0))
        weight.update(100.0)
        weight.update(90.0)
        state = weight.state_dict()
        value = weight.value
        weight.update(500.0)
        weight.load_state_dict(state)
        assert weight.value == value
        assert weight._last_hpwl == 90.0

    def test_gp_loop_state_round_trip(self):
        """A checkpointed ``GpLoopState`` loaded into a fresh placer's
        loop serializes back to the same dict, with the key set every
        ``PlacerCheckpoint`` on disk already has."""
        params = PlacementParams(seed=9)
        captured = {}

        def hook(placer, info):
            if info["iteration"] == 6:
                captured.update(placer.capture_loop_state())

        GlobalPlacer(make_db(), params).place(max_iters=8,
                                              on_iteration=hook)
        assert set(captured) == {
            "iteration", "hpwl", "overflow", "pos", "gamma",
            "density_weight", "optimizer", "scheduler", "weight",
            "monitor", "best_snap", "best_wl_snap", "hpwl_trace",
            "overflow_trace", "best_hpwl", "recoveries",
        }
        fresh = GlobalPlacer(make_db(), params)
        loop = fresh._begin(params.stop_overflow, None, captured)
        assert loop.iteration == 6 and len(loop.hpwl_trace) == 6
        np.testing.assert_array_equal(fresh.pos.data, captured["pos"])
        assert fresh.objective.gamma == captured["gamma"]
        _assert_state_equal(loop.state_dict(), captured)
        # and it is a copy: advancing the loop leaves the dict alone
        pos = captured["pos"].copy()
        fresh.place(max_iters=8, resume_state=captured)
        np.testing.assert_array_equal(captured["pos"], pos)


def _assert_state_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_state_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_state_equal(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b or (a != a and b != b)  # NaN round-trips as NaN


# ----------------------------------------------------------------------
class TestNesterovNaNGuard:
    def test_nan_gradient_never_written_to_params(self):
        p = Parameter([5.0, -3.0])
        opt = NesterovLineSearch([p], lr=0.5)
        calls = {"n": 0}

        def closure():
            calls["n"] += 1
            p.zero_grad()
            loss = F.tensor_sum(F.square(p))
            loss.backward()
            if calls["n"] > 2:
                p.grad = np.full_like(p.grad, np.nan)
            return loss

        opt.step(closure)
        before = p.data.copy()
        opt.step(closure)  # poisoned closure: step must refuse to commit
        assert np.isfinite(p.data).all()
        np.testing.assert_allclose(p.data, before)

    def test_recovers_after_transient_nan(self):
        p = Parameter([5.0])
        opt = NesterovLineSearch([p], lr=0.5)
        calls = {"n": 0}

        def closure():
            calls["n"] += 1
            p.zero_grad()
            loss = F.tensor_sum(F.square(p))
            loss.backward()
            if calls["n"] in (3, 4):
                p.grad = np.array([np.nan])
            return loss

        final = None
        for _ in range(40):
            final = opt.step(closure)
        assert np.isfinite(p.data).all()
        assert final.item() < 1e-4

    def test_zero_max_backtracks_no_name_error(self):
        p = Parameter([5.0, -3.0])
        opt = NesterovLineSearch([p], lr=0.5, max_backtracks=0)
        closure = quadratic_closure(p, [1.0, 2.0])
        first = closure().item()
        last = first
        for _ in range(60):
            last = opt.step(closure).item()
        assert last < first


# ----------------------------------------------------------------------
class FaultyWirelength(Module):
    """Wirelength wrapper that poisons one forward pass with NaN."""

    def __init__(self, inner, fail_at_call):
        self.inner = inner
        self.fail_at_call = fail_at_call
        self.calls = 0

    def forward(self, pos):
        self.calls += 1
        out = self.inner(pos)
        if self.calls == self.fail_at_call:
            return out * Tensor(float("nan"))
        return out

    @property
    def gamma(self):
        return self.inner.gamma

    @gamma.setter
    def gamma(self, value):
        self.inner.gamma = value


def _forced_divergence_params(**overrides):
    base = dict(
        density_weight_scale=100.0,  # lambda forced 100x past balance
        divergence_ratio=2.0,
        min_global_iters=2,
        max_global_iters=80,
        stop_overflow=0.0,
        max_recoveries=1,
        recovery_lambda_damping=0.9,
        seed=9,
    )
    base.update(overrides)
    return PlacementParams(**base)


class TestDivergenceRecovery:
    def test_rollback_engages_and_returns_best(self):
        placer = GlobalPlacer(make_db(), _forced_divergence_params())
        result = placer.place()
        assert result.recoveries >= 1
        assert result.diverged
        # the bugfix: the diverged final iterate is NOT returned; the
        # best checkpoint is, so HPWL is bounded by the whole trace
        assert result.hpwl <= np.nanmin(result.hpwl_trace) + 1e-9
        assert result.hpwl <= result.best_hpwl + 1e-9
        assert np.isfinite(placer.pos.data).all()
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()

    def test_no_recovery_still_returns_best(self):
        placer = GlobalPlacer(
            make_db(), _forced_divergence_params(enable_recovery=False),
        )
        result = placer.place()
        assert result.recoveries == 0
        assert result.diverged
        assert result.hpwl <= np.nanmin(result.hpwl_trace) + 1e-9

    def test_recovery_budget_respected(self):
        placer = GlobalPlacer(
            make_db(), _forced_divergence_params(max_recoveries=2),
        )
        result = placer.place()
        assert result.recoveries <= 2

    @staticmethod
    def _faulty_factory(fail_at_call):
        def factory(db_, gamma, dtype):
            from repro.ops.wa_wirelength import WeightedAverageWirelength

            inner = WeightedAverageWirelength(db_, gamma=gamma, dtype=dtype)
            return FaultyWirelength(inner, fail_at_call=fail_at_call)

        return factory

    def test_nan_gradient_absorbed_by_line_search(self):
        # nesterov's line-search guard refuses the poisoned trial and
        # retries with a clean closure call: no rollback needed
        db = make_db(seed=11)
        params = PlacementParams(max_global_iters=40, min_global_iters=2,
                                 max_recoveries=2, seed=11)
        placer = GlobalPlacer(db, params,
                              wirelength_factory=self._faulty_factory(12))
        result = placer.place(max_iters=30)
        assert np.isfinite(placer.pos.data).all()
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()
        assert np.isfinite(result.hpwl)
        assert not result.diverged

    def test_nan_gradient_triggers_monitor_rollback(self):
        # adam has no internal guard: the poisoned gradient reaches the
        # positions and the convergence monitor must roll back
        db = make_db(seed=11)
        params = PlacementParams(optimizer="adam", learning_rate=0.01,
                                 max_global_iters=40, min_global_iters=2,
                                 max_recoveries=2, seed=11)
        placer = GlobalPlacer(db, params,
                              wirelength_factory=self._faulty_factory(12))
        result = placer.place(max_iters=30)
        # one poisoned backward must not leak NaN anywhere
        assert np.isfinite(placer.pos.data).all()
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()
        assert np.isfinite(result.hpwl)
        assert result.recoveries >= 1

    def test_normal_run_unaffected(self):
        params = PlacementParams(max_global_iters=200, seed=5)
        result = GlobalPlacer(make_db(cells=200, seed=5), params).place()
        assert result.recoveries == 0
        assert not result.diverged
        assert math.isfinite(result.best_hpwl)

    def test_converged_run_never_worse_than_best_feasible(self):
        params = PlacementParams(max_global_iters=300, seed=5)
        result = GlobalPlacer(make_db(cells=200, seed=5), params).place()
        feasible = [
            h for h, o in zip(result.hpwl_trace, result.overflow_trace)
            if o <= params.stop_overflow
        ]
        if feasible:
            assert result.hpwl <= min(feasible) + 1e-9


# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_exact_rollback(self):
        placer = GlobalPlacer(make_db(), PlacementParams(seed=9))
        result = placer.place(max_iters=10)
        optimizer = placer._optimizer
        weight = placer._init_density_weight()
        snap = placer._capture_snapshot(
            10, result.hpwl, result.overflow, optimizer, None, weight,
        )
        pos = placer.pos.data.copy()
        lam = weight.value
        # wreck the state, then restore
        placer.pos.data = placer.pos.data + 7.0
        placer.objective.density_weight *= 100.0
        weight.value *= 100.0
        placer._restore_snapshot(snap, optimizer, None, weight)
        np.testing.assert_allclose(placer.pos.data, pos)
        assert weight.value == pytest.approx(lam)
        assert placer.objective.density_weight == pytest.approx(lam)

    def test_lambda_damping_applied(self):
        placer = GlobalPlacer(make_db(), PlacementParams(seed=9))
        placer.place(max_iters=5)
        weight = placer._init_density_weight()
        snap = placer._capture_snapshot(
            5, 1.0, 1.0, placer._optimizer, None, weight,
        )
        value = weight.value
        placer._restore_snapshot(snap, placer._optimizer, None, weight,
                                 lambda_damping=0.25)
        assert weight.value == pytest.approx(0.25 * value)

    def test_snapshot_preserves_dtype(self):
        params = PlacementParams(dtype="float32", seed=9)
        placer = GlobalPlacer(make_db(), params)
        placer.place(max_iters=5)
        weight = placer._init_density_weight()
        snap = placer._capture_snapshot(
            5, 1.0, 1.0, placer._optimizer, None, weight,
        )
        placer._restore_snapshot(snap, placer._optimizer, None, weight)
        assert placer.pos.data.dtype == np.float32


# ----------------------------------------------------------------------
class TestFloat32Invariant:
    @pytest.mark.parametrize("optimizer",
                             ["nesterov", "adam", "sgd", "rmsprop", "cg"])
    def test_dtype_never_upcast(self, optimizer):
        params = PlacementParams(dtype="float32", optimizer=optimizer,
                                 learning_rate=0.01, min_global_iters=1,
                                 seed=3)
        placer = GlobalPlacer(make_db(seed=3, cells=80), params)
        assert placer._lo.dtype == np.float32
        assert placer._hi.dtype == np.float32
        result = placer.place(max_iters=10)
        assert placer.pos.data.dtype == np.float32
        assert np.isfinite(result.hpwl)

    def test_float32_end_to_end_with_warm_restart(self):
        params = PlacementParams(dtype="float32", seed=3)
        placer = GlobalPlacer(make_db(seed=3, cells=80), params)
        result = placer.place(max_iters=10)
        placer.set_positions(result.x, result.y)
        assert placer.pos.data.dtype == np.float32
        placer.place(max_iters=5)
        assert placer.pos.data.dtype == np.float32


# ----------------------------------------------------------------------
class TestWarmRestartWiring:
    def test_optimizer_persists_across_place_calls(self):
        placer = GlobalPlacer(make_db(), PlacementParams(seed=9))
        placer.place(max_iters=5)
        first = placer._optimizer
        assert first is not None
        placer.place(max_iters=5)
        assert placer._optimizer is first

    def test_set_positions_rebinds_optimizer(self):
        placer = GlobalPlacer(make_db(), PlacementParams(seed=9))
        result = placer.place(max_iters=5)
        assert placer._optimizer._v is not None or \
            placer._optimizer._g is not None
        placer.set_positions(result.x, result.y)
        # rebind() dropped the value-derived caches
        assert placer._optimizer._v is None
        assert placer._optimizer._g is None

    def test_shared_monitor_across_rounds(self):
        db = make_db()
        placer = GlobalPlacer(db, PlacementParams(seed=9))
        monitor = ConvergenceMonitor(stop_overflow=0.1)
        placer.place(max_iters=5, monitor=monitor)
        best = monitor.best_hpwl
        placer.place(max_iters=5, monitor=monitor)
        # divergence anchor carried across rounds
        assert monitor.best_hpwl <= best

    def test_reset_momentum_noop_for_memoryless(self):
        p = Parameter([1.0])
        opt = SGD([p], lr=0.1)  # momentum 0: velocity stays zero
        opt.reset_momentum()
        opt.rebind()


# ----------------------------------------------------------------------
class TestFlowPropagation:
    def test_placement_result_carries_recovery_fields(self):
        from repro.core import DreamPlacer

        db = make_db(cells=120)
        params = PlacementParams(max_global_iters=60, min_global_iters=1,
                                 legalize=False, detailed=False, seed=9)
        result = DreamPlacer(db, params).run()
        assert result.recoveries == 0
        assert result.diverged is False
        assert math.isfinite(result.best_hpwl)

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["place", "demo.aux", "--no-recovery", "--max-recoveries", "5"]
        )
        assert args.no_recovery
        assert args.max_recoveries == 5

    def test_snapshot_dataclass_defaults(self):
        snap = PlacerSnapshot(0, 1.0, 0.5, np.zeros(4))
        assert snap.optimizer_state is None
        assert math.isnan(snap.gamma)
