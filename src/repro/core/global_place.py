"""Kernel global-placement loop (the "Kernel GP iterations" of Fig. 2(b)).

Builds the extended position vector (movable cells + fillers), the
wirelength and density operators, and runs gradient descent with gamma
annealing and density-weight updating until the overflow target is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import (
    ConvergenceMonitor,
    GpLoopState,
    IterationStatus,
    PlacerSnapshot,
)
from repro.core.density_weight import DensityWeight
from repro.core.gamma import GammaScheduler
from repro.core.initial_place import (
    compute_fillers,
    random_center_init,
    uniform_filler_init,
)
from repro.core.objective import PlacementObjective
from repro.core.params import PlacementParams
from repro.geometry.bins import BinGrid
from repro.netlist.database import PlacementDB
from repro.nn.optim import (
    SGD,
    Adam,
    ConjugateGradient,
    ExponentialLR,
    NesterovLineSearch,
    RMSProp,
)
from repro.nn.tape import TapeInvalidated, capture
from repro.nn.tensor import Parameter
from repro.ops.density_op import ElectricDensity
from repro.ops.density_overflow import density_overflow, fixed_free_area
from repro.ops.lse_wirelength import LogSumExpWirelength
from repro.ops.wa_wirelength import WeightedAverageWirelength
from repro.obs.trace import trace_span
from repro.perf.workspace import Workspace


@dataclass
class GlobalPlaceResult:
    """Outcome of one global-placement run."""

    x: np.ndarray
    y: np.ndarray
    hpwl: float
    overflow: float
    iterations: int
    runtime: float
    converged: bool
    hpwl_trace: list[float] = field(default_factory=list)
    overflow_trace: list[float] = field(default_factory=list)
    #: the loop hit the divergence/NaN guard and its recovery budget
    diverged: bool = False
    #: checkpoint rollbacks performed during the run
    recoveries: int = 0
    #: minimum finite HPWL observed across the trace
    best_hpwl: float = math.nan
    #: per-level outcome dicts when this result came out of the
    #: multilevel cascade (coarsest first); None for a flat run
    levels: list | None = None


class GlobalPlacer:
    """ePlace-style nonlinear global placement on the nn substrate."""

    def __init__(self, db: PlacementDB, params: PlacementParams | None = None,
                 wirelength_factory=None, fences=None):
        """``wirelength_factory(db, gamma, dtype) -> Module`` plugs in a
        custom wirelength operator (the paper's extensibility story:
        new objectives are new OPs); default follows ``params.wirelength``.

        ``fences`` is an optional list of
        :class:`~repro.core.fence.FenceRegion`: each fence gets its own
        electric field (Section III-G) and its cells are clamped inside
        it.  Fences disable filler cells.
        """
        self.db = db
        self.params = params or PlacementParams()
        self.wirelength_factory = wirelength_factory
        self.fences = list(fences) if fences else None
        self.rng = np.random.default_rng(self.params.seed)
        num_bins = self.params.resolve_num_bins(db.num_movable)
        self.grid = BinGrid(db.region, num_bins, num_bins)
        self.gamma_schedule = GammaScheduler(
            self.grid, self.params.gamma_factor
        )
        self._build_variables()
        self._build_ops()
        #: lambda update period (>1 during routability rounds, III-F)
        self.lambda_period = 1
        # the optimizer persists across place() calls so warm restarts
        # (inflation rounds, post-rollback continuation) reuse it via
        # rebind()/reset_momentum() instead of silently rebuilding
        self._optimizer = None
        self._scheduler = None
        # the running place() loop's state, so capture_loop_state()
        # (checkpointing) can reach it from an on_iteration callback
        self._loop: GpLoopState | None = None
        # captured objective tape (repro.nn.tape): recorded on the first
        # closure evaluation of a place() call, replayed afterwards, and
        # dropped on every structural event (rollback, warm restart,
        # resume, set_positions) so the next closure recaptures
        self._tape = None
        self._capture_ok = True
        #: extra keys folded into every capture_loop_state() dict; the
        #: round driver stores its active round here so a checkpoint
        #: taken mid-schedule records where to resume
        self.checkpoint_extra: dict = {}

    # ------------------------------------------------------------------
    def _build_variables(self) -> None:
        params = self.params
        db = self.db
        x, y = random_center_init(db, params.init_noise_ratio, self.rng)
        if params.use_fillers and self.fences is None:
            count, fw, fh = compute_fillers(db, params.target_density)
        else:
            count, fw, fh = 0, 0.0, 0.0
        self.num_fillers = count
        self.filler_width = fw
        self.filler_height = fh
        if count:
            fx, fy = uniform_filler_init(count, db, fw, fh, self.rng)
            x = np.concatenate([x, fx])
            y = np.concatenate([y, fy])
        self.pos = Parameter(
            np.concatenate([x, y]), dtype=params.np_dtype()
        )
        # per-entry clamp bounds (fixed cells clamp to themselves)
        widths = np.concatenate([
            db.cell_width, np.full(count, fw),
        ])
        heights = np.concatenate([
            db.cell_height, np.full(count, fh),
        ])
        r = db.region
        n = db.num_cells + count
        # clamp bounds share the position dtype: float64 bounds would
        # silently upcast float32 positions on every projection
        self._lo = np.empty(2 * n, dtype=params.np_dtype())
        self._hi = np.empty(2 * n, dtype=params.np_dtype())
        self._lo[:n] = r.xl
        self._hi[:n] = np.maximum(r.xh - widths, r.xl)
        self._lo[n:] = r.yl
        self._hi[n:] = np.maximum(r.yh - heights, r.yl)
        frozen = np.concatenate([~db.movable, np.zeros(count, dtype=bool)])
        frozen2 = np.concatenate([frozen, frozen])
        pos0 = self.pos.data
        self._lo[frozen2] = pos0[frozen2]
        self._hi[frozen2] = pos0[frozen2]
        if self.fences is not None:
            from repro.core.fence import fence_clamp_bounds

            # fence bounds replace the die bounds for fenced cells
            # (count == 0 when fences are active, so shapes match)
            dtype = params.np_dtype()
            fence_lo, fence_hi = fence_clamp_bounds(db, self.fences)
            self._lo = np.maximum(self._lo, fence_lo).astype(dtype,
                                                             copy=False)
            self._hi = np.minimum(self._hi, fence_hi).astype(dtype,
                                                             copy=False)
            self._hi = np.maximum(self._hi, self._lo)
            # start every cell inside its fence
            self.pos.data = self._clamp(self.pos.data)

    def _build_ops(self) -> None:
        params = self.params
        dtype = params.np_dtype()
        # one workspace shared by every op of this placer: kernels use
        # disjoint buffer-name prefixes, so pools never alias
        self.ws = Workspace()
        self._free_area = None  # lazy fixed-cell free-area map (overflow)
        if self.wirelength_factory is not None:
            wl_op = self.wirelength_factory(
                self.db, self.gamma_schedule(1.0), dtype
            )
        elif params.wirelength == "wa":
            wl_op = WeightedAverageWirelength(
                self.db, gamma=self.gamma_schedule(1.0),
                strategy=params.wirelength_strategy, dtype=dtype,
                workspace=self.ws,
                ignore_net_degree=params.ignore_net_degree,
            )
        elif params.wirelength == "lse":
            wl_op = LogSumExpWirelength(
                self.db, gamma=self.gamma_schedule(1.0), dtype=dtype,
                workspace=self.ws,
                ignore_net_degree=params.ignore_net_degree,
            )
        else:
            raise ValueError(f"unknown wirelength model {params.wirelength!r}")
        if self.fences is not None:
            from repro.core.fence import MultiRegionDensity

            density_op = MultiRegionDensity(
                self.db, self.fences,
                num_bins=max(self.grid.nx // 2, 8),
                dct_impl=params.dct_impl,
            )
        else:
            density_op = ElectricDensity(
                self.db, self.grid,
                num_fillers=self.num_fillers,
                filler_width=self.filler_width,
                filler_height=self.filler_height,
                strategy=params.density_strategy,
                dct_impl=params.dct_impl,
                dtype=dtype,
                workspace=self.ws,
            )
        self.objective = PlacementObjective(wl_op, density_op)

    def _build_optimizer(self):
        params = self.params
        scale = 0.5 * (self.db.region.width + self.db.region.height)
        name = params.optimizer
        if name == "nesterov":
            opt = NesterovLineSearch([self.pos], lr=0.01 * scale)
        elif name == "adam":
            opt = Adam([self.pos], lr=params.learning_rate * scale)
        elif name == "sgd":
            opt = SGD([self.pos], lr=params.learning_rate * scale,
                      momentum=params.momentum)
        elif name == "rmsprop":
            opt = RMSProp([self.pos], lr=params.learning_rate * scale)
        elif name == "cg":
            opt = ConjugateGradient([self.pos], lr=params.learning_rate * scale)
        else:
            raise ValueError(f"unknown optimizer {name!r}")
        scheduler = None
        if params.lr_decay < 1.0 and name in ("adam", "sgd", "rmsprop"):
            scheduler = ExponentialLR(opt, params.lr_decay)
        return opt, scheduler

    # ------------------------------------------------------------------
    def _clamp(self, flat: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(flat, self._lo), self._hi)

    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.db.num_cells + self.num_fillers
        data = self.pos.data
        return (
            np.asarray(data[:self.db.num_cells], dtype=np.float64),
            np.asarray(data[n:n + self.db.num_cells], dtype=np.float64),
        )

    def hpwl(self) -> float:
        with trace_span("gp.hpwl"):
            x, y = self._positions()
            return self.db.hpwl(x, y)

    def overflow(self) -> float:
        with trace_span("gp.overflow"):
            if self._free_area is None:
                # fixed cells never move: rasterize them once
                self._free_area = fixed_free_area(self.db, self.grid)
            x, y = self._positions()
            return density_overflow(
                self.db, self.grid, x, y, self.params.target_density,
                free_area=self._free_area,
                workspace=self.ws,
            )

    def _density_weight(self) -> DensityWeight:
        return DensityWeight(
            mu_min=self.params.mu_min,
            mu_max=self.params.mu_max,
            ref_delta_hpwl=self.params.ref_delta_hpwl,
            tcad_tweak=self.params.tcad_mu_tweak,
        )

    def _init_density_weight(self) -> DensityWeight:
        weight = self._density_weight()
        self.pos.zero_grad()
        wl = self.objective.wirelength(self.pos)
        wl.backward()
        wl_grad = self.pos.grad.copy()
        self.pos.zero_grad()
        density = self.objective.density(self.pos)
        density.backward()
        density_grad = self.pos.grad.copy()
        self.pos.zero_grad()
        weight.initialize(wl_grad, density_grad,
                          scale=self.params.density_weight_scale)
        return weight

    # ------------------------------------------------------------------
    def _capture_snapshot(self, iteration: int, hpwl: float, overflow: float,
                          optimizer, scheduler, weight) -> PlacerSnapshot:
        """Full checkpoint: positions + optimizer/lambda/gamma state."""
        return PlacerSnapshot(
            iteration=iteration, hpwl=hpwl, overflow=overflow,
            pos=self.pos.data.copy(),
            optimizer_state=optimizer.state_dict(),
            scheduler_state=(None if scheduler is None
                             else scheduler.state_dict()),
            weight_state=weight.state_dict(),
            gamma=self.objective.gamma,
        )

    def invalidate_tape(self) -> None:
        """Drop the captured objective tape (recapture on next closure)."""
        self._tape = None
        self._capture_ok = True

    def _restore_snapshot(self, snap: PlacerSnapshot, optimizer, scheduler,
                          weight, lambda_damping: float = 1.0) -> None:
        """Roll the loop back to ``snap`` exactly, optionally damping
        lambda so the retry does not diverge the same way again."""
        self.invalidate_tape()
        self.pos.data = snap.pos.copy()
        if snap.optimizer_state is not None:
            optimizer.load_state_dict(snap.optimizer_state)
        if scheduler is not None and snap.scheduler_state is not None:
            scheduler.load_state_dict(snap.scheduler_state)
        if snap.weight_state is not None:
            weight.load_state_dict(snap.weight_state)
            weight.value *= lambda_damping
            self.objective.density_weight = weight.value
        if math.isfinite(snap.gamma):
            self.objective.gamma = snap.gamma
        optimizer.reset_momentum()

    # ------------------------------------------------------------------
    def capture_loop_state(self) -> dict:
        """Serializable snapshot of the *entire* GP loop state.

        Unlike :class:`PlacerSnapshot` (the in-memory rollback target)
        this is the full :class:`GpLoopState` plus ``checkpoint_extra``
        (where the round driver records the active round), so a killed
        run restarted from this dict via ``place(resume_state=...)``
        replays the remaining iterations bit-exactly.  Only valid while
        ``place()`` is running — call it from an ``on_iteration``
        callback.
        """
        if self._loop is None:
            raise RuntimeError(
                "capture_loop_state() is only valid inside place(); "
                "call it from an on_iteration callback"
            )
        return {**self.checkpoint_extra, **self._loop.state_dict()}

    # ------------------------------------------------------------------
    def place(self, max_iters: int | None = None,
              stop_overflow: float | None = None,
              monitor: ConvergenceMonitor | None = None,
              on_iteration=None,
              resume_state: dict | None = None) -> GlobalPlaceResult:
        """Run the kernel GP loop to convergence.

        Every iteration is classified by a :class:`ConvergenceMonitor`
        (pass one in to share statistics across warm-started rounds);
        the best iterate is checkpointed and divergence or a non-finite
        loss/gradient rolls back to it with a damped density weight, up
        to ``params.max_recoveries`` times, before giving up gracefully.
        The returned positions are never worse than the best checkpoint.

        ``on_iteration(placer, info)`` is invoked after every completed
        iteration with ``info = {iteration, hpwl, overflow, status,
        recoveries}``; the callback may call :meth:`capture_loop_state`
        to checkpoint the loop, and an exception it raises aborts the
        run (the cooperative kill/timeout mechanism of ``repro.runner``).

        ``resume_state`` (a dict from :meth:`capture_loop_state`)
        continues an interrupted run from its checkpointed iteration;
        given identical database and parameters the remaining
        iterations replay bit-exactly.
        """
        params = self.params
        max_iters = params.max_global_iters if max_iters is None else max_iters
        stop = params.stop_overflow if stop_overflow is None else stop_overflow
        with trace_span("gp.place") as place:
            loop = self._loop = self._begin(stop, monitor, resume_state)
            closure = self._make_closure()
            converged = diverged = False

            for iteration in range(loop.iteration + 1, max_iters + 1):
                with trace_span("gp.iteration", iteration=iteration) as span:
                    loop.iteration = iteration
                    loss = self._step(loop, closure)
                    status = self._measure(loop, loss, span)
                    rollback = status is IterationStatus.NON_FINITE or (
                        status is IterationStatus.DIVERGING
                        and iteration > params.min_global_iters
                    )
                    if rollback:
                        if not self._recover(loop, status):
                            diverged = True
                            break
                    else:
                        self._schedule(loop)
                    # the hook runs after the rollback or the gamma/lambda
                    # updates, so a checkpoint captured in it resumes
                    # directly into the next iteration
                    if on_iteration is not None:
                        on_iteration(self, {
                            "iteration": iteration, "hpwl": loop.hpwl,
                            "overflow": loop.overflow, "status": status.value,
                            "recoveries": loop.recoveries,
                        })
                    if rollback:
                        continue
                    if iteration >= params.min_global_iters:
                        if loop.overflow <= stop:
                            converged = True
                            break
                        # plateau guard: overflow stopped improving well
                        # above the target — further lambda growth only
                        # degrades wirelength
                        if loop.monitor.plateau_exceeded:
                            break

            result = self._finish(loop, stop, converged, diverged)
        result.runtime = place.seconds
        return result

    def _begin(self, stop: float, monitor: ConvergenceMonitor | None,
               resume_state: dict | None) -> GpLoopState:
        """Loop state for a cold start, a warm restart or a resume."""
        if monitor is None:
            monitor = ConvergenceMonitor.from_params(self.params, stop)
        elif resume_state is None:
            monitor.new_round(stop_overflow=stop)
        self.invalidate_tape()
        warm = self._optimizer is not None
        if not warm:
            self._optimizer, self._scheduler = self._build_optimizer()
        loop = GpLoopState(self.pos, self.objective, self._optimizer,
                           self._scheduler, self._density_weight(), monitor)
        if resume_state is not None:
            loop.load_state_dict(resume_state)
            return loop

        loop.overflow = self.overflow()
        self.objective.gamma = self.gamma_schedule(loop.overflow)
        loop.weight = self._init_density_weight()
        self.objective.density_weight = loop.weight.value
        if warm:
            # positions may have moved externally since the last round
            # (inflation, set_positions), so drop value-derived caches
            # and restart the momentum sequence
            self._optimizer.rebind()
            self._optimizer.reset_momentum()
        # iteration-0 checkpoint: there is always a sane state to
        # return or roll back to, even if the first step blows up
        loop.hpwl = self.hpwl()
        monitor.observe(0, loop.hpwl, loop.overflow)
        loop.best_snap = self._capture_snapshot(
            0, loop.hpwl, loop.overflow, loop.optimizer, loop.scheduler,
            loop.weight)
        # lightweight best-wirelength fallback (positions only): what a
        # diverged run hands back when no checkpoint can be trusted
        loop.best_wl_snap = PlacerSnapshot(0, loop.hpwl, loop.overflow,
                                           loop.best_snap.pos)
        return loop

    def _make_closure(self):
        """The optimizer closure: replay the captured tape, else run
        (and, when allowed, capture) the eager forward/backward."""
        # capture freezes the Python control flow of the first forward,
        # so a user-supplied wirelength module (which may branch per
        # call) forces eager evaluation
        graph_capture = (self.params.graph_capture
                         and self.wirelength_factory is None)

        def eager_closure():
            obj = self.objective(self.pos)
            obj.backward()
            return obj

        def closure():
            self.pos.zero_grad()
            tape = self._tape
            if tape is not None:
                with trace_span("gp.replay"):
                    try:
                        loss = tape.replay()
                    except TapeInvalidated:
                        # a structural event slipped past the explicit
                        # invalidation points: recapture below
                        self._tape = tape = None
                if tape is not None:
                    obj = self.objective
                    obj.last_wirelength = tape.watched("wirelength")
                    obj.last_density = tape.watched("density")
                    return loss
            if not graph_capture or not self._capture_ok:
                with trace_span("gp.eager"):
                    return eager_closure()
            with trace_span("gp.graph_build"):
                loss, self._tape = capture(eager_closure)
            # an untapeable graph (e.g. a custom wirelength op that is
            # not capture-safe) permanently falls back to eager mode
            self._capture_ok = self._tape is not None
            return loss

        return closure

    def _step(self, loop: GpLoopState, closure):
        """One optimizer step, projected back into the clamp bounds."""
        with trace_span("gp.step"):
            loss = loop.optimizer.step(closure)
            loop.optimizer.project(self._clamp)
            if loop.scheduler is not None:
                loop.scheduler.step()
        return loss

    def _measure(self, loop: GpLoopState, loss, span) -> IterationStatus:
        """Record the iterate's HPWL/overflow and classify it."""
        if np.all(np.isfinite(self.pos.data)):
            loop.hpwl = self.hpwl()
            loop.overflow = self.overflow()
        else:
            # poisoned step: the overflow scatter would crash casting
            # NaN coordinates to bin indices, so skip the metrics and
            # let the monitor flag the iterate as non-finite
            loop.hpwl = loop.overflow = math.nan
        loop.hpwl_trace.append(loop.hpwl)
        loop.overflow_trace.append(loop.overflow)
        if math.isfinite(loop.hpwl):
            loop.best_hpwl = min(loop.best_hpwl, loop.hpwl)
        status = loop.monitor.observe(
            loop.iteration, loop.hpwl, loop.overflow,
            loss=None if loss is None else float(loss.item()),
            grad=self.pos.grad, pos=self.pos.data,
        )
        # NaN is not valid JSON: non-finite iterates carry their
        # status, finite ones the actual metrics
        if math.isfinite(loop.hpwl):
            span["hpwl"] = loop.hpwl
            span["overflow"] = loop.overflow
        span["status"] = status.value
        return status

    def _recover(self, loop: GpLoopState, status: IterationStatus) -> bool:
        """Roll back to the best checkpoint with a damped lambda;
        False once the recovery budget is spent."""
        params = self.params
        if not (params.enable_recovery
                and loop.recoveries < params.max_recoveries):
            return False
        snap = loop.best_snap
        with trace_span("gp.rollback"):
            self._restore_snapshot(
                snap, loop.optimizer, loop.scheduler, loop.weight,
                lambda_damping=params.recovery_lambda_damping,
            )
        loop.monitor.notify_rollback(snap.hpwl)
        loop.recoveries += 1
        # the loop now *is* the restored iterate
        loop.hpwl, loop.overflow = snap.hpwl, snap.overflow
        if params.verbose:
            print(
                f"[GP] iter {loop.iteration:4d} {status.value}: "
                f"rolled back to iter {snap.iteration} "
                f"(hpwl {snap.hpwl:.4e}), lambda {loop.weight.value:.3g}"
            )
        return True

    def _schedule(self, loop: GpLoopState) -> None:
        """Checkpoint an improved iterate, then anneal gamma and update
        lambda for the next step."""
        iteration, hpwl, overflow = loop.iteration, loop.hpwl, loop.overflow
        if loop.monitor.progress_improved:
            with trace_span("gp.snapshot"):
                loop.best_snap = self._capture_snapshot(
                    iteration, hpwl, overflow,
                    loop.optimizer, loop.scheduler, loop.weight,
                )
        if loop.monitor.wirelength_improved:
            loop.best_wl_snap = PlacerSnapshot(
                iteration, hpwl, overflow, self.pos.data.copy(),
            )
        self.objective.gamma = self.gamma_schedule(overflow)
        if iteration % self.lambda_period == 0:
            self.objective.density_weight = loop.weight.update(hpwl)
        if self.params.verbose and iteration % 50 == 0:
            print(
                f"[GP] iter {iteration:4d} hpwl {hpwl:.4e} "
                f"overflow {overflow:.4f} gamma "
                f"{self.objective.gamma:.3g} lambda {loop.weight.value:.3g}"
            )

    def _finish(self, loop: GpLoopState, stop: float, converged: bool,
                diverged: bool) -> GlobalPlaceResult:
        """Pick the positions to hand back and close the loop."""
        # never hand back a worse answer than the best checkpoint: a
        # diverged run falls back to the lowest-wirelength iterate, any
        # other run to the best (overflow-then-wirelength) checkpoint
        final_hpwl = self.hpwl()
        overflow = loop.overflow
        best = loop.best_snap
        chosen = None
        if diverged:
            chosen = loop.best_wl_snap
        elif (best.hpwl < final_hpwl
              and best.overflow <= (max(overflow, stop)
                                    + self.params.overflow_improve_tol)):
            chosen = best
        if chosen is not None and (diverged or chosen.hpwl < final_hpwl):
            self.pos.data = chosen.pos.copy()
            loop.optimizer.rebind()
            final_hpwl = self.hpwl()
            overflow = self.overflow()

        self._loop = None
        x, y = self._positions()
        return GlobalPlaceResult(
            x=x, y=y,
            hpwl=final_hpwl,
            overflow=overflow,
            iterations=loop.iteration,
            runtime=0.0,  # place() fills it from its span
            converged=converged,
            hpwl_trace=loop.hpwl_trace,
            overflow_trace=loop.overflow_trace,
            diverged=diverged,
            recoveries=loop.recoveries,
            best_hpwl=min(loop.best_hpwl, final_hpwl),
        )

    def set_positions(self, x: np.ndarray, y: np.ndarray) -> None:
        """Warm-start the cell coordinates (e.g. between inflation rounds)."""
        self.invalidate_tape()
        n = self.db.num_cells + self.num_fillers
        data = self.pos.data
        data[:self.db.num_cells] = np.asarray(x, dtype=data.dtype)
        data[n:n + self.db.num_cells] = np.asarray(y, dtype=data.dtype)
        self.pos.data = self._clamp(data)
        if self._optimizer is not None:
            # cached solver state (Lipschitz estimate, u/v iterates,
            # conjugate direction) refers to the old positions
            self._optimizer.rebind()

    def write_back(self) -> None:
        """Copy the optimized movable positions into the database."""
        x, y = self._positions()
        movable = self.db.movable
        self.db.cell_x[movable] = x[movable]
        self.db.cell_y[movable] = y[movable]
