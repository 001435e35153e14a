"""RePlAce-style reference placer.

Same electrostatic global placement as :class:`repro.core.DreamPlacer`
but organized the conventional way: a bound-to-bound quadratic initial
placement ("GP-IP" in Fig. 3) followed by nonlinear optimization with
reference (loop-based) kernels, then a non-windowed legalizer.  Serves
as the baseline for every speedup table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baseline.b2b import bound2bound_place
from repro.core.global_place import GlobalPlacer
from repro.core.params import PlacementParams
from repro.core.placer import StageTimes, _stage
from repro.dp.detailed_placer import DetailedPlacer
from repro.lg.abacus import abacus_legalize
from repro.lg.checker import LegalityReport, check_legal
from repro.lg.tetris import tetris_legalize
from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span


@dataclass
class ReplaceResult:
    """Baseline flow outcome (same fields the paper reports)."""

    x: np.ndarray
    y: np.ndarray
    hpwl_global: float
    hpwl_final: float
    overflow: float
    iterations: int
    init_place_time: float  # GP-IP
    nonlinear_time: float  # GP-Nonlinear
    times: StageTimes
    legality: LegalityReport | None = None

    @property
    def gp_time(self) -> float:
        return self.init_place_time + self.nonlinear_time


def _reference_params(params: PlacementParams | None) -> PlacementParams:
    base = params or PlacementParams()
    return base.with_overrides(
        wirelength_strategy="net_by_net",
        density_strategy="naive",
        dct_impl="2n",
        optimizer="nesterov",
        dtype="float64",
    )


class ReplacePlacer:
    """Baseline: B2B init + reference-kernel nonlinear GP + LG + DP.

    ``timing_mode`` controls how the nonlinear GP time is obtained:

    ``"full"``
        Run the whole GP with the reference kernels (exact, slow).
    ``"extrapolate"``
        Run the GP with the fast kernels (identical math, so quality is
        unchanged), measure the reference-kernel iteration cost on a
        sample, and report ``avg_cost * iterations`` — the same
        estimation the paper applies to RePlAce on the 10M-cell design
        ("3396 + 1000 x 7.5 s", Section IV-A).
    """

    def __init__(self, db: PlacementDB, params: PlacementParams | None = None,
                 b2b_iterations: int = 3, timing_mode: str = "full",
                 sample_iterations: int = 5):
        if timing_mode not in ("full", "extrapolate"):
            raise ValueError(f"unknown timing_mode {timing_mode!r}")
        self.db = db
        self.params = _reference_params(params)
        self.b2b_iterations = int(b2b_iterations)
        self.timing_mode = timing_mode
        self.sample_iterations = int(sample_iterations)

    def _sample_reference_iteration_cost(self, x0, y0) -> float:
        """Average wall-clock of one reference-kernel GP iteration."""
        placer = GlobalPlacer(self.db, self.params)
        placer.set_positions(x0, y0)
        sample = placer.place(max_iters=self.sample_iterations)
        return sample.runtime / self.sample_iterations

    def run(self, detailed: bool | None = None) -> ReplaceResult:
        params = self.params
        db = self.db
        times = StageTimes()

        # GP-IP: bound-to-bound quadratic initial placement
        with trace_span("gp.b2b", iterations=self.b2b_iterations) as b2b:
            x0, y0 = bound2bound_place(
                db, iterations=self.b2b_iterations,
                rng=np.random.default_rng(params.seed),
            )
        init_time = b2b.seconds

        # GP-Nonlinear with the reference kernels, warm-started from B2B
        if self.timing_mode == "extrapolate":
            per_iter = self._sample_reference_iteration_cost(x0, y0)
            fast = params.with_overrides(
                wirelength_strategy="merged",
                density_strategy="flat",
                dct_impl="2d",
            )
            placer = GlobalPlacer(db, fast)
            placer.set_positions(x0, y0)
            gp = placer.place()
            nonlinear_time = per_iter * gp.iterations
        else:
            placer = GlobalPlacer(db, params)
            placer.set_positions(x0, y0)
            gp = placer.place()
            nonlinear_time = gp.runtime
        times.global_place = init_time + nonlinear_time
        x, y = gp.x.copy(), gp.y.copy()
        hpwl_global = db.hpwl(x, y)

        legality = None
        if params.legalize:
            with _stage(times, "legalize", "stage.lg"):
                # NTUplace3-style legalizer: no row windowing (full scan)
                desired_x, desired_y = x.copy(), y.copy()
                lx, ly, row_of_cell = tetris_legalize(
                    db, x, y, row_window=db.region.num_rows,
                )
                x, y = abacus_legalize(db, lx, ly, row_of_cell,
                                       desired_x=desired_x)
            legality = check_legal(db, x, y)

        run_dp = params.detailed if detailed is None else detailed
        if params.legalize and run_dp:
            with _stage(times, "detailed", "stage.dp"):
                dp = DetailedPlacer(db, passes=params.detailed_passes)
                x, y, _ = dp.run(x, y)
            legality = check_legal(db, x, y)

        db.set_positions(x, y)
        return ReplaceResult(
            x=x, y=y,
            hpwl_global=hpwl_global,
            hpwl_final=db.hpwl(x, y),
            overflow=gp.overflow,
            iterations=gp.iterations,
            init_place_time=init_time,
            nonlinear_time=nonlinear_time,
            times=times,
            legality=legality,
        )
