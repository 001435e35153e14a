"""Flow configuration.

One dataclass gathers every knob of the flow, with defaults following
the paper (and RePlAce where the paper inherits them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

#: The one default seed of the whole toolkit.  Both the benchmark
#: generator (``repro.benchgen.CircuitSpec``) and the placement flow
#: (:class:`PlacementParams`, the ``place``/``generate`` CLI verbs)
#: default to this value, and ``repro.runner`` folds the effective seed
#: into every job's content hash — two jobs that differ only in seed
#: hash (and therefore cache) separately.
DEFAULT_SEED = 42


@dataclass
class PlacementParams:
    """Configuration of the DREAMPlace flow."""

    # -- numerics ------------------------------------------------------
    dtype: str = "float64"  # "float32" or "float64" (the paper's sweeps)
    seed: int = DEFAULT_SEED
    #: capture the GP objective graph on the first closure evaluation
    #: and replay it as a precompiled straight-line tape afterwards
    #: (bit-exact against eager; recaptured on structural events and
    #: automatically disabled for graphs with capture-unsafe ops).
    #: False (CLI ``--no-capture``) forces eager execution throughout
    graph_capture: bool = True

    # -- density system ------------------------------------------------
    target_density: float = 1.0
    #: bins per axis; ``None`` auto-sizes to a power of two near
    #: sqrt(num_movable), clamped to [16, 512] (RePlAce-style grids)
    num_bins: Optional[int] = None
    density_strategy: str = "flat"  # see repro.ops.density_map
    dct_impl: str = "2d"  # see repro.ops.electrostatics.PoissonSolver
    use_fillers: bool = True

    # -- wirelength model ------------------------------------------------
    wirelength: str = "wa"  # "wa" or "lse"
    wirelength_strategy: str = "merged"  # see repro.ops.wa_wirelength
    #: gamma = gamma_factor * (bin_w + bin_h)/2 * 10^(k*overflow + b)
    gamma_factor: float = 4.0
    #: DREAMPlace-style high-fanout filter: nets with more pins than
    #: this are masked out of the smooth wirelength *gradient* (they
    #: carry no locality signal and dominate kernel cost) while still
    #: counted in every reported HPWL.  0 disables the filter.
    ignore_net_degree: int = 0

    # -- multilevel cascade ----------------------------------------------
    #: GP resolution levels: 1 = flat (bit-identical to the classic
    #: single-level flow), N > 1 coarsens the netlist N-1 times and
    #: runs coarse-to-fine with warm-started refinement
    multilevel_levels: int = 1
    #: per-level movable-cell shrink target for the coarsener
    #: (``repro.netlist.coarsen``): each level keeps at most this
    #: fraction of the previous level's movable cells
    coarsen_ratio: float = 0.35
    #: overflow at which a *coarse* level may stop (the fine level
    #: always runs to ``stop_overflow``); coarse optima below this are
    #: wasted work that warm-starting discards anyway
    multilevel_coarse_overflow: float = 0.15
    #: plateau patience for coarse levels (early handoff on stalls)
    multilevel_coarse_patience: int = 40
    #: density-weight growth (``mu_max``) floor for coarse levels:
    #: their lambda ramp can run hotter than the fine level's because
    #: warm-starting keeps only the global structure of their result
    multilevel_coarse_mu: float = 1.10
    #: ``density_weight_scale`` multiplier applied to every
    #: *warm-started* level (all but the coarsest).  Restarting the
    #: balanced lambda_0 at full strength on a prolonged placement is
    #: too density-dominant: the fine level needs a stretch of
    #: wirelength-led iterations to repair the cluster-granularity
    #: HPWL damage before spreading resumes
    multilevel_warm_lambda_scale: float = 0.1
    #: stop generating coarser levels below this many movable cells
    multilevel_min_cells: int = 512

    # -- optimizer -------------------------------------------------------
    optimizer: str = "nesterov"  # nesterov | adam | sgd | rmsprop | cg
    learning_rate: float = 0.01  # relative to region size for non-Nesterov
    lr_decay: float = 1.0  # per-iteration exponential decay (Table IV)
    momentum: float = 0.9  # for sgd

    # -- global placement loop -------------------------------------------
    max_global_iters: int = 1000
    min_global_iters: int = 20
    stop_overflow: float = 0.10
    #: initial-placement noise, fraction of region size (paper: 0.1%)
    init_noise_ratio: float = 0.001
    #: density weight update (eq. 18)
    mu_min: float = 0.95
    mu_max: float = 1.05
    ref_delta_hpwl: float = 3.5e5
    #: TCAD tweak: mu_max * max(0.9999^k, 0.98) when HPWL improves
    tcad_mu_tweak: bool = True
    #: give up if HPWL exceeds this multiple of its running minimum
    divergence_ratio: float = 8.0

    # -- convergence monitoring & recovery (TCAD hardening) ----------------
    #: roll back to the best checkpoint on divergence / NaN instead of
    #: giving up with the diverged iterate
    enable_recovery: bool = True
    #: rollback budget per ``place`` call before giving up gracefully
    max_recoveries: int = 3
    #: multiply lambda by this factor on every rollback (damped retry)
    recovery_lambda_damping: float = 0.5
    #: stop when overflow has not improved for this many iterations
    plateau_patience: int = 150
    #: minimum overflow decrease counted as progress
    overflow_improve_tol: float = 1e-3
    #: scale on the balanced lambda_0 (1.0 = paper; used by divergence
    #: injection tests and manual lambda sweeps)
    density_weight_scale: float = 1.0

    # -- flow stages -------------------------------------------------------
    legalize: bool = True
    detailed: bool = True
    detailed_passes: int = 2
    #: verify legality after LG and after DP and raise
    #: :class:`repro.lg.LegalityError` on any violation (overlap,
    #: off-grid, fence breach) instead of returning a broken placement
    legality_gate: bool = True

    # -- routability-driven mode (Section III-F) ---------------------------
    routability: bool = False
    route_num_tiles: int = 32
    route_num_layers: int = 4
    route_tile_capacity: float = 12.0  # tracks per tile edge per layer
    inflation_exponent: float = 2.5
    inflation_max_ratio: float = 2.5
    inflation_overflow_trigger: float = 0.20
    inflation_whitespace_cap: float = 0.10
    inflation_stop_ratio: float = 0.01
    inflation_max_rounds: int = 5
    inflation_lambda_period: int = 5

    verbose: bool = False

    # ------------------------------------------------------------------
    def np_dtype(self) -> np.dtype:
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        return np.dtype(self.dtype)

    def resolve_num_bins(self, num_movable: int) -> int:
        """Auto-size the bin grid to a power of two near sqrt(#cells)."""
        if self.num_bins is not None:
            return int(self.num_bins)
        guess = int(2 ** np.ceil(np.log2(max(np.sqrt(max(num_movable, 1)), 1))))
        return int(np.clip(guess, 16, 512))

    def with_overrides(self, **kwargs) -> "PlacementParams":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-types dict of every knob (canonical field order).

        The inverse of :meth:`from_dict`; ``repro.runner`` serializes
        job specs through this pair and hashes the canonical JSON form.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                value = value.item()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlacementParams":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown placement parameter(s): {sorted(unknown)}"
            )
        return cls(**data)
