"""Global router driver (the NCTUgr stand-in of Section III-F)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netlist.database import PlacementDB
from repro.obs.trace import trace_span
from repro.route.congestion import ace_metrics, routing_congestion
from repro.route.grid import RoutingGrid
from repro.route.net_decompose import decompose_net
from repro.route.pattern_route import rip_up, route_segment


@dataclass
class RoutingResult:
    """Outcome of one global-routing invocation."""

    rc: float
    ace: dict[float, float]
    total_overflow: float
    tile_ratio_map: np.ndarray  # per-tile max demand/capacity (eq. 19 input)
    wirelength_tiles: int  # routed length in tile pitches
    runtime: float
    grid: RoutingGrid = field(repr=False, default=None)


def calibrate_capacity(db: PlacementDB, num_tiles: int = 32,
                       num_layers: int = 4,
                       x: np.ndarray | None = None,
                       y: np.ndarray | None = None,
                       headroom: float = 0.85,
                       percentile: float = 97.0) -> float:
    """Per-layer tile capacity making the design mildly congested.

    Routes once with unlimited capacity, reads the demand distribution
    and sets the pooled capacity to ``headroom`` times the given
    percentile — i.e. the top (100-percentile)% of edges overflow
    slightly, emulating how the DAC 2012 benchmarks are provisioned.
    """
    probe = GlobalRouter(db, num_tiles=num_tiles, num_layers=num_layers,
                         tile_capacity=1e9, macro_blockage=0.0,
                         rrr_rounds=0)
    result = probe.route(x, y)
    grid = result.grid
    demand = np.concatenate([
        grid.demand_h.ravel(), grid.demand_v.ravel()
    ])
    pool = float(np.percentile(demand, percentile)) * headroom
    per_layer = pool / max((num_layers + 1) // 2, 1)
    return max(per_layer, 1.0)


class GlobalRouter:
    """Two-pass congestion-aware pattern router.

    Pass 1 routes every segment with the cheaper L shape; pass 2 rips up
    segments through overflowed edges and reroutes them in a congestion-
    aware order (one rip-up-and-reroute round, like fast NCTUgr modes).
    """

    def __init__(self, db: PlacementDB, num_tiles: int = 32,
                 num_layers: int = 4, tile_capacity: float = 12.0,
                 macro_blockage: float = 0.5, rrr_rounds: int = 1,
                 use_maze: bool = True):
        self.db = db
        self.num_tiles = num_tiles
        self.num_layers = num_layers
        self.tile_capacity = tile_capacity
        self.macro_blockage = macro_blockage
        self.rrr_rounds = int(rrr_rounds)
        #: escalate ripped-up segments to bounded maze routing
        self.use_maze = bool(use_maze)

    def route(self, x: np.ndarray | None = None,
              y: np.ndarray | None = None) -> RoutingResult:
        db = self.db
        with trace_span("route.global", nets=db.num_nets) as span:
            grid = RoutingGrid(
                db, self.num_tiles, self.num_layers,
                self.tile_capacity, self.macro_blockage,
            )
            pin_x, pin_y = db.pin_positions(x, y)
            tile_x, tile_y = grid.tile_of(pin_x, pin_y)

            # initial routing
            routes: dict[int, list] = {}
            segments: dict[int, list] = {}
            for net in range(db.num_nets):
                pins = db.net_pins(net)
                segs = decompose_net(tile_x[pins], tile_y[pins])
                if not segs:
                    continue
                segments[net] = segs
                used = []
                for x1, y1, x2, y2 in segs:
                    used.extend(route_segment(grid, x1, y1, x2, y2))
                routes[net] = used

            # rip-up and reroute nets crossing overflowed edges
            for _ in range(self.rrr_rounds):
                over_h = grid.demand_h > grid.capacity_h
                over_v = grid.demand_v > grid.capacity_v
                if not over_h.any() and not over_v.any():
                    break
                victims = [
                    net for net, used in routes.items()
                    if any(
                        (kind == "h" and over_h[i, j])
                        or (kind == "v" and over_v[i, j])
                        for kind, i, j in used
                    )
                ]
                for net in victims:
                    rip_up(grid, routes[net])
                    used = []
                    for x1, y1, x2, y2 in segments[net]:
                        routed = None
                        if self.use_maze:
                            from repro.route.maze import maze_route_segment

                            routed = maze_route_segment(grid, x1, y1, x2, y2)
                        if routed is None:
                            routed = route_segment(grid, x1, y1, x2, y2)
                        used.extend(routed)
                    routes[net] = used

            wl_tiles = sum(len(u) for u in routes.values())
            result = RoutingResult(
                rc=routing_congestion(grid),
                ace=ace_metrics(grid),
                total_overflow=grid.total_overflow(),
                tile_ratio_map=grid.tile_ratio_map(),
                wirelength_tiles=wl_tiles,
                runtime=0.0,  # filled from the span below
                grid=grid,
            )
        result.runtime = span.seconds
        return result
