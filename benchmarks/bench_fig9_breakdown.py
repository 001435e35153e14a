"""Fig. 9 — DREAMPlace runtime breakdown.

(a) whole-flow shares on bigblue4: GP + LG are small next to DP (which
the paper delegates to an external CPU tool) and file IO.
(b) one GP forward+backward pass: density-related computation dominates
wirelength (paper: 73.4% vs 26.5%).
"""

import tempfile
import time

import pytest

from _support import get_design, once, print_header, print_row, record
from repro.bookshelf import read_bookshelf, write_bookshelf
from repro.core import DreamPlacer, GlobalPlacer, PlacementParams
from repro.nn import Parameter
from repro.obs import Tracer
from repro.perf import op_stats


def test_fig9a_flow_breakdown(benchmark):
    db = get_design("bigblue4")
    params = PlacementParams(dtype="float32", detailed_passes=1)
    result = once(benchmark, lambda: DreamPlacer(db, params).run())

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        aux = write_bookshelf(db, tmp)
        read_bookshelf(aux)
        io_time = time.perf_counter() - start

    total = result.times.total + io_time
    shares = {
        "GP": result.times.global_place / total,
        "LG": result.times.legalize / total,
        "DP": result.times.detailed / total,
        "IO": io_time / total,
    }
    print_header("Fig. 9(a) analog: DREAMPlace flow breakdown (bigblue4)",
                 ["stage", "share"])
    for stage, share in shares.items():
        print_row([stage, f"{share:.1%}"])
    print(f"-- GP+LG = {shares['GP'] + shares['LG']:.0%} "
          "(paper: 6.2%; DP dominates)")
    record("fig9_breakdown", {"part": "flow", **shares})
    # shape: DP is the dominant stage once GP is accelerated
    assert shares["DP"] > shares["GP"]


def test_fig9b_forward_backward_split(benchmark):
    db = get_design("bigblue4")
    params = PlacementParams(dtype="float32")
    placer = GlobalPlacer(db, params)
    objective = placer.objective
    pos = placer.pos

    def run_op(op):
        pos.zero_grad()
        op(pos).backward()

    # warm up, then measure via the kernels' own spans (the view
    # `repro place --profile` prints)
    run_op(objective.wirelength)
    run_op(objective.density)
    with Tracer() as tracer:
        for _ in range(5):
            run_op(objective.wirelength)
            run_op(objective.density)
    once(benchmark, lambda: run_op(objective.density))

    stats = op_stats(tracer.trace.spans)
    wl = sum(s.self_seconds for name, s in stats.items()
             if name.startswith("wl."))
    density = sum(s.self_seconds for name, s in stats.items()
                  if name.startswith("density."))
    total = wl + density
    print_header(
        "Fig. 9(b) analog: one GP forward+backward pass (bigblue4)",
        ["op", "share"],
    )
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_seconds):
        print_row([name, f"{s.self_seconds / total:.1%}"])
    print_row(["wirelength (all)", f"{wl / total:.1%}"])
    print_row(["density (all)", f"{density / total:.1%}"])
    print("-- paper: density 73.4%, wirelength 26.5%")
    record("fig9_breakdown", {
        "part": "fwd_bwd", "wirelength_share": wl / total,
        "density_share": density / total,
        "ops": {name: s.self_seconds for name, s in stats.items()},
    })
    assert density > wl
