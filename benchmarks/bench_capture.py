"""Captured-tape replay micro-benchmark: eager vs replay per iteration.

Builds the merged-strategy GP objective closure (forward + backward,
exactly the callable Nesterov evaluates every iteration), records it
once into a :class:`~repro.nn.tape.CapturedTape`, and times eager
evaluation against ``tape.replay()`` in interleaved blocks so CPU
frequency drift hits both sides equally.  Eager and replay run the same
kernels, so what the tape removes is the per-iteration graph churn
(``Function`` nodes, ``Tensor`` wrappers, the topological sort): replay
must be bit-identical to eager (objective value and gradient) and no
slower per iteration at the small operating point, where that overhead
is largest relative to the arithmetic (~1.1x measured).

Besides the usual ``benchmarks/results`` row, writes a summary to
``BENCH_capture.json`` at the repo root.
"""

import json
import os
import time

import numpy as np

from _support import get_design, once, print_header, print_row, record
from repro.core import GlobalPlacer, PlacementParams
from repro.nn.tape import capture

DESIGNS = ["adaptec1", "bigblue1"]
# fixed small operating point: per-iteration overhead (the thing capture
# removes) dominates at this size, independent of REPRO_SCALE
SCALE = 1600
WARMUP = 10
ROUNDS = 12
ITERS = 25
ROOT_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_capture.json",
)


def _closure_pair(db):
    """A primed GP objective closure and its captured tape."""
    params = PlacementParams(wirelength_strategy="merged")
    placer = GlobalPlacer(db, params)
    overflow = placer.overflow()
    placer.objective.gamma = placer.gamma_schedule(overflow)
    weight = placer._init_density_weight()
    placer.objective.density_weight = weight.value

    def eager():
        placer.pos.zero_grad()
        obj = placer.objective(placer.pos)
        obj.backward()
        return obj

    _, tape = capture(eager)
    assert tape is not None, "GP objective graph must be capture-safe"

    def replay():
        # the tape accumulates into the leaf's grad buffer; zeroing is
        # the caller's job, exactly as in GlobalPlacer's closure
        placer.pos.zero_grad()
        return tape.replay()

    return placer, eager, replay, tape


def _measure(db):
    placer, eager, replay, tape = _closure_pair(db)
    for _ in range(WARMUP):
        eager()
        replay()
    obj_e = float(eager().data)
    grad_e = placer.pos.grad.copy()
    obj_r = float(replay().data)
    grad_r = placer.pos.grad
    exact = obj_e == obj_r and np.array_equal(grad_e, grad_r)
    # interleaved rounds + median-of-round ratios: CPU frequency drift
    # hits the adjacent eager/replay blocks of a round equally, and the
    # median drops rounds hit by unrelated system noise
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(ITERS):
            eager()
        t1 = time.perf_counter()
        for _ in range(ITERS):
            replay()
        t2 = time.perf_counter()
        rounds.append(((t1 - t0) / ITERS, (t2 - t1) / ITERS))
    t_eager = float(np.median([r[0] for r in rounds]))
    t_replay = float(np.median([r[1] for r in rounds]))
    ratio = float(np.median([r[0] / r[1] for r in rounds]))
    return t_eager, t_replay, ratio, exact, tape


def run(benchmark=None):
    print_header(
        "Captured-tape replay: GP objective closure, eager vs replay",
        ["design", "eager us/it", "replay us/it", "speedup", "bit-exact"],
    )
    summary = []
    for name in DESIGNS:
        db = get_design(name, scale=SCALE)
        t_e, t_r, ratio, exact, tape = _measure(db)
        print_row([
            name, f"{t_e * 1e6:.0f}", f"{t_r * 1e6:.0f}",
            f"{ratio:.2f}x", str(exact),
        ])
        summary.append({
            "design": name,
            "scale": SCALE,
            "us_per_iter_eager": t_e * 1e6,
            "us_per_iter_replay": t_r * 1e6,
            "speedup": ratio,
            "bit_exact": exact,
            "tape_replays": tape.replays,
        })
        record("capture", summary[-1])
    mean = sum(row["speedup"] for row in summary) / len(summary)
    print(f"-- mean speedup {mean:.2f}x (gate: bit-exact, replay no slower)")
    with open(ROOT_JSON, "w") as handle:
        json.dump({"mean_speedup": mean, "designs": summary}, handle, indent=1)
    if benchmark is not None:
        db = get_design(DESIGNS[0], scale=SCALE)
        _, _, replay, _ = _closure_pair(db)
        once(benchmark, replay)
    assert all(row["bit_exact"] for row in summary), summary
    assert mean >= 1.0, summary
    return summary


def test_capture_replay(benchmark):
    run(benchmark)


if __name__ == "__main__":
    run()
