"""Tracing overhead micro-benchmark: an unrecorded span must be free.

``trace_span`` wraps the hot GP loop (every iteration and every kernel
op) and always reads the clock twice, tracer or not, so that cost has
to stay negligible.  This bench measures per-iteration GP time with no
tracer installed and with a tracer collecting spans, plus the raw
``trace_span`` call in isolation both ways, and asserts the acceptance
criteria: with no tracer the span costs under 0.5% of an iteration, and
no more than the generator-based guard it replaced (1,386 ns, the last
committed ``ns_per_disabled_span``).
"""

import time

from _support import get_design, once, print_header, print_row, record
from repro.core import GlobalPlacer, PlacementParams
from repro.obs import Tracer, trace_span

DESIGN = "adaptec1"
WARMUP = 5
ITERS = 40
CALL_REPS = 200_000


def _gp_iteration(db):
    """One primed GP-loop iteration (the instrumented hot path)."""
    placer = GlobalPlacer(db, PlacementParams())
    overflow = placer.overflow()
    placer.objective.gamma = placer.gamma_schedule(overflow)
    weight = placer._init_density_weight()
    placer.objective.density_weight = weight.value
    optimizer, _ = placer._build_optimizer()

    def closure():
        placer.pos.zero_grad()
        obj = placer.objective(placer.pos)
        obj.backward()
        return obj

    def iteration():
        with trace_span("gp.iteration"):
            optimizer.step(closure)
            optimizer.project(placer._clamp)
            placer.hpwl()
            placer.overflow()

    return iteration


def _time_loop(iteration) -> float:
    for _ in range(WARMUP):
        iteration()
    start = time.perf_counter()
    for _ in range(ITERS):
        iteration()
    return (time.perf_counter() - start) / ITERS


#: ``ns_per_disabled_span`` of the generator-based ``trace_span`` that
#: returned early without a tracer (benchmarks/results, PR 13)
OLD_DISABLED_NS = 1386.0


def _time_bare_span() -> float:
    """Seconds per empty trace_span region, measured in isolation."""
    start = time.perf_counter()
    for _ in range(CALL_REPS):
        with trace_span("noop"):
            pass
    return (time.perf_counter() - start) / CALL_REPS


def test_disabled_tracing_adds_no_overhead(benchmark):
    db = get_design(DESIGN)
    iteration = _gp_iteration(db)

    t_disabled = _time_loop(iteration)
    with Tracer() as tracer:
        t_enabled = _time_loop(iteration)
    per_span = _time_bare_span()
    with Tracer():
        per_recorded_span = _time_bare_span()

    print_header("observability overhead",
                 ["mode", "ms/iter", "ratio"])
    print_row(["disabled", f"{t_disabled * 1e3:.3f}", "1.00x"])
    print_row(["enabled", f"{t_enabled * 1e3:.3f}",
               f"{t_enabled / t_disabled:.2f}x"])
    print(f"-- trace_span: {per_span * 1e9:.0f} ns/call without a tracer, "
          f"{per_recorded_span * 1e9:.0f} ns/call recorded; "
          f"{len(tracer.trace)} spans collected while enabled")
    record("obs_overhead", {
        "design": DESIGN,
        "ms_per_iter_disabled": t_disabled * 1e3,
        "ms_per_iter_enabled": t_enabled * 1e3,
        "ns_per_disabled_span": per_span * 1e9,
        "ns_per_enabled_span": per_recorded_span * 1e9,
    })

    once(benchmark, iteration)

    assert len(tracer.trace) >= ITERS + WARMUP
    # the acceptance criterion: an unrecorded span costs sub-µs against
    # millisecond iterations — under 0.5% of an iteration, i.e. no
    # measurable per-iteration overhead
    assert per_span < 0.005 * t_disabled, (
        f"disabled trace_span costs {per_span * 1e9:.0f} ns against "
        f"{t_disabled * 1e3:.3f} ms iterations"
    )
    # always reading the clock must not cost more than the early
    # return it replaced
    assert per_span * 1e9 <= OLD_DISABLED_NS, (
        f"disabled trace_span costs {per_span * 1e9:.0f} ns, the old "
        f"guard cost {OLD_DISABLED_NS:.0f} ns"
    )
