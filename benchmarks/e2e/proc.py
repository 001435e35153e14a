"""One repetition of one workload, in a process of its own.

``run.py`` starts this file once per repetition so that every timed
region begins in a fresh interpreter with cold caches, and so that
``setup_s`` and ``peak_rss_mb`` belong to one workload only.

Modes: ``setup`` stops when the inputs are on disk (an extra set-up
sample), ``untraced`` times the region through the user-facing entry
(``DreamPlacer.run`` / ``Scheduler.run``) and checks the outputs,
``traced`` drives the stages itself under spans (see ``traced.py``).
The result goes to ``--out`` as one JSON object.
"""

import time

_T0 = time.perf_counter()  # first statement: set-up time includes imports

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from spans import SpanRecorder, duration, layer_shares, total  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    Workload,
    circuit_spec,
    fence_regions,
    placement_params,
)

#: ``.pl`` files carry six decimals
_FILE_TOLERANCE = 1e-6
#: float32 clamp bounds may sit one rounding step outside the die
_DIE_TOLERANCE = 1e-3
#: result files are read back this often; the median is ``cache_hit_ms``
_READBACKS = 5
#: pool size of ``batch_pool`` (= nproc of the reference box)
_POOL_WORKERS = 2


def _peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _files_sha256(aux: str) -> str:
    """Fingerprint of the input: every Bookshelf file, byte for byte."""
    digest = hashlib.sha256()
    directory = os.path.dirname(aux)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(name.encode())
            digest.update(handle.read())
    return digest.hexdigest()


def _xy_sha256(x, y) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED")},
    }


# ----------------------------------------------------------------------
# set-up: everything before the timed region
# ----------------------------------------------------------------------
def set_up(workload: Workload, seed: int, smoke: bool, workdir: str,
           rec: SpanRecorder | None):
    """Generate the design, write its Bookshelf files, build the fences
    or the job list and the run store."""
    from repro.benchgen import generate
    from repro.bookshelf import write_bookshelf

    spec = circuit_spec(workload, seed, smoke)
    if rec is not None:
        rec.add("setup.imports", None, _T0, time.perf_counter())
    with rec.span("benchgen.generate") if rec else nullcontext():
        db = generate(spec)
    aux = write_bookshelf(db, os.path.join(workdir, "in"))
    fences = fence_regions(db, seed) if workload.fenced else None

    specs, store = [], None
    if workload.jobs:
        from repro.runner import DesignRef, JobSpec, RunStore

        store = RunStore(os.path.join(workdir, "store"))
        jobs = workload.smoke_jobs if smoke else workload.jobs
        specs = [
            JobSpec(design=DesignRef.parse(aux),
                    params=placement_params(workload, seed=job_seed))
            for job_seed in range(1, jobs + 1)
        ]
    return aux, fences, specs, store


# ----------------------------------------------------------------------
# untraced placement flow and its checks
# ----------------------------------------------------------------------
def untraced_flow(aux: str, params, fences, out_dir: str):
    """Design file on disk to result file on disk, through the one
    user-facing entry."""
    from repro.bookshelf import read_bookshelf, write_bookshelf
    from repro.core import DreamPlacer

    start = time.perf_counter()
    db = read_bookshelf(aux)
    result = DreamPlacer(db, params, fences=fences).run()
    out_aux = write_bookshelf(db, out_dir)
    return time.perf_counter() - start, db, result, out_aux


def check_placement(workload: Workload, db, params, fences, x, y,
                    hpwl_final: float, gp_overflow: float, out_aux: str):
    """Failure reasons of one placed result, and the read-back times."""
    from repro.bookshelf import read_bookshelf
    from repro.lg import check_legal

    failures = []
    movable = db.movable
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        failures.append("non-finite positions")
    region = db.region
    inside = (
        (x[movable] >= region.xl - _DIE_TOLERANCE)
        & (x[movable] + db.cell_width[movable] <= region.xh + _DIE_TOLERANCE)
        & (y[movable] >= region.yl - _DIE_TOLERANCE)
        & (y[movable] + db.cell_height[movable] <= region.yh + _DIE_TOLERANCE)
    )
    if not inside.all():
        failures.append(f"{int((~inside).sum())} cells outside the die")
    if not math.isfinite(hpwl_final) or db.hpwl(x, y) != hpwl_final:
        failures.append("reported HPWL is not the HPWL of the placement")
    if params.legalize:
        report = check_legal(db, x, y, fences=fences)
        if not report.legal or report.fence_violations:
            failures.append("illegal: " + "; ".join(report.messages))
    if workload.overflow_limit is not None \
            and not gp_overflow <= workload.overflow_limit:
        failures.append(f"GP overflow {gp_overflow:.4f} above "
                        f"{workload.overflow_limit}")

    readback_ms = []
    for _ in range(_READBACKS):
        gc.collect()  # a full collection mid-parse would be the noise
        start = time.perf_counter()
        back = read_bookshelf(out_aux)
        readback_ms.append(1e3 * (time.perf_counter() - start))
    drift = max(float(np.abs(back.cell_x - x).max()),
                float(np.abs(back.cell_y - y).max()))
    if not drift <= _FILE_TOLERANCE:
        failures.append(f"result file differs from the placement by {drift}")
    return failures, readback_ms


def run_untraced_placement(workload, aux, fences, workdir) -> dict:
    params = placement_params(workload)
    flow_s, db, result, out_aux = untraced_flow(
        aux, params, fences, os.path.join(workdir, "out"))
    peak = _peak_rss_mb()
    failures, readback_ms = check_placement(
        workload, db, params, fences, result.x, result.y,
        result.hpwl_final, result.overflow, out_aux)
    stats = result.dp_stats
    return {
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "metrics": {
            "flow_s": flow_s,
            "hpwl_final": result.hpwl_final,
            "gp_overflow": result.overflow,
            "peak_rss_mb": peak,
            "jobs_per_s": 1.0 / flow_s,
            "cache_hit_ms": statistics.median(readback_ms),
        },
        "deterministic": {
            "hpwl_final": result.hpwl_final,
            "gp_overflow": result.overflow,
            "core.gp_iters": result.iterations,
            "core.gp_recoveries": result.recoveries,
            "dp.swaps": sum(stats.swaps) if stats else 0,
            "dp.reorders": sum(stats.reorders) if stats else 0,
            "dp.matchings": sum(stats.matchings) if stats else 0,
            "xy_sha256": _xy_sha256(result.x, result.y),
        },
    }


# ----------------------------------------------------------------------
# untraced batch: two closed-loop rounds through the pool
# ----------------------------------------------------------------------
def _iteration_events(store_root: str) -> int:
    """``iteration`` events in every run's event log."""
    from repro.runner import count_events

    runs = os.path.join(store_root, "runs")
    return sum(
        count_events(os.path.join(runs, entry, "events.jsonl"))["iteration"]
        for entry in os.listdir(runs)
        if os.path.exists(os.path.join(runs, entry, "events.jsonl")))


def run_untraced_batch(specs, store) -> dict:
    from repro.runner import ResultCache, Scheduler

    scheduler = Scheduler(store, cache=ResultCache(store),
                          workers=_POOL_WORKERS)
    walls, rounds, iterations = [], [], []
    for _ in range(2):
        for spec in specs:
            scheduler.submit(spec)
        start = time.perf_counter()
        rounds.append(scheduler.run())
        walls.append(time.perf_counter() - start)
        iterations.append(_iteration_events(store.root))
    peak = _peak_rss_mb(children=True)

    cold, hits = rounds
    jobs = len(specs)
    failures = []
    for index, outcome in enumerate(cold):
        if not outcome.ok or outcome.cached:
            failures.append(f"round 1 job {index}: {outcome.status} "
                            f"cached={outcome.cached} {outcome.error}")
        elif not math.isfinite(outcome.metrics["hpwl"]["final"]) \
                or not outcome.metrics["legal"]:
            failures.append(f"round 1 job {index}: bad result")
    for index, outcome in enumerate(hits):
        if not outcome.ok or not outcome.cached:
            failures.append(f"round 2 job {index}: {outcome.status} "
                            f"cached={outcome.cached} {outcome.error}")
    if iterations[1] != iterations[0]:
        failures.append(
            f"round 2 ran {iterations[1] - iterations[0]} GP iterations")
    if [o.job_hash for o in hits] != [o.job_hash for o in cold]:
        failures.append("round 2 job hashes differ from round 1")

    done = [o.metrics for o in cold if o.metrics]
    hpwl = [m["hpwl"]["final"] for m in done]
    overflow = [m["overflow"] for m in done]
    return {
        "attempted": 2 * jobs,
        "failed": min(len(failures), 2 * jobs),
        "failures": failures,
        "metrics": {
            "flow_s": walls[0] + walls[1],
            "hpwl_final": float(np.mean(hpwl)) if hpwl else math.nan,
            "gp_overflow": float(np.mean(overflow)) if overflow
            else math.nan,
            "peak_rss_mb": peak,
            "jobs_per_s": jobs / walls[0],
            "cache_hit_ms": 1e3 * walls[1] / jobs,
        },
        "deterministic": {
            "hpwl_final": hpwl,
            "gp_overflow": overflow,
            "core.gp_iters": [m["iterations"] for m in done],
            "core.gp_recoveries": [m["recoveries"] for m in done],
            "job_hashes": [o.job_hash for o in cold],
        },
        "pool_cold_s": walls[0],
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def run_traced(workload, rec, aux, fences, specs, workdir,
               reference: dict) -> dict:
    """Stage-by-stage flow plus probes; per-layer metrics and checks.

    ``reference`` is the untraced result of the same workload and seed
    (``run.py`` runs it first).  On ``batch_pool`` the flow is job 1 of
    the batch, and its untraced twin runs here, in this process.
    """
    import traced

    failures = []
    if specs:
        params = specs[0].effective_params()
        flow_s, _, result, _ = untraced_flow(
            aux, params, fences, os.path.join(workdir, "out_ref"))
        twin = {"flow_s": flow_s, "hpwl_final": result.hpwl_final,
                "xy_sha256": _xy_sha256(result.x, result.y)}
    else:
        params = placement_params(workload)
        twin = {"flow_s": reference["metrics"]["flow_s"],
                "hpwl_final": reference["deterministic"]["hpwl_final"],
                "xy_sha256": reference["deterministic"]["xy_sha256"]}

    flow = traced.traced_flow(rec, aux, params, fences,
                              os.path.join(workdir, "out"))
    values = flow["values"]
    db = flow["db"]
    placement_failures, _ = check_placement(
        workload, db, params, fences, flow["x"], flow["y"],
        flow["hpwl_final"], flow["gp_overflow"], flow["out_aux"])
    failures += placement_failures
    if _xy_sha256(flow["x"], flow["y"]) != twin["xy_sha256"]:
        failures.append("traced x, y differ from the untraced run")

    do_dp = params.legalize and params.detailed
    faithful = flow["hpwl_final"] == twin["hpwl_final"]
    values["dp.replica_faithful"] = int(faithful)
    if do_dp and not faithful:
        failures.append("DP replay is not faithful: dp.run_s is "
                        "DetailedPlacer.run timed directly")
        values["dp.run_s"] = traced.detailed_direct(
            rec, db, params, fences, flow["x_lg"], flow["y_lg"])
    traced_wall = duration(flow["root"])
    values["trace.overhead_pct"] = \
        100.0 * (traced_wall - twin["flow_s"]) / twin["flow_s"]

    with rec.span("probes"):
        lg_values, lg_same = traced.lg_probes(rec, db, params, fences, flow)
        values.update(lg_values)
        if lg_same is False:
            failures.append("direct Tetris+Abacus differ from legalize")
        values.update(traced.coarsen_probe(rec, db, params, fences))
        values.update(traced.ops_probes(
            rec, db, params, fences, flow["x_gp"], flow["y_gp"]))
        runner_values, serial_hashes, agree = traced.runner_probes(
            rec, aux, specs, os.path.join(workdir, "store_serial"))
        values.update(runner_values)
    if not agree:
        failures.append("serial jobs, cache hits and direct runs disagree")
    pool_cold_s = reference.get("pool_cold_s")
    values["runner.pool_speedup"] = \
        values["runner.serial_job_s"] / pool_cold_s if pool_cold_s else 0.0
    if specs and serial_hashes != reference["deterministic"]["job_hashes"]:
        failures.append("serial and pooled job hashes differ")
    values["benchgen.generate_s"] = total(rec.spans, "benchgen.generate")

    return {
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "per_layer": values,
        "shares_pct": layer_shares(rec.spans, flow["root"]),
        "gp_iter_ms": flow["iter_ms"],
        "spans": rec.spans,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "untraced", "traced"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = BY_NAME[args.workload]
    rec = SpanRecorder(workload.name) if args.mode == "traced" else None
    os.makedirs(args.workdir, exist_ok=True)
    aux, fences, specs, store = set_up(
        workload, args.seed, args.smoke, args.workdir, rec)
    setup_s = time.perf_counter() - _T0

    if args.mode == "setup":
        body = {"attempted": 0, "failed": 0, "failures": []}
    elif args.mode == "untraced" and workload.jobs:
        body = run_untraced_batch(specs, store)
    elif args.mode == "untraced":
        body = run_untraced_placement(workload, aux, fences, args.workdir)
    else:
        with open(args.reference) as handle:
            reference = json.load(handle)
        body = run_traced(workload, rec, aux, fences, specs, args.workdir,
                          reference)
    body.update({
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "smoke": args.smoke,
        "setup_s": setup_s,
        "fingerprint": _files_sha256(aux),
        "environment": _environment(),
    })
    with open(args.out, "w") as handle:
        # numpy scalars (counts taken from arrays) become plain numbers
        json.dump(body, handle, default=lambda scalar: scalar.item())
    return 0


if __name__ == "__main__":
    sys.exit(main())
