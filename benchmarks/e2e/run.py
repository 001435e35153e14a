"""The end-to-end ledger: file -> GP -> LG -> DP -> file, the GP cascade,
the fenced flow and the batch runner, timed end to end and layer by layer.

    python benchmarks/e2e/run.py [--seed N] [--reps 3] [--workloads a,b]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The first form is the ledger: every selected workload runs ``--reps``
untraced repetitions and one traced one, every metric is printed by
name with its unit, the outputs are checked, and the result set is
written to ``--out`` for ``compare.py``.  The second form is what the
benchmark driver calls (``BENCHMARK.json``): one workload, either the
end-to-end metrics (``--trace 0``, repetitions until ``--seconds`` of
timed region are measured, at least one) or the per-layer metrics
(``--trace 1``), with the result as the last line of standard output.

Each repetition is a fresh child process (``proc.py``), one after
another, pinned to one thread and one hash seed; only ``batch_pool``
itself starts two workers.  Metric names, units, directions and bounds
come from ``BENCHMARK.json``; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from stats import rep_summary  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

#: every run reports the median of at least this many set-up times
SETUP_SAMPLES = 3
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 170
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, mode: str, smoke: bool,
              workdir: str, reference: str | None = None) -> dict:
    """One ``proc.py`` process; a dict with ``failures`` whatever happens."""
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "proc.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--workdir", workdir, "--out", out]
    if smoke:
        command.append("--smoke")
    if reference:
        command += ["--reference", reference]
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_VARS})
    # str hashes are otherwise drawn per process, and the Bookshelf
    # parser's dicts make that worth 6 % of a read-back's spread
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # own session: a timeout must also reach batch_pool's pool workers
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        error = None if child.returncode == 0 \
            else f"exit code {child.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        output, _ = child.communicate()
        error = f"killed after {CHILD_TIMEOUT_S} s"
    if error is None and os.path.exists(out):
        with open(out) as handle:
            return json.load(handle)
    tail = " | ".join(output.strip().splitlines()[-3:])
    return {"attempted": 1, "failed": 1, "mode": mode,
            "failures": [f"{mode} process: {error or 'no result'}: {tail}"]}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class WorkloadRun:
    """Runs the children of one workload and accumulates its entry."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: set[str] = set()
        self.setup_s: list[float] = []
        self.environment = None
        self.reference_path = None

    def child(self, mode: str, keep: bool = False) -> dict:
        self.children += 1
        workdir = os.path.join(self.workdir, f"{self.children}-{mode}")
        reference = self.reference_path if mode == "traced" else None
        result = run_child(self.name, self.seed, mode, self.smoke, workdir,
                           reference)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        if "setup_s" in result:
            self.setup_s.append(result["setup_s"])
            self.fingerprints.add(result["fingerprint"])
            self.environment = result["environment"]
        if keep and "setup_s" in result:
            self.reference_path = os.path.join(workdir, "result.json")
        else:
            shutil.rmtree(workdir, ignore_errors=True)
        return result

    def fail(self, reason: str) -> None:
        """A cross-run check missed: one more failed operation."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(reason)

    # ------------------------------------------------------------------
    def untraced(self, reps: int, seconds: float | None) -> dict:
        """End-to-end metrics over fresh-process repetitions."""
        results = []
        measured = 0.0
        while True:
            result = self.child("untraced", keep=not results)
            if "metrics" not in result:
                break
            results.append(result)
            last = result["metrics"]["flow_s"]
            measured += last
            if seconds is None and len(results) >= reps:
                break
            if seconds is not None and measured + last > seconds:
                break
        while results and len(self.setup_s) < SETUP_SAMPLES:
            if "setup_s" not in self.child("setup"):
                break
        if not results:
            return {}
        first = results[0]["deterministic"]
        if any(r["deterministic"] != first for r in results[1:]):
            self.fail("quality metrics differ between repetitions")
        if len(self.fingerprints) != 1:
            self.fail("input files differ between processes")
        samples = {name: [r["metrics"][name] for r in results]
                   for name in results[0]["metrics"]}
        samples["setup_s"] = self.setup_s
        return {
            "end_to_end": {name: rep_summary(values)
                           for name, values in samples.items()},
            "deterministic": first,
        }

    def traced(self) -> dict:
        """Per-layer metrics from one traced repetition (after an
        untraced one of the same seed, its reference)."""
        if self.reference_path is None:
            self.child("untraced", keep=True)
        if self.reference_path is None:
            return {}
        result = self.child("traced")
        if "per_layer" not in result:
            return {}
        return {key: result[key] for key in (
            "per_layer", "shares_pct", "gp_iter_ms", "spans")}

    def entry(self, body: dict) -> dict:
        body = dict(body)
        body.update({
            "fingerprint": next(iter(self.fingerprints), None),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        })
        return body


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _check_metrics(run: WorkloadRun, listed: list[dict], values: dict,
                   kind: str) -> dict:
    """``{name: {value, unit}}`` for every metric ``BENCHMARK.json``
    lists; a missing or non-finite one is a failed operation."""
    out = {}
    for metric in listed:
        value = values.get(metric["name"])
        if isinstance(value, dict):
            value = value["median"]
        if value is None or not math.isfinite(value):
            run.fail(f"{kind} metric {metric['name']} missing or "
                     f"not finite: {value}")
            continue
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def _print_workload(name: str, entry: dict, benchmark: dict) -> None:
    print(f"== {name}  seed {entry['seed']}  input "
          f"{(entry['fingerprint'] or '?')[:12]}  "
          f"{entry['attempted']} operations, {entry['failed']} failed")
    for reason in entry["failures"]:
        print(f"   FAILED: {reason}")
    for metric in benchmark["end_to_end"]:
        summary = entry.get("end_to_end", {}).get(metric["name"])
        if summary:
            print(f"   {metric['name']:<28} {summary['median']:>14.6g} "
                  f"{metric['unit']:<7} min {summary['min']:.6g}  "
                  f"max {summary['max']:.6g}  n {summary['n']}")
    layers = entry.get("per_layer")
    if layers:
        for metric in benchmark["per_layer"]:
            if metric["name"] in layers:
                print(f"   {metric['name']:<28} "
                      f"{layers[metric['name']]:>14.6g} {metric['unit']}")
        tail = entry["gp_iter_ms"]
        print(f"   (core.gp_iter_ms.hi is p{tail['hi_pct']} of "
              f"{tail['n']} iterations)")
        shares = sorted(entry["shares_pct"].items(), key=lambda kv: -kv[1])
        print("   share of the traced flow: " + ", ".join(
            f"{layer} {share:.1f}%" for layer, share in shares))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w.name for w in WORKLOADS]
    parser.add_argument("--workload", choices=names,
                        help="driver form: the one workload to run")
    parser.add_argument("--workloads", help="comma-separated subset "
                        f"of {','.join(names)} (default: all)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed of the generated designs")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced repetitions per workload")
    parser.add_argument("--seconds", type=float,
                        help="repeat until this much timed region is "
                        "measured instead of --reps times")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end metrics only, "
                        "1 per-layer metrics only")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads; the output is marked "
                        "and is not a result")
    parser.add_argument("--out", help="result set (JSON) for compare.py")
    parser.add_argument("--spans", help="span file (JSON) of traced runs")
    args = parser.parse_args(argv)

    if args.workload:
        selected = [args.workload]
    elif args.workloads:
        selected = args.workloads.split(",")
        unknown = [name for name in selected if name not in BY_NAME]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; known: {names}")
    else:
        selected = names
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no placer to benchmark under {SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()

    out_dir = os.path.join(HERE, "out")
    suffix = f"seed{args.seed}" + ("-smoke" if args.smoke else "")
    out_path = args.out or os.path.join(out_dir, f"results-{suffix}.json")
    spans_path = args.spans or os.path.join(out_dir, f"spans-{suffix}.json")
    workdir = os.path.join(HERE, "_work", f"{os.getpid()}")

    result_set = {"schema": 1, "smoke": args.smoke, "seed": args.seed,
                  "environment": None, "workloads": {}}
    spans = []
    metrics = {}
    try:
        for name in selected:
            run = WorkloadRun(name, args.seed, args.smoke,
                              os.path.join(workdir, name))
            body = {"seed": args.seed}
            if args.trace != 1:
                body.update(run.untraced(args.reps, args.seconds))
                metrics = _check_metrics(
                    run, benchmark["end_to_end"],
                    body.get("end_to_end", {}), "end-to-end")
            if args.trace != 0:
                traced = run.traced()
                spans += traced.pop("spans", [])
                body.update(traced)
                layer_metrics = _check_metrics(
                    run, benchmark["per_layer"],
                    body.get("per_layer", {}), "per-layer")
                if args.trace == 1:
                    metrics = layer_metrics
            entry = run.entry(body)
            result_set["workloads"][name] = entry
            result_set["environment"] = run.environment
            _print_workload(name, entry, benchmark)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for path, payload in ((out_path, result_set), (spans_path, spans)):
        if payload:
            os.makedirs(os.path.dirname(os.path.abspath(path)),
                        exist_ok=True)
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=1)
                handle.write("\n")

    attempted = sum(e["attempted"] for e in result_set["workloads"].values())
    failed = sum(e["failed"] for e in result_set["workloads"].values())
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed}
    if args.trace is not None and len(selected) == 1:
        summary["metrics"] = metrics
    else:
        summary["results"] = os.path.relpath(out_path)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
