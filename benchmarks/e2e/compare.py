"""Compare two result sets of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians, the change of
B against A as a share of A, the bound from ``BENCHMARK.json`` and a
verdict:

- ``ok``          B is no worse than A by more than the bound
- ``worse``       B is worse than A by more than the bound
- ``unresolved``  the run-to-run spread of A or B is wider than the
                  bound, so the pair cannot tell either way

Quality metrics a fixed seed determines (HPWL, overflow, iteration and
move counts, the placement itself) are compared for equality and
reported as ``equal`` or ``differs``.  The exit code is 1 if any row is
``worse`` — and, with ``--same-commit`` (two sets of one commit, which
must agree), if any row is ``unresolved`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_benchmark  # noqa: E402
from stats import relative_spread  # noqa: E402


def load_result_set(path: str) -> dict:
    with open(path) as handle:
        result_set = json.load(handle)
    if result_set.get("smoke"):
        raise SystemExit(f"error: {path} is a --smoke run, not a result")
    return result_set


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(change as a share of A, verdict)`` of one metric on one workload."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    spread = max(relative_spread(a["samples"]), relative_spread(b["samples"]))
    if spread > bound:
        return change, "unresolved"
    loss = change if better == "lower" else -change
    return change, "worse" if loss > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result set of the parent (the base)")
    parser.add_argument("b", help="result set of the change")
    parser.add_argument("--same-commit", action="store_true",
                        help="the sets must agree: unresolved and "
                        "differs also fail")
    args = parser.parse_args(argv)
    set_a, set_b = load_result_set(args.a), load_result_set(args.b)
    benchmark = load_benchmark()

    counts = {"ok": 0, "worse": 0, "unresolved": 0, "equal": 0, "differs": 0}
    print(f"{'workload':<12} {'metric':<13} {'A median':>13} {'B median':>13} "
          f"{'B vs A':>9} {'bound':>6}  verdict")
    for name, entry_a in set_a["workloads"].items():
        entry_b = set_b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in benchmark["end_to_end"]:
            a = entry_a.get("end_to_end", {}).get(metric["name"])
            b = entry_b.get("end_to_end", {}).get(metric["name"])
            if a is None or b is None:
                continue
            change, word = verdict(a, b, metric["better"], metric["bound"])
            counts[word] += 1
            print(f"{name:<12} {metric['name']:<13} {a['median']:>13.6g} "
                  f"{b['median']:>13.6g} {100 * change:>+8.2f}% "
                  f"{100 * metric['bound']:>5.1f}%  {word}")
        det_a = entry_a.get("deterministic", {})
        det_b = entry_b.get("deterministic", {})
        if set_a["seed"] == set_b["seed"] and det_a and det_b:
            keys = [k for k in det_a if det_a[k] != det_b.get(k)]
            word = "differs" if keys else "equal"
            counts[word] += 1
            print(f"{name:<12} deterministic metrics: {word}"
                  + (f" ({', '.join(keys)})" if keys else ""))
    print("  ".join(f"{count} {word}" for word, count in counts.items()))

    failing = counts["worse"]
    if args.same_commit:
        failing += counts["unresolved"] + counts["differs"]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
