"""Is the benchmark steady enough for its own bounds?

    python benchmarks/e2e/spread.py [--seeds 10] [--workloads a,b]

Runs every workload the way the benchmark driver does (``run.py
--workload W --seed N --seconds run_seconds --trace 0``) once per seed
and prints, per end-to-end metric, the distance between the first and
third quartile of the values as a share of their median, next to the
metric's bound.  A spread above the bound fails (exit code 1); the aim
is a third of the bound.  ``setup_s`` is shown but never fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_benchmark  # noqa: E402
from stats import relative_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    selected = args.workloads.split(",") if args.workloads else names

    values: dict = {}
    wide = 0
    for name in selected:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                wide += 1
            rows.append(result["metrics"])
        values[name] = rows
        for metric in benchmark["end_to_end"]:
            samples = [row[metric["name"]]["value"] for row in rows
                       if metric["name"] in row]
            spread = relative_spread(samples)
            flag = ""
            if spread > metric["bound"] and metric["name"] != "setup_s":
                flag = "  WIDER THAN THE BOUND"
                wide += 1
            elif spread > metric["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"{name:<12} {metric['name']:<13} median "
                  f"{statistics.median(samples):>12.6g} {metric['unit']:<7}"
                  f" spread {100 * spread:>6.2f}%  bound "
                  f"{100 * metric['bound']:>5.1f}%{flag}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(values, handle, indent=1)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
