#!/usr/bin/env python
"""Render EXPERIMENTS.md from benchmarks/results/*.json.

Run after ``pytest benchmarks/ --benchmark-only``::

    python benchmarks/render_experiments.py > EXPERIMENTS.md
"""

from __future__ import annotations

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Reproduction environment: single CPU core, pure Python/numpy (no GPU,
no PyTorch); synthetic benchmark suites at 1/SCALE of the paper's cell
counts (SCALE shown per table).  Absolute numbers are therefore not
comparable to the paper's; each experiment checks the *shape* — who
wins, by roughly what factor, where the crossovers fall.  "Baseline"
is this repo's RePlAce-style reference implementation (bound-to-bound
initial placement + per-net/per-cell loop kernels + row-column
2N-point DCT); "DREAMPlace" is the vectorized implementation with
random-center initialization — the same algorithm organized the way
the paper organizes its GPU kernels.  Baseline nonlinear-GP runtimes
are obtained by per-iteration extrapolation (the same estimation the
paper applies to RePlAce on its 10M-cell design).

Regenerate everything with ``pytest benchmarks/ --benchmark-only``,
then re-render this file with
``python benchmarks/render_experiments.py > EXPERIMENTS.md``.
"""


def load(name: str) -> list[dict]:
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return json.load(handle)


def last_run(rows: list[dict]) -> list[dict]:
    """Keep only the newest entry per key (design/config/...)."""
    best: dict[str, dict] = {}
    for row in rows:
        key = json.dumps(
            {k: row.get(k) for k in ("design", "config", "strategy",
                                     "dtype", "solver", "transform",
                                     "impl", "size", "ablation", "part")},
            sort_keys=True,
        )
        best[key] = row  # later entries overwrite earlier ones
    return list(best.values())


def fmt(value, digits=3):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if 0 < abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.{digits}f}"
    if isinstance(value, dict):  # e.g. Fig. 9(b)'s per-op self seconds
        return "{" + ", ".join(
            f"{k}={fmt(v, digits)}" for k, v in value.items()) + "}"
    return str(value)


def table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(out)


def section_table2() -> str:
    rows = last_run(load("table2_ispd2005"))
    designs = [r for r in rows if r.get("design", "").startswith(
        ("adaptec", "bigblue"))]
    summary = next((r for r in rows if r.get("design") == "__summary__"),
                   None)
    if not designs:
        return ""
    scale = designs[0].get("scale", "?")
    body = table(
        ["design", "cells", "base HPWL", "base GP(s)", "drm HPWL",
         "drm GP(s)", "GP speedup", "HPWL ratio"],
        [[r["design"], r["cells"], r["base_hpwl"], r["base_gp"],
          r["dream_hpwl"], r["dream_gp"],
          r["base_gp"] / max(r["dream_gp"], 1e-9),
          r["base_hpwl"] / max(r["dream_hpwl"], 1e-9)]
         for r in sorted(designs, key=lambda d: d["design"])],
    )
    notes = ""
    if summary:
        notes = (
            f"\n**Measured:** mean GP speedup "
            f"{summary['mean_gp_speedup']:.1f}x at HPWL ratio "
            f"{summary['mean_hpwl_ratio']:.4f}.  "
            "**Paper:** 38x (GPU vs 40-thread RePlAce) at ratio 1.002, "
            "and 2x for the vectorized CPU build.  Shape holds: a large "
            "kernel-organization speedup with no quality loss.  Our "
            "measured factor folds the vectorization gap *and* the "
            "random-vs-B2B initialization saving into one number."
        )
    return (f"## Table II — ISPD2005 analogs (float64, 1/{scale} size)\n\n"
            + body + notes + "\n")


def section_table3() -> str:
    rows = last_run(load("table3_industrial"))
    designs = [r for r in rows if r.get("design", "").startswith("design")]
    summary = next((r for r in rows if r.get("design") == "__summary__"),
                   None)
    if not designs:
        return ""
    scale = designs[0].get("scale", "?")
    body = table(
        ["design", "cells", "base GP(s)", "drm GP(s)", "GP speedup",
         "HPWL ratio", "iterations"],
        [[r["design"], r["cells"], r["base_gp"], r["dream_gp"],
          r["base_gp"] / max(r["dream_gp"], 1e-9),
          r["base_hpwl"] / max(r["dream_hpwl"], 1e-9),
          r["iterations"]]
         for r in sorted(designs, key=lambda d: d["design"])],
    )
    notes = ""
    if summary:
        notes = (
            f"\n**Measured:** GP seconds/cell grows "
            f"{summary['per_cell_growth']:.2f}x from design1 to design6 "
            "(8x more cells).  **Paper:** 47x GP speedup; nearly linear "
            "scalability up to 10M cells (design6's RePlAce runtime was "
            "itself an extrapolation after an out-of-memory crash — we "
            "apply the same per-iteration extrapolation to the baseline "
            "on every design)."
        )
    return (f"## Table III — industrial analogs (float64, 1/{scale} "
            "size)\n\n" + body + notes + "\n")


def section_table4() -> str:
    rows = last_run(load("table4_solvers"))
    cells = [r for r in rows if r.get("solver")]
    summary = next((r for r in rows if r.get("design") == "__summary__"),
                   None)
    if not cells:
        return ""
    by_design: dict[str, dict] = {}
    for r in cells:
        by_design.setdefault(r["design"], {})[r["solver"]] = r
    body_rows = []
    for design in sorted(by_design):
        row = by_design[design]
        if len(row) < 3:
            continue
        body_rows.append([
            design,
            row["nesterov"]["hpwl"], row["nesterov"]["gp"],
            row["adam"]["hpwl"], row["adam"]["gp"],
            row["sgd"]["hpwl"], row["sgd"]["gp"],
        ])
    body = table(
        ["design", "nesterov HPWL", "GP(s)", "adam HPWL", "GP(s)",
         "sgd HPWL", "GP(s)"], body_rows,
    )
    notes = ""
    if summary:
        notes = (
            f"\n**Measured:** Adam HPWL ratio "
            f"{summary['adam_hpwl_ratio']:.3f} at GP ratio "
            f"{summary['adam_gp_ratio']:.2f}x; SGD+momentum "
            f"{summary['sgd_hpwl_ratio']:.3f} at "
            f"{summary['sgd_gp_ratio']:.2f}x (vs Nesterov = 1.0).  "
            "**Paper:** Adam 0.997 at 1.78x; SGD 1.012 at 1.69x.  "
            "Quality shape holds (Adam competitive/slightly better, SGD "
            "worse).  The paper's runtime gap does not reproduce at "
            "this scale: all solvers stop at the same overflow target "
            "in a similar iteration count, and one Nesterov iteration "
            "(with its line-search re-evaluations) costs about as much "
            "as one Adam iteration on this substrate.  SGD on the "
            "bigblue3 analog is an outlier (its clustered GP output "
            "also exposed a greedy-legalizer limitation, now handled "
            "by tetris_legalize's packed-mode retry) — echoing the "
            "paper's observation that these solvers need per-design "
            "learning-rate care."
        )
    return "## Table IV — solver comparison\n\n" + body + notes + "\n"


def section_table5() -> str:
    rows = last_run(load("table5_routability"))
    designs = [r for r in rows if r.get("design", "").startswith("superblue")
               and "__" not in r.get("design", "")]
    summary = next((r for r in rows if r.get("design") == "__summary__"),
                   None)
    reference = next(
        (r for r in rows if "__reference" in r.get("design", "")), None
    )
    if not designs:
        return ""
    body = table(
        ["design", "plain RC", "plain sHPWL", "driven RC",
         "driven sHPWL", "NL(s)", "GR(s)", "inflation rounds"],
        [[r["design"], r["plain_rc"], r["plain_shpwl"], r["rc"],
          r["shpwl"], r["nl"], r["gr"], r["rounds"]]
         for r in sorted(designs, key=lambda d: d["design"])],
    )
    notes = "\n**Measured:** "
    if summary:
        notes += (
            f"the inflation flow matches or beats plain sHPWL on "
            f"{summary['shpwl_win_fraction']:.0%} of designs. "
        )
    if reference:
        notes += (
            f"Reference-kernel NL time on {reference['design'].split('__')[0]}: "
            f"{reference['nl']:.1f}s. "
        )
    notes += (
        "**Paper:** DREAMPlace-GPU achieves the same sHPWL/RC as RePlAce "
        "with 20x faster NL and the router at ~70% of GP time.  Our "
        "router substrate is much faster than single-threaded NCTUgr "
        "relative to NL, so GR does *not* dominate here; the "
        "quality-side shape (inflation trades HPWL for RC and wins on "
        "sHPWL under congestion) reproduces."
    )
    return ("## Table V — DAC2012 routability-driven analogs "
            "(float32)\n\n" + body + notes + "\n")


def section_breakdown(name: str, title: str, paper_note: str) -> str:
    """Key/value dump for heterogeneous result rows (fig3/fig9/ablations)."""
    rows = last_run(load(name))
    if not rows:
        return ""
    lines = []
    for row in rows:
        items = [
            f"{k}={fmt(v)}" for k, v in row.items()
            if k not in ("timestamp", "scale")
        ]
        lines.append("- " + ", ".join(items))
    return f"## {title}\n\n" + "\n".join(lines) + f"\n\n{paper_note}\n"


def section_fig(name: str, title: str, paper_note: str,
                headers: list[str], keys: list[str],
                sort_keys: list[str]) -> str:
    rows = [r for r in last_run(load(name))
            if all(k in r for k in keys)]
    if not rows:
        return ""
    rows.sort(key=lambda r: tuple(str(r.get(k)) for k in sort_keys))
    body = table(headers, [[r[k] for k in keys] for r in rows])
    return f"## {title}\n\n{body}\n\n{paper_note}\n"


def main() -> None:
    sections = [
        PREAMBLE,
        section_table2(),
        section_table3(),
        section_table4(),
        section_table5(),
        section_breakdown(
            "fig3_baseline_breakdown",
            "Fig. 3 — baseline runtime breakdown (bigblue4 analog)",
            "**Paper:** GP (initial placement + nonlinear) is ~90% of "
            "RePlAce's runtime; GP-IP alone is 25-30% of GP.  Our "
            "sparse-linear B2B initializer is comparatively much faster "
            "than the reference nonlinear kernels, so GP still "
            "dominates but GP-IP's share is smaller."
            "  From PR 1 until PR 13 ``ElectricDensity`` ignored its "
            "strategy (every label ran the ``flat`` kernel); these rows "
            "were measured after the fix, and the rows they replaced "
            "dated from the seed, before the bug.",
        ),
        section_fig(
            "fig6_density_scatter",
            "Fig. 6 — density scatter/gather work partitioning",
            "**Paper:** 2x2 threads per cell is 20-30% faster than 1x1 "
            "on GPU.  CPU analog: the offset-parallel ``stamp`` scheme "
            "and the footprint-grouped ``sorted`` scheme both beat the "
            "per-cell ``naive`` loop by far larger factors (Python loop "
            "overhead amplifies the imbalance the figure measures).  "
            "``flat`` is this repo's production overlap-plan kernel, "
            "not a paper row.",
            ["strategy", "dtype", "mean seconds"],
            ["strategy", "dtype", "mean_seconds"],
            ["strategy", "dtype"],
        ),
        section_fig(
            "fig7_gp_runtime",
            "Fig. 7 — GP runtime by implementation and precision",
            "**Paper:** GPU implementations are fastest everywhere; "
            "float32 gives a further 1.3-1.4x.  Measured: the "
            "vectorized build beats the reference everywhere; float32 "
            "is *not* faster on this numpy substrate (no SIMD-width "
            "win, extra casts) — an honest substrate divergence.",
            ["design", "config", "GP seconds"],
            ["design", "config", "gp_seconds"],
            ["design", "config"],
        ),
        section_fig(
            "fig8_strategy_scaling",
            "Fig. 8 — normalized GP cost across kernel configurations",
            "**Paper:** runtime ratios saturate with CPU threads; the "
            "TCAD GPU version is the 1.0 reference.  CPU analog: each "
            "step along the fusion/vectorization axis (reference -> "
            "atomic -> merged -> merged+stamp+2D) buys a large, "
            "then diminishing, factor."
            "  From PR 1 until PR 13 ``ElectricDensity`` ignored its "
            "strategy (every label ran the ``flat`` kernel); these rows "
            "were measured after the fix, and the rows they replaced "
            "dated from the seed, before the bug.",
            ["config", "per-iteration seconds"],
            ["config", "per_iteration_seconds"],
            ["config"],
        ),
        section_breakdown(
            "fig9_breakdown",
            "Fig. 9 — DREAMPlace runtime breakdown (bigblue4 analog)",
            "**Paper:** (a) GP+LG are 6.2% of the flow (DP via external "
            "tool dominates); (b) density is 73.4% of one GP "
            "forward+backward, wirelength 26.5%.  Measured shape agrees "
            "on both: DP dominates the flow, density dominates the "
            "pass.",
        ),
        section_fig(
            "fig10_wirelength_ops",
            "Fig. 10 — WA wirelength kernel strategies (float32)",
            "**Paper:** merged (Alg. 2) is 3.7x over net-by-net and "
            "1.8x over atomic (Alg. 1) on GPU; on CPU merged is >30% "
            "faster than net-by-net.  Measured: the same ordering, with "
            "a much larger merged-vs-net-by-net factor because the "
            "net-by-net loop pays Python per-net overhead (it plays the "
            "role of the paper's underutilized |E|-thread kernel).",
            ["design", "strategy", "mean seconds"],
            ["design", "strategy", "mean_seconds"],
            ["design", "strategy"],
        ),
        section_fig(
            "fig11_dct",
            "Fig. 11 — DCT/IDCT algorithms",
            "**Paper (GPU):** N-point beats 2N-point (2.1x), and the "
            "single 2-D FFT (Alg. 4) is fastest (5x) because it "
            "amortizes kernel launches.  **Measured (1 CPU core):** "
            "both fast algorithms beat 2N-point by similar factors, but "
            "the N-point row-column form ties (DCT) or beats (IDCT) the "
            "single 2-D FFT — "
            "one-sided real FFTs do half the work of the full complex "
            "2-D FFT and there are no kernel launches to amortize.  "
            "This is the one place the paper's ordering inverts on this "
            "substrate.  ``scipy`` is not a paper row: it is the library "
            "transform (``scipy.fft.dctn`` type 2/3 scaled to eq. (7), "
            "run in float32) that the production Poisson solve uses; the "
            "paper hand-wrote its transforms only because PyTorch had "
            "no DCT.",
            ["transform", "impl", "size", "mean seconds"],
            ["transform", "impl", "size", "mean_seconds"],
            ["transform", "size", "impl"],
        ),
        section_fig(
            "fig12_density_ops",
            "Fig. 12 — density operator forward+backward (float32)",
            "**Paper:** the TCAD implementation is 1.5-2.1x over the "
            "DAC version on GPU, 3.1x from 1 to 40 CPU threads.  "
            "Measured: TCAD-analog (stamp scatter + fast transforms) "
            "over DAC-analog (naive scatter + 2N transforms) "
            "reproduces with larger factors, for the same "
            "Python-loop-overhead reason as Fig. 10; "
            "``production-flat`` is the default kernel of this repo."
            "  From PR 1 until PR 13 ``ElectricDensity`` ignored its "
            "strategy (every label ran the ``flat`` kernel); these rows "
            "were measured after the fix, and the rows they replaced "
            "dated from the seed, before the bug.",
            ["design", "config", "mean seconds"],
            ["design", "config", "mean_seconds"],
            ["design", "config"],
        ),
        section_breakdown(
            "ablations",
            "Ablations — claims made in the paper's text",
            "Random-center vs B2B initialization (paper: <0.04% quality "
            "difference, Section III); filler cells; the TCAD mu tweak "
            "(Section III-C); gamma annealing (Section II-C).  Each row "
            "records the measured values of both variants.",
        ),
    ]
    print("\n".join(s for s in sections if s))


if __name__ == "__main__":
    sys.exit(main())
