#!/usr/bin/env python3
"""Collate benchmarks/results/*.json into EXPERIMENTS.md.

Run the benchmark suite first::

    pytest benchmarks/ --benchmark-only -s
    python tools/make_experiments_md.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.registry import EXPERIMENTS  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "results")
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

# Hand-written commentary per experiment: what matched, what deviated.
NOTES = {
    "fig01": "Range compressed relative to the paper (their traces include "
             "backend/data-side stalls our model abstracts away); ordering and "
             "double-digit frontend-boundedness reproduce.",
    "fig02": "Both limit studies show large headroom. In the paper the ideal "
             "BTB beats the ideal I-cache on average; in our model the two are "
             "close and the ordering varies per app (our synthetic footprints "
             "stress the L1i relatively harder).",
    "fig03": "verilator is the extreme outlier as in the paper; absolute MPKIs "
             "sit below the paper's (shorter traces, scaled footprints) but the "
             "cross-app ordering and >5x spread reproduce.",
    "fig04": "Capacity misses dominate and compulsory misses are a small "
             "minority, as in the paper.",
    "fig05": "Capacity misses shrink monotonically with BTB size and are "
             "mostly gone by 32K-64K entries — the paper's conclusion.",
    "fig06": "Conflict misses shrink with associativity but persist at high "
             "way counts, matching the paper's observation.",
    "fig07": "Conditional branches dominate BTB accesses (~78% here, similar "
             "in the paper).",
    "fig08": "Unconditional branches and calls are strongly overrepresented "
             "among misses relative to their access share — the paper's 20.75% "
             "of branches vs 37.5% of misses asymmetry reproduces.",
    "fig09": "Shotgun and Confluence capture only a small fraction of the "
             "ideal-BTB speedup; on the HHVM-like apps the fixed partitioning/"
             "I-cache coupling can go slightly negative (the paper's §2.3 "
             "storage-waste narrative, amplified at our scale).",
    "fig10": "All three stream classes are present. Our non-repetitive share "
             "is higher than the paper's 12% (short traces mean fewer "
             "recurrences per branch), which also depresses the temporal "
             "prefetchers in fig09/fig17 — direction preserved, magnitude "
             "shifted.",
    "fig11": "The unconditional working sets straddle Shotgun's 5120-entry "
             "U-BTB exactly as in the paper: too small for some apps, "
             "overflowing for others.",
    "fig12": "About a third of conditional executions fall outside Shotgun's "
             "8-line spatial window, inside the paper's 26-45% band.",
    "fig14": "Our prefetch-to-branch offsets are heavier-tailed than the "
             "paper's (synthetic layout approximates but does not equal a "
             "BOLT-optimized production binary), so fewer fit in 12 bits; the "
             "CDF shape (long tail motivating coalescing) reproduces.",
    "fig15": "Branch-to-target offsets are mostly 12-bit encodable as in the "
             "paper.",
    "fig16": "Twig beats Shotgun everywhere and lands between the baseline "
             "and the ideal BTB; average magnitude is below the paper's "
             "20.86% in proportion to the smaller ideal-BTB headroom of our "
             "scaled workloads. Twig's speedup rivals (and its 8K BTB "
             "undercuts the storage of) the 32K-entry BTB.",
    "fig17": "Twig's miss coverage leads both prior techniques. Absolute "
             "coverage is below the paper's 65.4% because our cross-input "
             "profiles see each miss context only a handful of times "
             "(100M-instruction production profiles are far denser).",
    "fig18": "Software BTB prefetching provides the majority of Twig's gain "
             "with coalescing contributing the rest, matching the paper's "
             "~71/29 split in direction.",
    "fig19": "Shotgun/Confluence accuracies land near the paper's ~19%. "
             "Twig's accuracy falls below its paper value (31.3%): with our "
             "sparse cross-input profiles, injected ops fire in contexts "
             "where the branch is still BTB-resident. Raising the confidence "
             "floor trades coverage for accuracy without changing the "
             "speedup ordering (see the confidence ablation).",
    "fig20": "Training-input profiles retain most of the same-input benefit, "
             "the paper's key generalization claim.",
    "fig21": "Static instruction overhead is single-digit percent on average, "
             "as in the paper.",
    "fig22": "Dynamic instruction overhead averages a few percent, as in the "
             "paper.",
    "fig23": "Twig leads Shotgun and Confluence at every BTB capacity.",
    "fig24": "Twig leads at every associativity.",
    "fig25": "Performance scales with prefetch-buffer size and saturates "
             "around 128 entries, as in Fig 25.",
    "fig26": "The prefetch distance shows an interior optimum in the paper's "
             "15-25 cycle region: too-small distances miss timeliness, "
             "too-large ones discard accurate nearby predecessors.",
    "fig27": "An 8-bit coalescing bitmask captures most of the achievable "
             "benefit, the paper's chosen design point.",
    "fig28": "Twig's share of the ideal-BTB speedup is stable across FTQ "
             "depths, i.e. it scales to frontends that run far ahead.",
    "table2": "Cross-input averages and standard deviations per app; "
              "verilator is the most stable app in both the paper and here.",
    "table3": "Working-set growth from injected instructions and the "
              "coalescing table is single-digit percent for every app.",
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    return str(value)


def main() -> None:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `tools/make_experiments_md.py` from the JSON results",
        "the benchmark suite writes to `benchmarks/results/`. Regenerate",
        "with:",
        "",
        "```bash",
        "pytest benchmarks/ --benchmark-only -s",
        "python tools/make_experiments_md.py",
        "```",
        "",
        "All comparisons are *shape-level* (DESIGN.md §6): the substrate is",
        "a Python timing model over synthetic workloads, so orderings,",
        "bands, and sweep shapes are the reproduction target, not absolute",
        "numbers.",
        "",
        "Beyond the figures, `benchmarks/test_service_bench.py` (also",
        "`python -m repro.service run`) times the continuous-profiling plan",
        "service — streaming ingest, incremental verified builds, overload",
        "shedding — with online==offline plan parity asserted; DESIGN.md §11.",
        "",
    ]
    missing = []
    for exp_id in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[exp_id]
        path = os.path.join(RESULTS_DIR, f"{exp_id}.json")
        lines.append(f"## {exp_id} — {exp.title}")
        lines.append("")
        lines.append(f"**Paper:** {exp.paper_claim}")
        lines.append("")
        if not os.path.exists(path):
            missing.append(exp_id)
            lines.append("*(no saved result — run the benchmark suite)*")
            lines.append("")
            continue
        with open(path) as fh:
            result = json.load(fh)
        if "average" in result:
            lines.append(f"**Measured (average):** {_fmt(result['average'])}")
            lines.append("")
        if "per_app" in result:
            lines.append("| app | measured |")
            lines.append("|---|---|")
            for app in sorted(result["per_app"]):
                lines.append(f"| {app} | {_fmt(result['per_app'][app])} |")
            lines.append("")
        if "series" in result:
            lines.append("| sweep point | measured |")
            lines.append("|---|---|")
            for point in sorted(result["series"], key=lambda p: float(p)):
                lines.append(f"| {point} | {_fmt(result['series'][point])} |")
            lines.append("")
        if "rows" in result:
            lines.append("| app | measured |")
            lines.append("|---|---|")
            for app in sorted(result["rows"]):
                lines.append(f"| {app} | {_fmt(result['rows'][app])} |")
            lines.append("")
        note = NOTES.get(exp_id)
        if note:
            lines.append(f"**Assessment:** {note}")
            lines.append("")
    lines.extend(_extension_sections())
    with open(OUTPUT, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {OUTPUT}" + (f" ({len(missing)} experiments missing)" if missing else ""))


EXTENSIONS = {
    "ablation_profile_density": (
        "Ablation: profile density",
        "Sweeping the LBR sampling rate shows Twig's coverage degrading "
        "as profiles thin — the mechanism behind every magnitude gap "
        "between our short-trace reproduction and the paper's "
        "production-scale profiles.",
    ),
    "ablation_prefetch_buffer_zero": (
        "Ablation: removing the prefetch buffer",
        "With a zero-entry buffer every injected op becomes a no-op and "
        "all covered misses disappear: the staging buffer is load-bearing.",
    ),
    "ext_boomerang": (
        "Extension: Boomerang baseline (§5)",
        "The metadata-free predecode-on-fill design; Twig outperforms it "
        "on every app, consistent with the paper's related-work argument "
        "that its timeliness depends entirely on frontend run-ahead.",
    ),
    "ext_bulk_preload": (
        "Extension: two-level bulk-preload BTB (§5)",
        "A large second level bulk-filling code regions recovers part of "
        "a small first level's penalty, but its spatial-only reach ('similar "
        "to the next-line prefetchers', §5) leaves it well short of Twig.",
    ),
    "ext_compressed_btb": (
        "Extension: Twig on a delta-compressed BTB (§5)",
        "Compression alone reduces misses (more entries per byte), and "
        "Twig still delivers speedup on top — the paper's claim that it "
        "is independent of the underlying BTB organization.",
    ),
}


def _extension_sections():
    lines = ["## Beyond the paper: ablations and extensions", ""]
    for exp_id, (title, note) in EXTENSIONS.items():
        path = os.path.join(RESULTS_DIR, f"{exp_id}.json")
        lines.append(f"### {title}")
        lines.append("")
        if not os.path.exists(path):
            lines.append("*(no saved result — run the benchmark suite)*")
            lines.append("")
            continue
        with open(path) as fh:
            result = json.load(fh)
        for key in ("per_app", "series"):
            if key in result:
                lines.append("| key | measured |")
                lines.append("|---|---|")
                for k in sorted(result[key], key=str):
                    lines.append(f"| {k} | {_fmt(result[key][k])} |")
                lines.append("")
        lines.append(f"**Assessment:** {note}")
        lines.append("")
    return lines


if __name__ == "__main__":
    main()
