"""``python -m repro.bench.suite compare A.json B.json``.

For every workload and end-to-end metric, prints each
side's median and quartiles and a verdict for B against A:

* ``unresolved`` — either side's spread (interquartile distance over
  median) exceeds the metric's bound, unless every run of B beats every
  run of A;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``gain`` — over at least 10 paired runs, B wins at least 9 in 10
  (ties count for neither) and the medians differ by more than A's
  interquartile distance;
* ``unchanged`` — otherwise.

Bounds come from ``BENCHMARK.json`` at the checkout root.  Exit status
is 1 when any pair regressed, else 0.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

from ...errors import BenchError
from .inputs import WORKLOADS
from .metrics import END_TO_END, quartiles, spread
from .procs import ROOT

GAIN_SHARE = 0.9
# A gain rests on at least this many paired runs.
MIN_PAIRS = 10


def load_bounds() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """B's runs against A's runs for one metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = quartiles(a)
    mb = quartiles(b)[1]
    every_run_better = max(sign * y for y in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not every_run_better:
        return "unresolved"
    if sign * (mb - ma) > bound * abs(ma):
        return "regression"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= GAIN_SHARE * len(pairs)
        and sign * (mb - ma) < 0
        and abs(mb - ma) > qa3 - qa1
    ):
        return "gain"
    return "unchanged"


def _values(report: Dict, workload: str, metric: str) -> List[float]:
    runs = report["workloads"][workload]["runs"]
    return [run["metrics"][metric]["value"] for run in runs]


def compare(a: Dict, b: Dict, bounds: Dict[str, float]) -> List[Tuple]:
    rows = []
    for workload in WORKLOADS:
        for metric in END_TO_END:
            va = _values(a, workload, metric.name)
            vb = _values(b, workload, metric.name)
            rows.append((workload, metric, quartiles(va), quartiles(vb),
                         verdict(va, vb, bounds[metric.name], metric.better)))
    return rows


def compare_main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        raise BenchError("compare takes exactly two report files: A.json B.json")
    reports = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    rows = compare(reports[0], reports[1], load_bounds())
    print(f"{'workload':18s} {'metric':12s} {'unit':5s} "
          f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}  verdict")
    for workload, metric, qa, qb, result in rows:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
        print(f"{workload:18s} {metric.name:12s} {metric.unit:5s} "
              f"{cells[0]:>30s} {cells[1]:>30s}  {result}")
    return 1 if any(r[-1] == "regression" for r in rows) else 0
