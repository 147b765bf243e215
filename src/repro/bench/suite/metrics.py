"""Metric catalog and the statistics every report uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` at the repository root
must list exactly these (``tests/bench`` checks it), and carries the
regression bound of each end-to-end metric.

Every workload reports every end-to-end metric; README.md says what
each one measures on each workload.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("latency_ms", "ms", "lower"),
    Metric("fresh_s", "s", "lower"),
    Metric("recover_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_LOW = "lower"
_HIGH = "higher"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("python.startup_s", "s", _LOW),
    Metric("workloads.build_s", "s", _LOW),
    Metric("workloads.builds", "count", _LOW),
    Metric("workloads.build_useful_frac", "frac", _HIGH),
    Metric("trace.gen_s", "s", _LOW),
    Metric("trace.compile_s", "s", _LOW),
    Metric("frontend.precompute_s", "s", _LOW),
    Metric("uarch.setup_s", "s", _LOW),
    Metric("uarch.run_s", "s", _LOW),
    Metric("uarch.kunits_per_s", "kunit/s", _HIGH),
    Metric("uarch.serial_runs", "count", _LOW),
    Metric("prefetchers.setup_s", "s", _LOW),
    Metric("profiling.collect_s", "s", _LOW),
    Metric("profiling.encode_s", "s", _LOW),
    Metric("profiling.decode_s", "s", _LOW),
    Metric("core.plan_s", "s", _LOW),
    Metric("core.sites_s", "s", _LOW),
    Metric("core.coalesce_s", "s", _LOW),
    Metric("experiments.cache_store_s", "s", _LOW),
    Metric("experiments.cache_store_bytes", "B", _LOW),
    Metric("experiments.cache_load_s", "s", _LOW),
    Metric("experiments.fanout_s", "s", _LOW),
    Metric("experiments.pool_busy_frac", "frac", _HIGH),
    Metric("journal.record_s", "s", _LOW),
    Metric("journal.bytes", "B", _LOW),
    Metric("ingest.absorb_s", "s", _LOW),
    Metric("ingest.fold_s", "s", _LOW),
    Metric("service.queue_wait_s", "s", _LOW),
    Metric("service.plan_api_s", "s", _LOW),
    Metric("persist.capture_s", "s", _LOW),
    Metric("persist.write_s", "s", _LOW),
    Metric("persist.snapshot_bytes", "B", _LOW),
    Metric("persist.restore_s", "s", _LOW),
    Metric("persist.replayed_batches", "count", _LOW),
    Metric("persist.plan_decode_s", "s", _LOW),
    Metric("staticcheck.verify_s", "s", _LOW),
    Metric("staticcheck.graph_s", "s", _LOW),
    Metric("staticcheck.findings", "count", _LOW),
    Metric("build.s", "s", _LOW),
    Metric("build.diff_s", "s", _LOW),
    Metric("build.versions", "count", _LOW),
    Metric("build.useful_frac", "frac", _HIGH),
    Metric("http.encode_plan_s", "s", _LOW),
    Metric("client.tail_ms", "ms", _LOW),
    Metric("client.lag_p90_ms", "ms", _LOW),
    Metric("client.capacity_rps", "1/s", _HIGH),
    Metric("bench.residual_s", "s", _LOW),
    Metric("bench.trace_overhead_frac", "frac", _LOW),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile, interpolated between observed values."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: Sequence[float]) -> float:
    """The highest percentile, at most the 90th, with at least 10 values
    beyond it; the median when there are too few values for one.

    The percentile is a function of the count only, and the service
    workloads fix their request counts, so one workload always reports
    the same one.
    """
    n = len(values)
    pct = min(90, int(100 * (n - 10) / n)) if n > 10 else 0
    return percentile(values, pct) if pct > 50 else median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------

# Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_STARTS = 5


class Tally:
    """Operations attempted and failed; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def result_record(metrics: Dict[str, float], tally: Tally) -> Dict:
    """The one-line JSON object a run prints last."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }


def ordered(metrics: Dict[str, float], catalog: Sequence[Metric]) -> Dict[str, float]:
    """*metrics* restricted to and ordered by *catalog*; all must exist."""
    missing = [m.name for m in catalog if m.name not in metrics]
    if missing:
        raise KeyError(f"run did not measure {missing}")
    return {m.name: metrics[m.name] for m in catalog}
