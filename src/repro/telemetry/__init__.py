"""Operational telemetry for the experiment pipeline (DESIGN.md §9).

Three pieces, mirroring the sanitizer's zero-cost-when-off design:

* :mod:`~repro.telemetry.metrics` — a process-local registry of
  counters, gauges, and wall-clock timers with snapshot/diff/merge, so
  parallel workers ship per-request deltas back for aggregation;
* :mod:`~repro.telemetry.events` — :class:`TelemetrySink`, a JSONL
  event log (phase spans, cache traffic, pool lifecycle, summaries)
  enabled by ``--telemetry PATH`` (``RunnerSettings.telemetry_path``);
* :mod:`~repro.telemetry.report` — the summarizer behind
  ``python -m repro.experiments telemetry-report``.

Disabled (the default), the instrumented code paths cost one ``None``
check; enabled, they never change simulation outcomes.
"""

from .events import PHASES, SERVICE_PHASES, TelemetrySink
from .metrics import MetricsRegistry
from .report import format_report, read_events, render_report, summarize

__all__ = [
    "PHASES",
    "SERVICE_PHASES",
    "MetricsRegistry",
    "TelemetrySink",
    "format_report",
    "read_events",
    "render_report",
    "summarize",
]
