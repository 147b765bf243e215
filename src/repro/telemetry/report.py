"""Telemetry log summarizer.

Reads a JSONL event log written by :class:`~repro.telemetry.events.TelemetrySink`
(possibly by several processes appending concurrently) and renders the
operational picture of a run:

* per-phase wall-time breakdown across the five pipeline stages,
  overall and split per app / per system;
* disk-cache behaviour: hit rate, stores, quarantine traffic;
* worker utilization: per-pid request counts, busy seconds, and
  serving pressure (requests shed, queue-depth high-water) — the
  fleet's per-worker view, not just the fleet-wide totals;
* retry / serial-fallback counts from the process pool.

Used by ``python -m repro.experiments telemetry-report``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..errors import ReproError
from .events import PHASES, SERVICE_PHASES

# Known phases in display order: offline pipeline first, then the plan
# service's stages; anything else sorts after them.
_KNOWN_PHASES = PHASES + SERVICE_PHASES


def read_events(path: str) -> List[Dict]:
    """Parse a JSONL telemetry log; malformed lines are skipped.

    A torn or interleaved line (crashed worker, disk full) must never
    make the whole log unreadable, so bad lines are counted into a
    synthetic ``{"event": "_malformed"}`` record instead of raising.
    """
    if not os.path.isfile(path):
        raise ReproError(f"no telemetry log at {path!r}")
    events: List[Dict] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                malformed += 1
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
            else:
                malformed += 1
    if malformed:
        events.append({"event": "_malformed", "count": malformed})
    return events


# ----------------------------------------------------------------------
def summarize(events: List[Dict]) -> Dict:
    """Aggregate an event list into the report's data model."""
    phases: Dict[str, Dict] = {}
    by_group: Dict[str, Dict[str, float]] = {}  # "app/system" -> phase -> seconds
    workers: Dict[int, Dict] = {}
    cache = {"hits": 0, "misses": 0, "stores": 0, "quarantined": 0,
             "quarantine_deleted": 0}
    saw_cache_events = False
    # Last summary per pid: a summary's metrics are cumulative for its
    # process, so "latest per process, summed across processes" is the
    # correct total even for logs spanning several appended runs.
    summary_by_pid: Dict = {}
    summary_cache: Optional[Dict] = None
    malformed = 0

    for ev in events:
        kind = ev.get("event")
        if kind == "span":
            phase = ev.get("phase", "?")
            dt = float(ev.get("duration_s", 0.0))
            slot = phases.setdefault(phase, {"count": 0, "total_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += dt
            group = f"{ev.get('app', '-')}/{ev.get('system', '-')}"
            by_group.setdefault(group, {})
            by_group[group][phase] = by_group[group].get(phase, 0.0) + dt
            pid = ev.get("pid")
            if pid is not None:
                w = workers.setdefault(pid, {"requests": 0, "busy_s": 0.0})
                w["busy_s"] += dt
        elif kind == "cache_load":
            saw_cache_events = True
            outcome = ev.get("outcome")
            if outcome == "hit":
                cache["hits"] += 1
            else:  # miss or corrupt both mean a recompute
                cache["misses"] += 1
        elif kind == "cache_store":
            saw_cache_events = True
            cache["stores"] += 1
        elif kind == "cache_quarantine":
            saw_cache_events = True
            if ev.get("deleted"):
                cache["quarantine_deleted"] += 1
            else:
                cache["quarantined"] += 1
        elif kind == "summary":
            if ev.get("metrics"):
                summary_by_pid[ev.get("pid")] = ev["metrics"]
            if ev.get("cache") is not None:
                summary_cache = ev["cache"]
        elif kind == "_malformed":
            malformed += int(ev.get("count", 0))

    # Cache stats: the per-operation events are emitted by *every*
    # process sharing the log (parent and pool workers), so counting
    # them is the pool-wide truth.  The end-of-run summary only covers
    # the parent's ResultCache — use it solely when telemetry was
    # enabled without per-event logging.
    if not saw_cache_events:
        if summary_cache is not None:
            cache = dict(summary_cache)
            cache.setdefault("quarantine_deleted", 0)
        else:
            cache = None
    if cache is not None:
        loads = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / loads if loads else 0.0

    # Combine summaries: sum counters across processes/runs.
    counters: Dict[str, float] = {}
    for metrics in summary_by_pid.values():
        for name, value in metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value

    # Per-worker request counts: merge the shipped worker.<pid>.requests
    # counters (parent-side view of the pool) over the span-derived
    # busy-time table.
    for name, value in counters.items():
        if name.startswith("worker.") and name.endswith(".requests"):
            try:
                pid = int(name.split(".")[1])
            except ValueError:
                continue
            w = workers.setdefault(pid, {"requests": 0, "busy_s": 0.0})
            w["requests"] += int(value)

    # Per-pid serving-pressure rows.  Two sources, both per process:
    # each fleet worker's own summary carries its service.shed counter
    # and service.max_queue_depth high-water gauge, and the router's
    # summary carries its outside view as fleet.worker.<pid>.* metrics
    # (router-side sheds never reach the worker, so both views matter).
    for pid, metrics in summary_by_pid.items():
        if pid is None:
            continue
        pid_counters = metrics.get("counters", {})
        pid_gauges = metrics.get("gauges", {})
        shed = int(pid_counters.get("service.shed", 0))
        depth = int(pid_gauges.get("service.max_queue_depth", 0))
        if shed or depth or pid in workers:
            w = workers.setdefault(pid, {"requests": 0, "busy_s": 0.0})
            w["shed"] = w.get("shed", 0) + shed
            w["max_queue_depth"] = max(w.get("max_queue_depth", 0), depth)
    for name, value in counters.items():
        if not name.startswith("fleet.worker."):
            continue
        parts = name.split(".")
        try:
            pid = int(parts[2])
        except ValueError:
            continue
        metric = ".".join(parts[3:])
        w = workers.setdefault(pid, {"requests": 0, "busy_s": 0.0})
        if metric == "shed":
            w["shed"] = w.get("shed", 0) + int(value)
        elif metric == "requests":
            w["requests"] += int(value)
    for metrics in summary_by_pid.values():
        for name, value in metrics.get("gauges", {}).items():
            if not (
                name.startswith("fleet.worker.")
                and name.endswith(".max_queue_depth")
            ):
                continue
            try:
                pid = int(name.split(".")[2])
            except ValueError:
                continue
            w = workers.setdefault(pid, {"requests": 0, "busy_s": 0.0})
            w["max_queue_depth"] = max(w.get("max_queue_depth", 0), int(value))
    # Stable row schema whether or not a pid saw queue pressure.
    for w in workers.values():
        w.setdefault("shed", 0)
        w.setdefault("max_queue_depth", 0)

    return {
        "phases": phases,
        "by_group": by_group,
        "cache": cache,
        "workers": workers,
        "parallel": {
            "retries": int(counters.get("parallel.retries", 0)),
            "serial_fallbacks": int(counters.get("parallel.serial_fallbacks", 0)),
        },
        "counters": counters,
        "malformed_lines": malformed,
    }


# ----------------------------------------------------------------------
def format_report(summary: Dict) -> str:
    """Render a summarize() result as an aligned text report."""
    lines: List[str] = []
    out = lines.append

    out("telemetry report")
    out("================")

    phases = summary["phases"]
    total_s = sum(p["total_s"] for p in phases.values()) or 0.0
    out("")
    out("per-phase wall time")
    order = [p for p in _KNOWN_PHASES if p in phases] + sorted(
        p for p in phases if p not in _KNOWN_PHASES
    )
    for phase in order:
        p = phases[phase]
        share = (p["total_s"] / total_s * 100.0) if total_s else 0.0
        out(
            f"  {phase:16s} {p['total_s']:9.3f}s  x{p['count']:<5d} {share:5.1f}%"
        )
    if not phases:
        out("  (no span events)")

    by_group = summary["by_group"]
    if by_group:
        out("")
        out("per app/system (seconds by phase)")
        for group in sorted(by_group):
            parts = ", ".join(
                f"{phase}={by_group[group][phase]:.3f}"
                for phase in order
                if phase in by_group[group]
            )
            out(f"  {group:24s} {parts}")

    cache = summary["cache"]
    out("")
    if cache is None:
        out("cache: no disk cache attached")
    else:
        out(
            f"cache: hit rate {cache['hit_rate'] * 100.0:.1f}% "
            f"({cache['hits']} hits / {cache['misses']} misses), "
            f"{cache['stores']} stores, "
            f"{cache['quarantined']} quarantined"
            + (
                f", {cache['quarantine_deleted']} quarantine-deleted"
                if cache.get("quarantine_deleted")
                else ""
            )
        )

    workers = summary["workers"]
    out("")
    out(
        "processes (requests = pool requests served; busy = span wall "
        "time; shed/maxq = serving pressure)"
    )
    for pid in sorted(workers):
        w = workers[pid]
        out(
            f"  pid {pid:<8d} requests={w['requests']:<5d} "
            f"busy={w['busy_s']:.3f}s "
            f"shed={w.get('shed', 0):<5d} maxq={w.get('max_queue_depth', 0)}"
        )
    if not workers:
        out("  (no worker activity)")

    par = summary["parallel"]
    out("")
    out(
        f"pool: {par['retries']} retried request(s), "
        f"{par['serial_fallbacks']} serial fallback(s)"
    )

    counters = summary.get("counters", {})
    snapshots = int(counters.get("service.snapshots", 0))
    restores = int(counters.get("service.restores", 0))
    journaled = int(counters.get("service.journaled_batches", 0))
    replayed = int(counters.get("service.restored_batches", 0))
    if snapshots or restores or journaled:
        out("")
        out(
            f"durability: {snapshots} snapshot(s) written, "
            f"{journaled} batch(es) journaled, {restores} restore(s) "
            f"replaying {replayed} batch(es)"
        )
    if summary.get("malformed_lines"):
        out(f"warning: {summary['malformed_lines']} malformed log line(s) skipped")
    return "\n".join(lines)


def render_report(path: str) -> str:
    """Read a telemetry log and render the text report."""
    return format_report(summarize(read_events(path)))
