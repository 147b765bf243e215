"""Where the shim wraps each layer, and how spans become layer metrics.

Each :class:`~repro.bench.suite.spans.Patch` names the attribute its
caller looks up, so the span covers exactly the calls that layer
serves.  Layer times are **self** times (a span minus its children), so
the layers of one process never overlap and add up to the time they
cover; ``bench.residual_s`` is what they leave uncovered.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List

from .metrics import PER_LAYER
from .spans import Patch, self_times


def _app(spec, *args, **kwargs) -> Dict:
    return {"app": spec.name}


def _sim_run(sim, trace, *args, **kwargs) -> Dict:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else None) or sim.mode
    serial = mode == "serial" or sim.fast_block_reason() is not None
    return {"units": len(trace), "serial": int(serial)}


def _fanout(settings, requests, jobs, *args, **kwargs) -> Dict:
    return {"jobs": max(1, min(int(jobs), len(requests)))}


def _file_bytes(path) -> Dict:
    return {"bytes": os.path.getsize(path)}


def _findings(findings) -> Dict:
    return {"findings": len(findings)}


def _replayed(report) -> Dict:
    return {"replayed": int(report["batches_replayed"])}


_CORE = (
    Patch("repro.core.twig:select_injection_sites", "core.sites"),
    Patch("repro.core.twig:plan_coalescing", "core.coalesce"),
)

# ``python -m repro.experiments`` and its pool workers.  The figure
# workloads run without ``--check-plans``, so staticcheck is not wrapped
# (importing it would slow only the traced run).
CLI_PATCHES = _CORE + (
    Patch("repro.experiments.runner:build_workload", "workloads.build", before=_app),
    Patch("repro.experiments.runner:generate_trace", "trace.gen"),
    Patch("repro.trace.compile:CompiledTrace.__init__", "trace.compile"),
    Patch("repro.trace.compile:direction_outcome_stream", "frontend.precompute"),
    Patch("repro.uarch.sim:FrontendSimulator.__init__", "uarch.setup"),
    Patch("repro.uarch.sim:FrontendSimulator.run", "uarch.run", before=_sim_run),
    Patch("repro.prefetchers.base:BaselineBTBSystem.__init__", "prefetchers.setup"),
    Patch("repro.prefetchers.shotgun:ShotgunBTBSystem.__init__", "prefetchers.setup"),
    Patch("repro.prefetchers.confluence:ConfluenceBTBSystem.__init__", "prefetchers.setup"),
    Patch("repro.experiments.runner:collect_profile", "profiling.collect"),
    Patch("repro.experiments.runner:build_plan", "core.plan"),
    Patch("repro.experiments.runner:profile_to_dict", "profiling.encode"),
    Patch("repro.experiments.runner:result_to_dict", "profiling.encode"),
    Patch("repro.experiments.runner:profile_from_dict", "profiling.decode"),
    Patch("repro.experiments.runner:result_from_dict", "profiling.decode"),
    Patch("repro.experiments.cache:ResultCache.store", "experiments.cache_store",
          after=_file_bytes),
    Patch("repro.experiments.cache:ResultCache.load", "experiments.cache_load"),
    Patch("repro.experiments.runner:execute_runs", "experiments.fanout", before=_fanout),
    Patch("repro.experiments.parallel:_run_request", "experiments.worker"),
)

# The bench-owned plan server.
SERVER_PATCHES = _CORE + (
    Patch("repro.staticcheck:verify_plan", "staticcheck.verify", after=_findings),
    Patch("repro.staticcheck.cfg_checks:BlockGraph.__init__", "staticcheck.graph"),
    Patch("repro.service.server:build_workload", "workloads.build", before=_app),
    Patch("repro.service.build:build_plan", "core.plan"),
    Patch("repro.service.build:IncrementalPlanBuilder.build", "build.build"),
    Patch("repro.service.build:diff_plans", "build.diff"),
    Patch("repro.service.ingest:IngestBuffer.ingest", "ingest.absorb"),
    Patch("repro.service.ingest:ShardState.fold", "ingest.fold"),
    Patch("repro.service.journal:IngestJournal.record", "journal.record"),
    Patch("repro.service.server:capture_snapshot", "persist.capture"),
    Patch("repro.service.persist:SnapshotStore.write", "persist.write", after=_file_bytes),
    Patch("repro.service.server:PlanService.restore", "persist.restore", after=_replayed),
    Patch("repro.service.server:PlanService.request", "service.request"),
    Patch("repro.service.server:PlanService._process", "service.process"),
    Patch("repro.service.server:PlanService.get_plan", "service.plan_api"),
    Patch("repro.service.http:plan_version_to_dict", "http.encode_plan"),
)

# The benchmark's own HTTP client.
CLIENT_PATCHES = (
    Patch("repro.service.http:plan_version_from_dict", "persist.plan_decode"),
)

# Layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "python.startup_s": "python.startup",
    "workloads.build_s": "workloads.build",
    "trace.gen_s": "trace.gen",
    "trace.compile_s": "trace.compile",
    "frontend.precompute_s": "frontend.precompute",
    "uarch.setup_s": "uarch.setup",
    "uarch.run_s": "uarch.run",
    "prefetchers.setup_s": "prefetchers.setup",
    "profiling.collect_s": "profiling.collect",
    "profiling.encode_s": "profiling.encode",
    "profiling.decode_s": "profiling.decode",
    "core.plan_s": "core.plan",
    "core.sites_s": "core.sites",
    "core.coalesce_s": "core.coalesce",
    "experiments.cache_store_s": "experiments.cache_store",
    "experiments.cache_load_s": "experiments.cache_load",
    "journal.record_s": "journal.record",
    "ingest.absorb_s": "ingest.absorb",
    "ingest.fold_s": "ingest.fold",
    "persist.capture_s": "persist.capture",
    "persist.write_s": "persist.write",
    "persist.restore_s": "persist.restore",
    "persist.plan_decode_s": "persist.plan_decode",
    "staticcheck.verify_s": "staticcheck.verify",
    "staticcheck.graph_s": "staticcheck.graph",
    "build.s": "build.build",
    "build.diff_s": "build.diff",
    "http.encode_plan_s": "http.encode_plan",
}


def _wall(spans: Iterable[Dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans: List[Dict]) -> Dict[str, float]:
    """Every per-layer metric the spans of one traced operation give.

    Metrics the caller measures outside the spans (bytes on disk, client
    lag, capacity, residual, overhead) start at 0 for it to fill in.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name: str) -> List[Dict]:
        return by_name.get(name, [])

    out = {m.name: 0.0 for m in PER_LAYER}
    for metric, name in SELF_TIME.items():
        out[metric] = sum(selfs[s["id"]] for s in named(name))

    builds = named("workloads.build")
    out["workloads.builds"] = float(len(builds))
    out["workloads.build_useful_frac"] = (
        len({s["app"] for s in builds}) / len(builds) if builds else 1.0
    )
    runs = named("uarch.run")
    if out["uarch.run_s"] > 0:
        out["uarch.kunits_per_s"] = sum(s["units"] for s in runs) / out["uarch.run_s"] / 1e3
    out["uarch.serial_runs"] = float(sum(s["serial"] for s in runs))
    out["experiments.cache_store_bytes"] = float(
        sum(s.get("bytes", 0) for s in named("experiments.cache_store"))
    )
    out["experiments.fanout_s"] = _wall(named("experiments.fanout"))
    capacity = sum((s["end"] - s["start"]) * s["jobs"] for s in named("experiments.fanout"))
    if capacity > 0:
        out["experiments.pool_busy_frac"] = _wall(named("experiments.worker")) / capacity
    out["persist.snapshot_bytes"] = float(
        sum(s.get("bytes", 0) for s in named("persist.write"))
    )
    out["persist.replayed_batches"] = float(
        sum(s.get("replayed", 0) for s in named("persist.restore"))
    )
    out["staticcheck.findings"] = float(
        sum(s.get("findings", 0) for s in named("staticcheck.verify"))
    )
    out["build.versions"] = float(
        sum(1 for s in named("build.build") if "error" not in s)
    )
    out["service.plan_api_s"] = _wall(named("service.plan_api"))
    out["service.queue_wait_s"] = max(
        0.0, _wall(named("service.request")) - _wall(named("service.process"))
    )
    return out


def covered_time(spans: List[Dict], pid: int) -> float:
    """Summed self time of every span process *pid* wrote."""
    selfs = self_times(spans)
    return sum(selfs[s["id"]] for s in spans if s["pid"] == pid)
