"""Cached end-to-end simulation runs.

All figure/table computations go through one :class:`ExperimentRunner`,
which memoizes workload builds, traces, profiles, plans, and simulation
results, so e.g. the baseline run of ``cassandra`` is simulated once
and reused by a dozen figures.

On top of the in-memory memo, the runner can attach an on-disk
:class:`~repro.experiments.cache.ResultCache` so results and profiles
persist across processes, and can fan simulation runs out across a
process pool via :meth:`ExperimentRunner.warm` (see
:mod:`repro.experiments.parallel`).

A run's settings are one :class:`RunnerSettings` value.  Pool
workers receive that value, so a setting reaches them without touching
the environment.  Beyond the trace and sampling fields it carries:

* ``sanitize`` — run every simulation and profile with runtime
  invariant checks (``SimConfig.sanitize``; CLI ``--sanitize``);
* ``check_plans`` — statically verify every built plan with
  :mod:`repro.staticcheck` and refuse error-severity findings (CLI
  ``--check-plans``);
* ``telemetry_path`` — append JSONL telemetry to this log (CLI
  ``--telemetry``; see :mod:`repro.telemetry`).

Environment knobs (read by :meth:`RunnerSettings.from_env` and the
cache/jobs helpers; invalid values raise :class:`~repro.errors.ReproError`):

* ``REPRO_TRACE_INSTRUCTIONS`` — trace length per run (default 1e6).
* ``REPRO_APPS`` — comma-separated subset of apps (default: all nine).
* ``REPRO_SAMPLE_RATE`` — LBR miss-sampling rate (default 1).
* ``REPRO_JOBS`` — parallel simulation workers (default 1).
* ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` — on-disk cache location /
  kill switch (default ``.repro_cache/``, used by the process-wide
  runner and the CLI; directly constructed runners default to no disk
  cache).

All knobs are read through the typed accessors in :mod:`repro.config`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .. import __version__
from ..config import SimConfig, apps_from_env, int_from_env
from ..core.plan import PrefetchPlan
from ..core.twig import build_plan
from ..errors import ConfigError, PlanError, ReproError
from ..prefetchers.base import BaselineBTBSystem
from ..prefetchers.confluence import ConfluenceBTBSystem
from ..prefetchers.shotgun import ShotgunBTBSystem
from ..profiling.collector import collect_profile
from ..profiling.profile import MissProfile
from ..profiling.serialize import (
    FORMAT_VERSION as PAYLOAD_FORMAT,
    profile_from_dict,
    profile_to_dict,
    result_from_dict,
    result_to_dict,
)
from ..telemetry.events import TelemetrySink
from ..trace.events import Trace
from ..trace.walker import generate_trace
from ..uarch.results import SimResult
from ..uarch.sim import FrontendSimulator
from ..workloads.apps import app_names, get_app
from ..workloads.cfg import Workload, build_workload
from .cache import ResultCache, cache_from_env
from .parallel import RunRequest, execute_runs, resolve_jobs

# System identifiers accepted by ExperimentRunner.run().
SYSTEMS = (
    "baseline",
    "ideal_btb",
    "ideal_icache",
    "shotgun",
    "confluence",
    "twig",
)


@dataclass(frozen=True)
class RunnerSettings:
    trace_instructions: int
    apps: Tuple[str, ...]
    sample_rate: int
    train_input: int = 0
    test_input: int = 1
    sanitize: bool = False
    check_plans: bool = False
    telemetry_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace_instructions <= 0:
            raise ReproError(
                f"trace_instructions must be positive, got {self.trace_instructions}"
            )
        if self.sample_rate <= 0:
            raise ReproError(f"sample_rate must be positive, got {self.sample_rate}")
        if not self.apps:
            raise ReproError("at least one app is required")
        if self.telemetry_path is not None and os.path.isdir(self.telemetry_path):
            raise ConfigError(
                f"the telemetry log must be a file, got directory "
                f"{self.telemetry_path!r}"
            )

    @classmethod
    def from_env(cls) -> "RunnerSettings":
        apps = apps_from_env()
        if apps is not None:
            known = app_names()
            unknown = sorted(set(apps) - set(known))
            if unknown:
                raise ReproError(
                    f"REPRO_APPS names unknown app(s) {unknown}; "
                    f"choose from {sorted(known)}"
                )
        else:
            apps = app_names()
        return cls(
            trace_instructions=int_from_env("REPRO_TRACE_INSTRUCTIONS", 1_000_000),
            apps=apps,
            sample_rate=int_from_env("REPRO_SAMPLE_RATE", 1),
        )


@dataclass
class RunnerStats:
    """Work counters for one runner (used by cache-hit assertions).

    ``simulations``/``profiles_collected`` count work done *in this
    process*; results imported from parallel workers or loaded from the
    disk cache do not increment them.
    """

    simulations: int = 0
    profiles_collected: int = 0
    disk_hits: int = 0
    parallel_runs: int = 0


class ExperimentRunner:
    """Memoizing facade over the whole pipeline."""

    def __init__(
        self,
        settings: Optional[RunnerSettings] = None,
        cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
    ):
        self.settings = settings if settings is not None else RunnerSettings.from_env()
        self.cache = cache
        self.jobs = resolve_jobs(jobs)
        self.stats = RunnerStats()
        # Pool workers build their runners from the same settings, so
        # their spans land in the same log.  None -> fully off.
        path = self.settings.telemetry_path
        self.telemetry = TelemetrySink(path) if path else None
        if self.telemetry is not None and self.cache is not None:
            self.cache.sink = self.telemetry
        self._workloads: Dict[str, Workload] = {}
        self._block_graphs: Dict[tuple, object] = {}
        self._traces: Dict[Tuple[str, int], Trace] = {}
        self._profiles: Dict[Tuple[str, int], MissProfile] = {}
        self._plans: Dict[Tuple[str, int, tuple], PrefetchPlan] = {}
        self._results: Dict[tuple, SimResult] = {}

    # ------------------------------------------------------------------
    @property
    def apps(self) -> Tuple[str, ...]:
        return self.settings.apps

    def _config(self, config: Optional[SimConfig] = None) -> SimConfig:
        """*config* (default: Table 1), sanitized when the settings say so."""
        cfg = config if config is not None else SimConfig()
        if self.settings.sanitize and not cfg.sanitize:
            cfg = replace(cfg, sanitize=True)
        return cfg

    def _span(self, phase: str, **fields):
        """Telemetry span for one pipeline stage; no-op when disabled."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(phase, **fields)

    def workload(self, app: str) -> Workload:
        if app not in self._workloads:
            with self._span("workload_build", app=app):
                self._workloads[app] = build_workload(get_app(app), seed=0)
        return self._workloads[app]

    def trace(self, app: str, input_idx: Optional[int] = None) -> Trace:
        idx = self.settings.test_input if input_idx is None else input_idx
        key = (app, idx)
        if key not in self._traces:
            wl = self.workload(app)
            inp = wl.spec.make_input(idx)
            with self._span("trace_gen", app=app, input=idx):
                self._traces[key] = generate_trace(
                    wl, inp, max_instructions=self.settings.trace_instructions
                )
        return self._traces[key]

    def warmup_units(self, trace: Trace) -> int:
        return len(trace) // 3

    def long_trace(self, app: str, multiplier: int = 3) -> Trace:
        """A longer trace for analysis-only passes (3C classification,
        stream taxonomy) that replay a BTB without timing simulation.

        Longer windows shrink the finite-trace compulsory-miss
        inflation that a 1M-instruction window suffers, at negligible
        cost since no cycle model runs over these.
        """
        key = (app, -multiplier)
        if key not in self._traces:
            wl = self.workload(app)
            inp = wl.spec.make_input(self.settings.test_input)
            with self._span("trace_gen", app=app, long=multiplier):
                self._traces[key] = generate_trace(
                    wl,
                    inp,
                    max_instructions=self.settings.trace_instructions * multiplier,
                )
        return self._traces[key]

    # ------------------------------------------------------------------
    # Disk-cache keys.  Every field that can change the artifact is
    # hashed into the key, so a mismatch on any of them is a clean miss
    # (never a stale hit): package version, payload format, trace
    # length, sampling rate, input indices, and the full config
    # signature.
    def _base_cache_fields(self) -> dict:
        return {
            "repro_version": __version__,
            "payload_format": PAYLOAD_FORMAT,
            "trace_instructions": self.settings.trace_instructions,
            "sample_rate": self.settings.sample_rate,
            "train_input": self.settings.train_input,
            "test_input": self.settings.test_input,
        }

    def _result_cache_fields(self, q: RunRequest) -> dict:
        fields = self._base_cache_fields()
        fields.update(
            kind="sim_result",
            app=q.app,
            system=q.system,
            input_idx=q.input_idx,
            profile_input=q.profile_input,
            cache_tag=q.cache_tag,
            config=_config_signature(q.config),
        )
        return fields

    def _profile_cache_fields(self, app: str, input_idx: int) -> dict:
        fields = self._base_cache_fields()
        fields.update(
            kind="miss_profile",
            app=app,
            input_idx=input_idx,
            config=_config_signature(self._config()),
        )
        return fields

    def _cached_payload(self, fields: dict, decoder):
        """Load + decode one disk-cache entry; quarantine decode failures."""
        if self.cache is None:
            return None
        payload = self.cache.load(fields)
        if payload is None:
            return None
        try:
            artifact = decoder(payload)
        except ReproError:
            # Checksum-valid but semantically bad (e.g. written by a
            # buggy/foreign producer): quarantine and recompute.
            self.cache.quarantine_entry(fields)
            return None
        self.stats.disk_hits += 1
        return artifact

    # ------------------------------------------------------------------
    def profile(self, app: str, input_idx: Optional[int] = None) -> MissProfile:
        idx = self.settings.train_input if input_idx is None else input_idx
        key = (app, idx)
        if key not in self._profiles:
            fields = self._profile_cache_fields(app, idx)
            profile = self._cached_payload(fields, profile_from_dict)
            if profile is None:
                wl = self.workload(app)
                tr = self.trace(app, idx)
                with self._span("profile_collect", app=app, input=idx):
                    profile = collect_profile(
                        wl, tr, self._config(), sample_rate=self.settings.sample_rate
                    )
                self.stats.profiles_collected += 1
                if self.cache is not None:
                    self.cache.store(fields, profile_to_dict(profile))
            self._profiles[key] = profile
        return self._profiles[key]

    def plan(
        self,
        app: str,
        profile_input: Optional[int] = None,
        config: Optional[SimConfig] = None,
    ) -> PrefetchPlan:
        cfg = self._config(config)
        idx = self.settings.train_input if profile_input is None else profile_input
        sig = _twig_signature(cfg)
        key = (app, idx, sig)
        if key not in self._plans:
            wl = self.workload(app)
            prof = self.profile(app, idx)
            with self._span("plan_build", app=app, input=idx):
                plan = build_plan(wl, prof, cfg)
            if self.settings.check_plans:
                self._verify_plan(app, plan, wl, cfg)
            self._plans[key] = plan
        return self._plans[key]

    def _verify_plan(self, app: str, plan, wl: Workload, cfg: SimConfig) -> None:
        """Statically verify a freshly built plan (``--check-plans``).

        Error-severity findings abort with :class:`PlanError` before
        the malformed plan can reach a simulation (or the disk cache of
        downstream results).
        """
        from ..staticcheck import BlockGraph, verify_plan
        from ..staticcheck.findings import Severity, render_text

        gkey = (app, cfg.core.fetch_width_bytes)
        graph = self._block_graphs.get(gkey)
        if graph is None:
            graph = BlockGraph(wl, fetch_width_bytes=cfg.core.fetch_width_bytes)
            self._block_graphs[gkey] = graph
        with self._span("plan_check", app=app):
            findings = verify_plan(plan, wl, cfg, graph=graph)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            raise PlanError(
                f"static verification rejected the plan for {app!r}:\n"
                + render_text(errors)
            )

    # ------------------------------------------------------------------
    def run(
        self,
        app: str,
        system: str,
        input_idx: Optional[int] = None,
        config: Optional[SimConfig] = None,
        profile_input: Optional[int] = None,
        cache_tag: str = "",
    ) -> SimResult:
        """Simulate (app, system) on the given input; cached.

        Results are memoized in-process and, when a disk cache is
        attached, persisted under ``cache_dir`` so later processes and
        parallel workers skip the simulation entirely.
        """
        request = RunRequest(app, system, input_idx, profile_input, cache_tag, config)
        return self.warm([request], jobs=1)[0]

    def _resolve(self, q: RunRequest) -> Tuple[RunRequest, tuple]:
        """*q* with its input and config defaulted, and its memo key."""
        q = replace(
            q,
            input_idx=self.settings.test_input if q.input_idx is None else q.input_idx,
            config=self._config(q.config),
        )
        key = (q.app, q.system, q.input_idx, _config_signature(q.config),
               q.profile_input, q.cache_tag)
        return q, key

    # ------------------------------------------------------------------
    def warm(
        self,
        requests: Iterable,
        jobs: Optional[int] = None,
    ) -> List[SimResult]:
        """Ensure every requested run is available, in parallel if asked.

        *requests* is an iterable of :class:`RunRequest` objects or
        ``(app, system[, input_idx])`` tuples.  Runs already in the memo
        or the disk cache are read here.  With ``jobs > 1`` the rest go
        to a process pool in per-app batches (each worker shares the
        disk cache, so its work also persists); with ``jobs == 1`` — or
        for any request the pool failed twice — the run happens serially
        in-process.  Returns the results in request order.
        """
        reqs = [RunRequest.coerce(q) for q in requests]
        jobs = self.jobs if jobs is None else resolve_jobs(jobs)

        keys = []
        pending = []  # (resolved request, memo key)
        seen = set()
        for q in reqs:
            q, key = self._resolve(q)
            keys.append(key)
            if key in self._results or key in seen:
                continue
            seen.add(key)
            fields = self._result_cache_fields(q)
            result = self._cached_payload(fields, result_from_dict)
            if result is None:
                pending.append((q, key))
            else:
                self._results[key] = result

        tel = self.telemetry
        if jobs > 1 and len(pending) > 1:
            cache_dir = self.cache.directory if self.cache is not None else None
            outcomes = execute_runs(
                self.settings, [p[0] for p in pending], jobs,
                cache_dir=cache_dir, telemetry=tel,
            )
            for (_, key), res in zip(pending, outcomes):
                if res is not None:
                    self._results[key] = res
                    self.stats.parallel_runs += 1
            pending = [p for p, res in zip(pending, outcomes) if res is None]
            if tel is not None and pending:
                # Requests the pool failed twice; about to re-run serially.
                tel.registry.inc("parallel.serial_fallbacks", len(pending))

        for q, key in pending:  # serial, and pool fallback
            self._compute(q, key)
        return [self._results[key] for key in keys]

    def _compute(self, q: RunRequest, key: tuple) -> SimResult:
        """Simulate resolved *q*, store it in the disk cache, memoize it.

        No cache lookup: :meth:`warm` has already missed on *q*, in this
        process or, for a pool worker's request, in the parent.
        """
        result = self._simulate(q)
        self.stats.simulations += 1
        if self.cache is not None:
            self.cache.store(self._result_cache_fields(q), result_to_dict(result))
        self._results[key] = result
        return result

    def _simulate(self, q: RunRequest) -> SimResult:
        """Simulate one resolved request (input and config filled in)."""
        app, system, input_idx, cfg = q.app, q.system, q.input_idx, q.config
        if system not in SYSTEMS:
            raise ReproError(f"unknown system {system!r}; choose from {SYSTEMS}")
        wl = self.workload(app)
        tr = self.trace(app, input_idx)
        warm = self.warmup_units(tr)

        run_cfg = cfg
        if system == "ideal_btb":
            run_cfg = replace(cfg, ideal_btb=True)
        elif system == "ideal_icache":
            run_cfg = replace(cfg, ideal_icache=True)

        # Competitor structures scale with the swept storage budget
        # (Figs 23/24 vary "the BTB storage budget" for every design,
        # not just the baseline's).
        scale = cfg.frontend.btb.entries / 8192
        if system == "shotgun":
            btb_system = ShotgunBTBSystem(
                wl,
                run_cfg,
                ubtb_entries=max(320, int(5120 * scale)),
                cbtb_entries=max(96, int(1536 * scale)),
            )
        elif system == "confluence":
            from ..prefetchers.confluence import DEFAULT_LINE_CAPACITY

            btb_system = ConfluenceBTBSystem(
                wl, run_cfg, line_capacity=max(128, int(DEFAULT_LINE_CAPACITY * scale))
            )
        else:
            btb_system = BaselineBTBSystem(run_cfg)
            if system == "twig":
                plan = self.plan(app, q.profile_input, cfg)
                btb_system.install_ops(plan.sim_ops())

        # The span covers simulator construction + the timed run, but
        # not the plan/profile dependencies resolved above — those bill
        # to their own phases.
        label = f"{app}/{system}#{input_idx}"
        with self._span("simulate", app=app, system=system, input=input_idx):
            sim = FrontendSimulator(wl, config=run_cfg, btb_system=btb_system)
            result = sim.run(tr, label=label, warmup_units=warm)
        if self.telemetry is not None:
            self.telemetry.on_sim_run(result, len(tr))
        return result

    # ------------------------------------------------------------------
    def speedup(self, app: str, system: str, **kwargs) -> float:
        """Percent speedup of *system* over the FDIP baseline."""
        base = self.run(app, "baseline", input_idx=kwargs.get("input_idx"))
        res = self.run(app, system, **kwargs)
        return res.speedup_over(base)

    def miss_reduction(self, app: str, system: str, **kwargs) -> float:
        """Fraction of baseline BTB MPKI removed by *system* (coverage
        in the cross-system sense of Fig 17)."""
        base = self.run(app, "baseline", input_idx=kwargs.get("input_idx"))
        res = self.run(app, system, **kwargs)
        if base.btb_mpki() <= 0:
            return 0.0
        return max(0.0, 1.0 - res.btb_mpki() / base.btb_mpki())


def _twig_signature(cfg: SimConfig) -> tuple:
    t = cfg.twig
    return (
        t.prefetch_distance,
        t.offset_bits,
        t.coalesce_bits,
        t.min_confidence,
        t.min_miss_samples,
        t.enable_software_prefetch,
        t.enable_coalescing,
    )


def _config_signature(cfg: SimConfig) -> tuple:
    return (
        cfg.frontend.btb.entries,
        cfg.frontend.btb.ways,
        cfg.frontend.ftq_size,
        cfg.frontend.prefetch_buffer_entries,
        cfg.core.btb_miss_penalty,
        cfg.core.mispredict_penalty,
        cfg.ideal_btb,
        cfg.ideal_icache,
        # Sanitized runs are defined to be bit-identical to plain runs,
        # but they must never *share* cache entries: a sanitizer bug (or
        # a future check that perturbs state) would otherwise leak into
        # the plain population silently.
        cfg.sanitize,
        _twig_signature(cfg),
    )


_GLOBAL_RUNNER: Optional[ExperimentRunner] = None


def get_runner() -> ExperimentRunner:
    """Process-wide shared runner (so figures reuse each other's runs).

    Unlike directly constructed runners, the shared runner attaches the
    env-configured disk cache (``.repro_cache/`` by default) so figure
    regenerations persist across processes.
    """
    global _GLOBAL_RUNNER
    if _GLOBAL_RUNNER is None:
        _GLOBAL_RUNNER = ExperimentRunner(cache=cache_from_env())
    return _GLOBAL_RUNNER


def set_runner(runner: Optional[ExperimentRunner]) -> None:
    """Install *runner* as the process-wide shared runner (CLI hook)."""
    global _GLOBAL_RUNNER
    _GLOBAL_RUNNER = runner
