"""Process-pool fan-out for simulation runs.

:func:`execute_runs` runs a list of :class:`RunRequest`\\ s across a
``ProcessPoolExecutor``.  Workers are long-lived: each builds one
:class:`~repro.experiments.runner.ExperimentRunner` from the parent's
settings (sharing its on-disk cache when enabled), so workloads, traces, and
profiles are reused across every request a worker receives, and every
result a worker computes lands in the shared disk cache for later
processes.

Dispatch is by app.  Building an app's workload costs more than most
of the simulations that use it, so the requests are grouped into one
batch per app and each batch is one pool task (:func:`_run_batch`):
a worker builds, traces and profiles only the apps it is handed.
When there are fewer apps than workers, the largest batch is split in
half until every worker has a batch, so a one-app request set still
uses the whole pool.  Built workloads are never sent to the workers
instead: pickling one costs about as much as building it.

Failure policy, per request: a request that raises inside its batch
fails alone (the rest of the batch runs on), and a batch whose worker
dies sends all of its requests to the retry round.  Failed requests
are retried once in a fresh pool (transient failures: a killed worker,
a broken pool, an OOM'd child); a request that fails twice resolves to
``None`` and the caller — :meth:`ExperimentRunner.warm` — falls back
to computing it serially in-process, where the real exception surfaces
to the user.  Two exceptions are never retried or swallowed:
:class:`~repro.errors.InvariantViolation` (a sanitizer caught a
correctness bug — rerunning would bury it) and
:class:`KeyboardInterrupt` both propagate immediately.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SimConfig, jobs_from_env
from ..errors import InvariantViolation, ReproError
from ..uarch.results import SimResult

# One retry round: transient failures get a second chance, systematic
# ones fail fast into the serial fallback.
MAX_RETRY_ROUNDS = 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Validate an explicit worker count, or read ``REPRO_JOBS``."""
    if jobs is None:
        jobs = jobs_from_env()
        if jobs is None:
            return 1
    if jobs < 1:
        raise ReproError(f"job count must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class RunRequest:
    """One (app, system, input) simulation to execute.

    Mirrors the signature of :meth:`ExperimentRunner.run`; picklable so
    it can cross the process boundary.
    """

    app: str
    system: str
    input_idx: Optional[int] = None
    profile_input: Optional[int] = None
    cache_tag: str = ""
    config: Optional[SimConfig] = None

    @classmethod
    def coerce(cls, value) -> "RunRequest":
        """Accept a RunRequest or a plain (app, system[, input_idx]) tuple."""
        if isinstance(value, RunRequest):
            return value
        if isinstance(value, (tuple, list)) and 2 <= len(value) <= 3:
            return cls(*value)
        raise ReproError(
            f"cannot interpret {value!r} as a run request; pass a RunRequest "
            "or an (app, system[, input_idx]) tuple"
        )


# Worker-process state: one runner per worker, built by the initializer.
_WORKER_RUNNER = None


def _init_worker(settings, cache_dir: Optional[str]) -> None:
    global _WORKER_RUNNER
    from .cache import ResultCache
    from .runner import ExperimentRunner

    cache = ResultCache(cache_dir) if cache_dir else None
    # *settings* is the parent's RunnerSettings value, so the worker
    # sanitizes, verifies plans and logs telemetry exactly as the parent
    # does; its phase spans append to the parent's JSONL log (whole-line
    # appends interleave safely).
    _WORKER_RUNNER = ExperimentRunner(settings, cache=cache, jobs=1)
    if _WORKER_RUNNER.telemetry is not None:
        _WORKER_RUNNER.telemetry.emit("worker_start")


def _run_request(request: RunRequest):
    """Execute one request; returns ``(result, worker_pid, metrics_delta)``.

    The delta is this request's slice of the worker registry (telemetry
    on) or ``None`` (telemetry off); the parent merges it so pool-wide
    counters aggregate even though workers are separate processes.
    """
    tel = _WORKER_RUNNER.telemetry
    before = tel.registry.snapshot() if tel is not None else None
    result = _WORKER_RUNNER.run(
        request.app,
        request.system,
        input_idx=request.input_idx,
        config=request.config,
        profile_input=request.profile_input,
        cache_tag=request.cache_tag,
    )
    delta = tel.registry.diff(before) if tel is not None else None
    return result, os.getpid(), delta


def _run_batch(requests: Sequence[RunRequest]) -> List[Optional[tuple]]:
    """Run one batch in order; one :func:`_run_request` outcome per request.

    A request that raises yields ``None`` and the batch runs on, except
    for :class:`InvariantViolation` (and :class:`KeyboardInterrupt`),
    which abort the whole fan-out.  ``_run_request`` is looked up at
    call time, so a wrapper installed on the module reaches the workers.
    """
    outcomes: List[Optional[tuple]] = []
    for request in requests:
        try:
            outcomes.append(_run_request(request))
        except InvariantViolation:
            raise
        except Exception:
            outcomes.append(None)
    return outcomes


_Batch = List[Tuple[int, RunRequest]]


def _batches(pending: _Batch, jobs: int) -> List[_Batch]:
    """Group *pending* by app; split the largest until there are *jobs* batches."""
    by_app: Dict[str, _Batch] = {}
    for item in pending:
        by_app.setdefault(item[1].app, []).append(item)
    batches = list(by_app.values())
    while len(batches) < jobs:
        largest = max(batches, key=len)
        if len(largest) < 2:
            break
        batches.remove(largest)
        half = (len(largest) + 1) // 2
        batches += [largest[:half], largest[half:]]
    return batches


def execute_runs(
    settings,
    requests: Sequence[RunRequest],
    jobs: int,
    cache_dir: Optional[str] = None,
    telemetry=None,
) -> List[Optional[SimResult]]:
    """Execute *requests* across *jobs* worker processes, one batch per app.

    Returns results aligned with *requests*; an entry is ``None`` when
    its request failed after the retry round (or the pool could not be
    started at all) — callers must fall back to serial execution for
    those.

    With a parent-side *telemetry* sink, each successful request's
    worker metrics delta is merged into the parent registry (per-worker
    request counts, phase timers) and retried requests are counted
    under ``parallel.retries``.
    """
    requests = list(requests)
    if not requests:
        return []
    jobs = max(1, min(int(jobs), len(requests)))
    results: List[Optional[SimResult]] = [None] * len(requests)
    pending: _Batch = list(enumerate(requests))
    for _round in range(MAX_RETRY_ROUNDS + 1):
        if not pending:
            break
        if _round > 0 and telemetry is not None:
            telemetry.registry.inc("parallel.retries", len(pending))
        try:
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(settings, cache_dir),
            ) as pool:
                futures = {
                    pool.submit(_run_batch, [req for _, req in batch]): batch
                    for batch in _batches(pending, jobs)
                }
                failed: _Batch = []
                for fut in as_completed(futures):
                    batch = futures[fut]
                    try:
                        outcomes = fut.result()
                    except InvariantViolation:
                        # A sanitizer tripped in a worker: retrying (or
                        # silently recomputing without sanitizers in the
                        # serial fallback) would bury a correctness bug.
                        raise
                    except Exception:
                        # The worker died mid-batch (or the pool broke):
                        # every request of the batch is retried.
                        failed.extend(batch)
                        continue
                    for (i, req), outcome in zip(batch, outcomes):
                        if outcome is None:
                            failed.append((i, req))
                            continue
                        result, worker_pid, delta = outcome
                        results[i] = result
                        if telemetry is not None:
                            telemetry.record_worker(worker_pid, delta)
        except (OSError, RuntimeError):
            # The pool itself could not start (restricted environment,
            # resource exhaustion, broken executor); leave the rest for
            # the serial path.
            break
        pending = sorted(failed)
    return results
