"""Static plan/artifact verifier + repo-invariant lint engine.

Three layers, one report format (DESIGN.md §10, §15):

* **Artifact verifier** (:mod:`.plan_checks`, :mod:`.cfg_checks`) —
  checks a built :class:`~repro.core.plan.PrefetchPlan` (and the
  :class:`~repro.workloads.cfg.Workload` it was built against) with no
  simulation: offset encodability, coalescing-table structure, bitmask
  windows, injection-site reachability, static timeliness bounds, and
  plan-level accounting.  Rule ids ``P1xx`` / ``C1xx``.

* **Lint engine** (:mod:`.engine`, :mod:`.rules`) — an AST walk over
  the ``repro`` sources enforcing repo invariants that the runtime
  sanitizers cannot see: nondeterminism sources, environment reads
  outside ``config.py``, exception handlers that could swallow
  :class:`~repro.errors.InvariantViolation`, mutable default
  arguments, and sanitize-coverage of frontend structures.  Rule ids
  ``L1xx``, with per-line ``# staticcheck: disable=RULE`` suppressions.

* **Service analyzer** (:mod:`.service_checks` + the
  ``rules/service_*`` modules) — a cross-module AST/dataflow pass over
  ``repro/service/`` pinning the async service's concurrency,
  durability, and wire-protocol invariants: no blocking calls on the
  event loop, no dropped coroutines, GUARDED_BY lock ownership,
  journal-before-fold ordering, snapshot field coverage, and typed
  versioned wire errors.  Rule ids ``A1xx``; stale suppressions
  surface as ``U101`` via ``--report-unused-suppressions``.

All layers emit :class:`~repro.staticcheck.findings.Finding` records
and share the text/JSON reporters; ``python -m repro.staticcheck`` and
``tools/staticcheck.py`` are the CLI entry points (``--changed`` lints
only files changed vs origin/main).

:func:`gate_plan` is the one plan gate: the plan service runs it on
every build before publishing, and the experiment runner on every plan
it builds with ``--check-plans`` (``RunnerSettings.check_plans``).
"""

from __future__ import annotations

import threading
from typing import Dict
from weakref import WeakKeyDictionary

from ..config import SimConfig
from ..core.plan import PrefetchPlan
from ..errors import PlanError
from ..workloads.cfg import Workload
from .cfg_checks import BlockGraph, verify_workload
from .engine import ENGINE_RULES, LintEngine, lint_paths, lint_source_tree
from .findings import Finding, Severity, exit_code, render_json, render_text
from .plan_checks import PLAN_RULES, plan_timeliness, verify_plan
from .service_checks import GUARDED_BY, SERVICE_RULES, ServiceIndex

# Workload -> {fetch width: its BlockGraph}.  A graph is a pure function
# of its key and read-only once built, so every gate of the process
# shares it, and it dies with its workload.
_GRAPHS: "WeakKeyDictionary[Workload, Dict[int, BlockGraph]]" = WeakKeyDictionary()
_GRAPHS_LOCK = threading.Lock()


def _graph(workload: Workload, fetch_width_bytes: int) -> BlockGraph:
    # Builds run in executor threads: the lock makes each graph once.
    with _GRAPHS_LOCK:
        by_width = _GRAPHS.setdefault(workload, {})
        graph = by_width.get(fetch_width_bytes)
        if graph is None:
            graph = BlockGraph(workload, fetch_width_bytes=fetch_width_bytes)
            by_width[fetch_width_bytes] = graph
        return graph


def gate_plan(plan: PrefetchPlan, workload: Workload, config: SimConfig) -> None:
    """Refuse *plan* with :class:`~repro.errors.PlanError` if any rule
    of :func:`verify_plan` fires; return quietly otherwise.

    :func:`verify_plan` runs only the error rules, so the gate computes
    nothing it would throw away.  It is looked up as this module's
    global at each call, the name the benchmark's tracing wraps.
    """
    graph = _graph(workload, config.core.fetch_width_bytes)
    errors = verify_plan(plan, workload, config, graph=graph)
    if errors:
        raise PlanError(
            f"publish gate rejected the plan for {plan.app_name!r}:\n"
            + render_text(errors)
        )

__all__ = [
    "BlockGraph",
    "ENGINE_RULES",
    "Finding",
    "GUARDED_BY",
    "LintEngine",
    "PLAN_RULES",
    "SERVICE_RULES",
    "ServiceIndex",
    "Severity",
    "exit_code",
    "gate_plan",
    "lint_paths",
    "lint_source_tree",
    "plan_timeliness",
    "render_json",
    "render_text",
    "verify_plan",
    "verify_workload",
]
