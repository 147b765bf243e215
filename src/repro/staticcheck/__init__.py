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
only files changed vs origin/main), and the experiment runner can
verify every plan it builds (``--check-plans``, which sets
``RunnerSettings.check_plans``).
"""

from __future__ import annotations

from .cfg_checks import BlockGraph, verify_workload
from .engine import ENGINE_RULES, LintEngine, lint_paths, lint_source_tree
from .findings import Finding, Severity, exit_code, render_json, render_text
from .plan_checks import PLAN_RULES, verify_plan
from .service_checks import GUARDED_BY, SERVICE_RULES, ServiceIndex

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
    "lint_paths",
    "lint_source_tree",
    "render_json",
    "render_text",
    "verify_plan",
    "verify_workload",
]
