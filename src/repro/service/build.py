"""Incremental plan builds with versioning and a publish gate.

The :class:`IncrementalPlanBuilder` turns a dirty shard's folded
profile into a fresh :class:`~repro.core.plan.PrefetchPlan` via the
same :func:`repro.core.twig.build_plan` the offline pipeline uses —
the online path adds *no* analysis of its own, which is what makes
online/offline parity a theorem rather than a hope.

Around each build it layers the serving concerns:

* **publish gate** — every candidate plan runs through
  :func:`repro.staticcheck.gate_plan`; a finding keeps the plan
  unpublished (:class:`~repro.errors.PlanError`), so a corrupted build
  can never reach a client;
* **versioning** — published plans carry a monotonically increasing
  per-shard version plus the shard generation they cover;
* **plan diff** — a structured delta (sites added / dropped /
  retargeted) between consecutive versions, the churn signal operators
  watch when a fleet's behaviour drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..config import SimConfig
from ..core.plan import PrefetchPlan
from ..core.twig import build_plan
from ..workloads.cfg import Workload
from .ingest import ShardKey, ShardState

# One prefetch site: (injection block, branch PC); its payload is the
# (target, kind_code) the injected op installs for that branch.
Site = Tuple[int, int]
Payload = Tuple[Tuple[int, int], ...]


def plan_sites(plan: PrefetchPlan) -> Dict[Site, Payload]:
    """Flatten a plan to {(inject block, branch pc): sorted payloads}."""
    sites: Dict[Site, list] = {}
    for block, ops in plan.ops_by_block.items():
        for op in ops:
            for branch_pc, target, kcode in op.entries:
                sites.setdefault((block, branch_pc), []).append((target, kcode))
    return {site: tuple(sorted(payload)) for site, payload in sites.items()}


@dataclass(frozen=True)
class PlanDiff:
    """Structured delta between two consecutive plan versions."""

    added: Tuple[Site, ...]
    dropped: Tuple[Site, ...]
    retargeted: Tuple[Site, ...]

    @property
    def churn(self) -> int:
        return len(self.added) + len(self.dropped) + len(self.retargeted)

    def describe(self) -> str:
        return (
            f"+{len(self.added)} sites, -{len(self.dropped)} sites, "
            f"~{len(self.retargeted)} retargeted"
        )


def diff_plans(old: Optional[PrefetchPlan], new: PrefetchPlan) -> PlanDiff:
    """Site-level delta from *old* to *new* (old=None diffs from empty)."""
    old_sites = plan_sites(old) if old is not None else {}
    new_sites = plan_sites(new)
    added = tuple(sorted(s for s in new_sites if s not in old_sites))
    dropped = tuple(sorted(s for s in old_sites if s not in new_sites))
    retargeted = tuple(
        sorted(
            s
            for s in new_sites
            if s in old_sites and new_sites[s] != old_sites[s]
        )
    )
    return PlanDiff(added=added, dropped=dropped, retargeted=retargeted)


def plans_equivalent(a: PrefetchPlan, b: PrefetchPlan) -> bool:
    """Site-for-site equality: same sites, payloads, and table."""
    return plan_sites(a) == plan_sites(b) and a.table == b.table


@dataclass(frozen=True)
class PlanVersion:
    """One published plan plus its provenance."""

    key: ShardKey
    version: int
    generation: int  # shard generation the build covered
    samples: int  # retained samples the plan was built from
    plan: PrefetchPlan
    diff: PlanDiff


class IncrementalPlanBuilder:
    """Shard profile -> verified, versioned plan."""

    def __init__(
        self,
        workload_for: Callable[[str], Workload],
        config: Optional[SimConfig] = None,
        telemetry=None,
    ):
        self._workload_for = workload_for
        self.config = config if config is not None else SimConfig()
        self.telemetry = telemetry
        self._latest: Dict[ShardKey, PlanVersion] = {}

    # ------------------------------------------------------------------
    def latest(self, key: ShardKey) -> Optional[PlanVersion]:
        return self._latest.get(key)

    def versions(self) -> Dict[ShardKey, int]:
        return {k: v.version for k, v in self._latest.items()}

    def discard(self, key: ShardKey) -> bool:
        """Forget *key*'s published version (fleet rebalance handoff)."""
        return self._latest.pop(key, None) is not None

    def restore_version(self, version: PlanVersion) -> None:
        """Reinstall a snapshot-loaded published version (crash recovery).

        The next ``build()`` for the shard continues the lineage from
        here: version numbers keep incrementing and the diff is taken
        against this plan, exactly as if the service had never died.
        """
        self._latest[version.key] = version

    def build(self, shard: ShardState) -> PlanVersion:
        """Build, verify, and publish a plan for *shard*'s current state.

        Raises :class:`~repro.errors.PlanError` when the publish gate
        rejects the candidate; the previously published version (if
        any) stays current in that case.
        """
        # Imported on first build: starting the plan server loads no
        # staticcheck module.
        from ..staticcheck import gate_plan

        app, _label = shard.key
        generation = shard.generation
        profile = shard.fold()
        workload = self._workload_for(app)
        tel = self.telemetry
        if tel is not None:
            with tel.span("service_build", app=app, input=shard.key[1]):
                plan = build_plan(workload, profile, self.config)
            with tel.span("service_check", app=app):
                gate_plan(plan, workload, self.config)
        else:
            plan = build_plan(workload, profile, self.config)
            gate_plan(plan, workload, self.config)

        prev = self._latest.get(shard.key)
        version = PlanVersion(
            key=shard.key,
            version=(prev.version + 1) if prev is not None else 1,
            generation=generation,
            samples=len(profile),
            plan=plan,
            diff=diff_plans(prev.plan if prev is not None else None, plan),
        )
        self._latest[shard.key] = version
        shard.built_generation = generation
        return version
