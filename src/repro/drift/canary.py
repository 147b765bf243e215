"""The canary state machine the plan service drives (Layer 3).

Every freshly built :class:`~repro.service.build.PlanVersion` stages
into a *canary* first: live feedback traffic splits deterministically
between the incumbent baseline plan and the candidate, each arm scores
into its own :class:`~repro.drift.feedback.EffectivenessTracker`, and
once both arms close enough windows the seeded
:class:`~repro.drift.feedback.RegressionDetector` renders a verdict —
promote the candidate or auto-roll-back to the baseline.

The controller only decides; durability is the service's job.  Every
transition is surfaced as a :class:`CanaryVerdict` so the server can
journal it and snapshot the post-transition state (extending the
"no published version exists outside a snapshot" invariant to
rollbacks: recovery must restore the *active* version, not merely the
latest built one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DriftError
from ..profiling.profile import MissSample
from ..service.build import PlanVersion
from ..service.ingest import ShardKey
from .feedback import (
    EffectivenessTracker,
    RegressionDetector,
    assign_arm,
    plan_index,
    score_sample,
)

STAGE_STEADY = "steady"    # one active plan, no evaluation in flight
STAGE_CANARY = "canary"    # candidate staged, traffic split running

# Lineage event kinds recorded in CanaryState.history.
EVENT_ACTIVATED = "activated"
EVENT_STAGED = "staged"
EVENT_RESTAGED = "restaged"
EVENT_PROMOTED = "promoted"
EVENT_ROLLED_BACK = "rolled_back"

# The candidate's share of the deterministic traffic split.
CANARY_FRACTION = 0.5
# Closed windows each arm needs before a verdict.
CANARY_WINDOWS = 2
# Salts the traffic split and the regression detector.
CANARY_SEED = 0


@dataclass(frozen=True)
class CanarySettings:
    """Canary policy knobs.

    ``enabled`` gates the whole stage: when off, every published
    version activates immediately and feedback only feeds the
    baseline's effectiveness metric (Layer 2 standalone).  ``window``
    is the per-arm feedback window size, and ``threshold`` the absolute
    covered-fraction drop that counts as a regression.  The candidate
    gets :data:`CANARY_FRACTION` of the traffic, each arm closes
    :data:`CANARY_WINDOWS` windows before a verdict, and
    :data:`CANARY_SEED` salts both the traffic split and the detector.
    """

    enabled: bool = False
    window: int = 64
    threshold: float = 0.1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise DriftError(f"canary window must be >= 1, got {self.window}")
        if not (0.0 <= self.threshold <= 1.0):
            raise DriftError(
                f"canary threshold must be in [0, 1], got {self.threshold}"
            )

    def detector(self) -> RegressionDetector:
        return RegressionDetector(
            threshold=self.threshold, windows=CANARY_WINDOWS, seed=CANARY_SEED
        )


@dataclass
class CanaryState:
    """Per-shard canary machine state.

    Everything here persists (see ``canary_state_to_dict`` in
    :mod:`repro.service.persist`): ``history`` is the lineage audit —
    ``(event, version)`` pairs in order — that the E2E tests assert is
    identical before and after a kill-and-restore.
    """

    key: ShardKey
    stage: str = STAGE_STEADY
    baseline: Optional[PlanVersion] = None
    candidate: Optional[PlanVersion] = None
    observed: int = 0
    promotions: int = 0
    rollbacks: int = 0
    history: List[Tuple[str, int]] = field(default_factory=list)
    baseline_tracker: Optional[EffectivenessTracker] = None
    candidate_tracker: Optional[EffectivenessTracker] = None


@dataclass(frozen=True)
class CanaryVerdict:
    """One rendered verdict: what was decided and what is active now."""

    key: ShardKey
    decision: str  # EVENT_PROMOTED or EVENT_ROLLED_BACK
    candidate_version: int
    active_version: int
    baseline_score: float
    candidate_score: float


class CanaryController:
    """Drives one :class:`CanaryState` per shard.

    The controller is the serving-truth oracle: :meth:`active` returns
    the plan the fleet should execute, which during a canary is the
    *baseline* — the builder's ``latest()`` keeps version monotonicity
    and may point past a rolled-back candidate; the two views diverge
    by design and the service serves this one.
    """

    def __init__(self, settings: Optional[CanarySettings] = None):
        self.settings = settings if settings is not None else CanarySettings()
        self.states: Dict[ShardKey, CanaryState] = {}
        self._detector = self.settings.detector()
        # Plan indices are derived, cached per (key, version, arm).
        self._index_cache: Dict[Tuple[ShardKey, str, int], dict] = {}

    # -- state access -------------------------------------------------
    def state(self, key: ShardKey) -> CanaryState:
        found = self.states.get(key)
        if found is None:
            found = CanaryState(key=key)
            self.states[key] = found
        return found

    def active(self, key: ShardKey) -> Optional[PlanVersion]:
        """The serving-truth plan version for *key* (baseline)."""
        found = self.states.get(key)
        return found.baseline if found is not None else None

    def restore_state(self, state: CanaryState) -> None:
        """Install a state recovered from a snapshot."""
        self.states[state.key] = state
        self._drop_cached(state.key)

    def forget(self, key: ShardKey) -> None:
        self.states.pop(key, None)
        self._drop_cached(key)

    def _drop_cached(self, key: ShardKey) -> None:
        for cached in [c for c in self._index_cache if c[0] == key]:
            del self._index_cache[cached]

    # -- publish ------------------------------------------------------
    def note_published(self, version: PlanVersion) -> str:
        """Register a freshly built version; return the transition kind.

        * ``activated`` — no incumbent (first plan) or canarying is
          disabled: the version becomes the baseline immediately;
        * ``staged`` — an incumbent exists and the version enters the
          canary stage with fresh trackers;
        * ``restaged`` — a newer build lands while a canary is already
          running: the candidate is replaced and evaluation restarts.
        """
        state = self.state(version.key)
        if state.baseline is None or not self.settings.enabled:
            state.baseline = version
            state.candidate = None
            state.stage = STAGE_STEADY
            state.history.append((EVENT_ACTIVATED, version.version))
            self._drop_cached(version.key)
            return EVENT_ACTIVATED
        event = EVENT_RESTAGED if state.stage == STAGE_CANARY else EVENT_STAGED
        state.candidate = version
        state.stage = STAGE_CANARY
        state.baseline_tracker = EffectivenessTracker(self.settings.window)
        state.candidate_tracker = EffectivenessTracker(self.settings.window)
        state.history.append((event, version.version))
        self._drop_cached(version.key)
        return event

    # -- feedback -----------------------------------------------------
    def _index_for(self, key: ShardKey, arm: str,
                   version: PlanVersion) -> dict:
        cache_key = (key, arm, version.version)
        cached = self._index_cache.get(cache_key)
        if cached is None:
            cached = plan_index(version.plan)
            self._index_cache[cache_key] = cached
        return cached

    def observe(
        self,
        key: ShardKey,
        sample: MissSample,
        stale_pcs: Optional[Set[int]] = None,
    ) -> Optional[CanaryVerdict]:
        """Score one post-publish feedback sample; maybe render a verdict.

        Outside a canary the sample scores against the baseline only
        (the standalone effectiveness metric).  During a canary the
        deterministic split sends it to one arm; when both arms have
        closed enough windows the detector decides and the state
        machine transitions — the returned verdict is the service's cue
        to journal and snapshot.
        """
        state = self.states.get(key)
        if state is None or state.baseline is None:
            return None  # feedback before any plan exists: nothing to score
        if state.baseline_tracker is None:
            state.baseline_tracker = EffectivenessTracker(self.settings.window)
        if state.stage != STAGE_CANARY or state.candidate is None:
            index = self._index_for(key, "baseline", state.baseline)
            state.baseline_tracker.observe(
                score_sample(index, sample, stale_pcs)
            )
            state.observed += 1
            return None
        arm = assign_arm(CANARY_SEED, key, state.observed, CANARY_FRACTION)
        state.observed += 1
        if arm == "candidate":
            assert state.candidate_tracker is not None
            index = self._index_for(key, "candidate", state.candidate)
            state.candidate_tracker.observe(
                score_sample(index, sample, stale_pcs)
            )
        else:
            index = self._index_for(key, "baseline", state.baseline)
            state.baseline_tracker.observe(
                score_sample(index, sample, stale_pcs)
            )
        assert state.candidate_tracker is not None
        if not self._detector.ready(
            state.baseline_tracker, state.candidate_tracker
        ):
            return None
        return self._decide(state)

    def _decide(self, state: CanaryState) -> CanaryVerdict:
        assert state.candidate is not None
        assert state.baseline_tracker is not None
        assert state.candidate_tracker is not None
        base_score = state.baseline_tracker.mean_score(last=CANARY_WINDOWS)
        cand_score = state.candidate_tracker.mean_score(last=CANARY_WINDOWS)
        regressed = self._detector.regressed(
            state.baseline_tracker, state.candidate_tracker
        )
        candidate = state.candidate
        assert state.baseline is not None
        if regressed:
            decision = EVENT_ROLLED_BACK
            state.rollbacks += 1
            active = state.baseline
        else:
            decision = EVENT_PROMOTED
            state.promotions += 1
            state.baseline = candidate
            active = candidate
        state.candidate = None
        state.candidate_tracker = None
        state.baseline_tracker = EffectivenessTracker(self.settings.window)
        state.stage = STAGE_STEADY
        state.history.append((decision, candidate.version))
        self._drop_cached(state.key)
        return CanaryVerdict(
            key=state.key,
            decision=decision,
            candidate_version=candidate.version,
            active_version=active.version,
            baseline_score=base_score,
            candidate_score=cand_score,
        )

    # -- observability ------------------------------------------------
    def stats(self) -> dict:
        """Aggregate counters for the service's stats snapshot."""
        return {
            "shards": len(self.states),
            "canarying": sum(
                1 for s in self.states.values() if s.stage == STAGE_CANARY
            ),
            "promotions": sum(s.promotions for s in self.states.values()),
            "rollbacks": sum(s.rollbacks for s in self.states.values()),
            "observed": sum(s.observed for s in self.states.values()),
        }
