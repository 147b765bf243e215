"""Durable plan-service state: periodic snapshots over the WAL.

The durability story has two layers.  The :class:`~repro.service.journal.IngestJournal`
is the write-ahead log: every accepted batch is appended (and flushed)
before it is folded, so the journal alone can reconstruct any shard
fold-for-fold.  Replaying a long journal from zero is linear in the
stream, though, so this module adds the second layer: periodic
**snapshots** of the folded state — sketch counters, reservoir contents
*and RNG state*, shard generations, and the published
:class:`~repro.service.build.PlanVersion` lineage — so recovery costs
one snapshot load plus the journal *suffix* written since it.

Snapshots are plain JSON, stamped with the shared ``schema_version``
machinery, and written atomically by the shared artifact writer
(:func:`~repro.profiling.serialize.write_json_atomic`: C-encoded one
shard or plan at a time into a temp sibling, then ``os.replace``): a
crash mid-snapshot leaves the previous snapshot intact, and
:meth:`SnapshotStore.latest` skips any unreadable file and falls back
to the newest valid one.

Correctness argument for convergence: the ingest fold is deterministic
(seeded sketch/reservoir, queue order == fold order), a snapshot
captures the *complete* fold state including the reservoir's RNG
internals, and the snapshot records how many journaled batches per
shard it covers.  Restoring the snapshot and replaying exactly the
uncovered journal suffix therefore lands in the same state — and hence
the same published plans — as a run that never crashed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ..errors import PlanError, SnapshotError
from ..profiling.profile import MissSample
from ..profiling.serialize import (
    check_schema_version,
    flat_rows,
    int_rows,
    plan_from_dict,
    plan_to_dict,
    write_json_atomic,
)
from .build import PlanDiff, PlanVersion
from .ingest import ShardKey, ShardState

# Snapshot schema version (independent of profile/plan/journal schemas).
# Version 2 holds plans and plan diffs in the columnar plan layout.
PERSIST_SCHEMA_VERSION = 2

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


# ----------------------------------------------------------------------
# Shard state <-> dict
# ----------------------------------------------------------------------

def _sample_to_list(s: MissSample) -> list:
    return [s.miss_pc, s.miss_block, [[b, c] for b, c in s.window]]


def _sample_from_list(raw) -> MissSample:
    pc, block, window = raw
    return MissSample(
        miss_pc=pc, miss_block=block, window=tuple((b, c) for b, c in window)
    )


def shard_to_dict(shard: ShardState) -> dict:
    """Complete fold state of one shard, JSON-ready.

    The reservoir's RNG state is part of the fold state: once the
    reservoir overflows, which slot an arriving sample evicts depends
    on it, so omitting it would make post-restore folds diverge from
    the uninterrupted run.
    """
    rng_state = shard.reservoir._rng.getstate()
    return {
        "app": shard.key[0],
        "input": shard.key[1],
        "generation": shard.generation,
        "built_generation": shard.built_generation,
        "epoch": shard.epoch,
        "counters": {
            "batches": shard.counters.batches,
            "received": shard.counters.received,
            "admitted": shard.counters.admitted,
            "filtered": shard.counters.filtered,
            "dropped": shard.counters.dropped,
        },
        "sketch": {
            "rows": [list(row) for row in shard.sketch._rows],
            "total": shard.sketch.total,
        },
        "reservoir": {
            "items": [_sample_to_list(s) for s in shard.reservoir.items],
            "seen": shard.reservoir.seen,
            "evicted": shard.reservoir.evicted,
            # random.Random.getstate(): (version, tuple-of-ints, gauss).
            "rng_state": [rng_state[0], list(rng_state[1]), rng_state[2]],
        },
    }


def shard_from_dict(data: dict, buffer) -> ShardState:
    """Rebuild one shard inside *buffer*'s geometry (seed, sketch, cap).

    The shard is constructed through ``buffer.shard()`` so it uses the
    restoring service's configuration; the snapshot-level config check
    in :func:`apply_snapshot` has already proven the geometries match.
    """
    try:
        key: ShardKey = (data["app"], data["input"])
        shard = buffer.shard(key)
        shard.generation = int(data["generation"])
        shard.built_generation = int(data["built_generation"])
        # Optional for pre-epoch snapshots (schema stays v1): absent
        # means the shard never saw a deploy boundary.
        shard.epoch = int(data.get("epoch", 0))
        counters = data["counters"]
        shard.counters.batches = int(counters["batches"])
        shard.counters.received = int(counters["received"])
        shard.counters.admitted = int(counters["admitted"])
        shard.counters.filtered = int(counters["filtered"])
        shard.counters.dropped = int(counters["dropped"])
        sketch = data["sketch"]
        rows = [[int(c) for c in row] for row in sketch["rows"]]
        if len(rows) != shard.sketch.depth or any(
            len(row) != shard.sketch.width for row in rows
        ):
            raise SnapshotError(
                f"snapshot sketch geometry for shard {key} does not match "
                f"the service's {shard.sketch.depth}x{shard.sketch.width}"
            )
        shard.sketch._rows = rows
        shard.sketch.total = int(sketch["total"])
        res = data["reservoir"]
        items = [_sample_from_list(raw) for raw in res["items"]]
        if len(items) > shard.reservoir.capacity:
            raise SnapshotError(
                f"snapshot reservoir for shard {key} holds {len(items)} "
                f"items but the service's capacity is "
                f"{shard.reservoir.capacity}"
            )
        shard.reservoir.items = items
        shard.reservoir.seen = int(res["seen"])
        shard.reservoir.evicted = int(res["evicted"])
        state = res["rng_state"]
        shard.reservoir._rng.setstate((state[0], tuple(state[1]), state[2]))
        return shard
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed shard snapshot: {exc}") from exc


# ----------------------------------------------------------------------
# Plan lineage <-> dict
# ----------------------------------------------------------------------

def plan_version_to_dict(version: PlanVersion) -> dict:
    """JSON-ready *version*: the columnar plan, the diff as flat pairs."""
    diff = version.diff
    return {
        "app": version.key[0],
        "input": version.key[1],
        "version": version.version,
        "generation": version.generation,
        "samples": version.samples,
        "checked": version.checked,
        "plan": plan_to_dict(version.plan),
        "diff": {
            "added": flat_rows(diff.added),
            "dropped": flat_rows(diff.dropped),
            "retargeted": flat_rows(diff.retargeted),
        },
    }


def plan_version_from_dict(data: dict) -> PlanVersion:
    """Rebuild a :func:`plan_version_to_dict` dict; a fault is a SnapshotError."""
    try:
        # The plan first: its schema version is the most telling fault.
        plan = plan_from_dict(data["plan"])
        diff = {
            name: int_rows(data["diff"][name], 2, f"diff column {name}", ValueError)
            for name in ("added", "dropped", "retargeted")
        }
        return PlanVersion(
            key=(data["app"], data["input"]),
            version=int(data["version"]),
            generation=int(data["generation"]),
            samples=int(data["samples"]),
            plan=plan,
            diff=PlanDiff(**diff),
            checked=bool(data["checked"]),
        )
    except (PlanError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"malformed plan-version snapshot: {exc}") from exc


# ----------------------------------------------------------------------
# Canary state <-> dict
# ----------------------------------------------------------------------

def canary_state_to_dict(state) -> dict:
    """Complete drift-canary machine state for one shard, JSON-ready.

    The canary's lineage (``history``), counters, arm trackers, and the
    staged ``candidate``/active ``baseline`` versions all persist: the
    "no published version exists outside a snapshot" invariant extends
    to rollbacks, so recovery must reproduce the *active* version and
    the verdict trail, not merely the latest built plan.
    """
    from ..drift.canary import CanaryState  # local: keeps import acyclic

    assert isinstance(state, CanaryState)
    return {
        "key": list(state.key),
        "stage": state.stage,
        "observed": state.observed,
        "promotions": state.promotions,
        "rollbacks": state.rollbacks,
        "history": [[event, version] for event, version in state.history],
        "baseline": (
            plan_version_to_dict(state.baseline)
            if state.baseline is not None
            else None
        ),
        "candidate": (
            plan_version_to_dict(state.candidate)
            if state.candidate is not None
            else None
        ),
        "baseline_tracker": (
            state.baseline_tracker.to_dict()
            if state.baseline_tracker is not None
            else None
        ),
        "candidate_tracker": (
            state.candidate_tracker.to_dict()
            if state.candidate_tracker is not None
            else None
        ),
    }


def canary_state_from_dict(data: dict):
    """Rebuild one shard's canary state from its snapshot dict."""
    from ..drift.canary import CanaryState
    from ..drift.feedback import EffectivenessTracker

    try:
        app, label = data["key"]
        return CanaryState(
            key=(app, label),
            stage=str(data["stage"]),
            observed=int(data["observed"]),
            promotions=int(data["promotions"]),
            rollbacks=int(data["rollbacks"]),
            history=[
                (str(event), int(version)) for event, version in data["history"]
            ],
            baseline=(
                plan_version_from_dict(data["baseline"])
                if data["baseline"] is not None
                else None
            ),
            candidate=(
                plan_version_from_dict(data["candidate"])
                if data["candidate"] is not None
                else None
            ),
            baseline_tracker=(
                EffectivenessTracker.from_dict(data["baseline_tracker"])
                if data["baseline_tracker"] is not None
                else None
            ),
            candidate_tracker=(
                EffectivenessTracker.from_dict(data["candidate_tracker"])
                if data["candidate_tracker"] is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed canary-state snapshot: {exc}") from exc


# ----------------------------------------------------------------------
# Whole-service snapshot <-> dict
# ----------------------------------------------------------------------

def capture_snapshot(service, seq: int, journal_counts: Dict[ShardKey, int]) -> dict:
    """Freeze *service*'s fold state + plan lineage as a JSON-ready dict.

    *journal_counts* records, per shard, how many journaled batches
    this snapshot covers — the replay start positions for recovery.
    """
    buffer = service.buffer
    return {
        "format": PERSIST_SCHEMA_VERSION,
        "schema_version": PERSIST_SCHEMA_VERSION,
        "kind": "service_snapshot",
        "seq": seq,
        "config": {
            "reservoir_capacity": buffer.reservoir_capacity,
            "hot_threshold": buffer.hot_threshold,
            "sketch_width": buffer.sketch_width,
            "sketch_depth": buffer.sketch_depth,
            "seed": buffer.seed,
        },
        "journal_counts": [
            [app, label, count] for (app, label), count in journal_counts.items()
        ],
        "shards": [shard_to_dict(buffer.get(key)) for key in buffer.keys()],
        "plans": [
            plan_version_to_dict(v)
            for v in (
                service.builder.latest(key) for key in buffer.keys()
            )
            if v is not None
        ],
        # Drift-canary machine state (absent on pre-drift services).
        "canary": [
            canary_state_to_dict(state)
            for state in getattr(service, "canary_states", lambda: [])()
        ],
    }


def apply_snapshot(service, data: dict) -> Tuple[int, int, Dict[ShardKey, int]]:
    """Install a captured snapshot into a not-yet-started *service*.

    Returns ``(shards_restored, plans_restored, journal_counts)``.
    Raises :class:`~repro.errors.SnapshotError` on schema or
    configuration mismatch — replaying a journal into a differently
    shaped sketch/reservoir would silently diverge, so the check is a
    hard gate.
    """
    if data.get("kind") != "service_snapshot":
        raise SnapshotError("not a serialized service snapshot")
    check_schema_version(
        data, "service snapshot", SnapshotError, expected=PERSIST_SCHEMA_VERSION
    )
    buffer = service.buffer
    try:
        config = data["config"]
        mine = {
            "reservoir_capacity": buffer.reservoir_capacity,
            "hot_threshold": buffer.hot_threshold,
            "sketch_width": buffer.sketch_width,
            "sketch_depth": buffer.sketch_depth,
            "seed": buffer.seed,
        }
        for name, value in mine.items():
            if config.get(name) != value:
                raise SnapshotError(
                    f"snapshot was captured with {name}={config.get(name)!r} "
                    f"but this service runs {name}={value!r}; refusing to "
                    "restore into a diverging configuration"
                )
        shards = data["shards"]
        plans = data["plans"]
        journal_counts = {
            (app, label): int(count)
            for app, label, count in data["journal_counts"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed service snapshot: {exc}") from exc
    for shard_data in shards:
        shard_from_dict(shard_data, buffer)
    for plan_data in plans:
        version = plan_version_from_dict(plan_data)
        service.builder.restore_version(version)
    controller = getattr(service, "canary", None)
    if controller is not None:
        for state_data in data.get("canary", []):
            controller.restore_state(canary_state_from_dict(state_data))
    return len(shards), len(plans), journal_counts


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------

class SnapshotStore:
    """A directory of numbered snapshot files with atomic writes.

    Files are ``snapshot-<seq:08d>.json``; ``write()`` goes through a
    temp sibling and ``os.replace`` so a reader never observes a torn
    snapshot, then prunes old sequence numbers beyond ``keep``.
    """

    def __init__(self, directory: str, keep: int = 2):
        if keep < 1:
            raise SnapshotError(f"snapshot keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise SnapshotError(
                f"cannot create snapshot directory {directory!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _path(self, seq: int) -> str:
        return os.path.join(
            self.directory, f"{_SNAPSHOT_PREFIX}{seq:08d}{_SNAPSHOT_SUFFIX}"
        )

    def _sequence_numbers(self) -> List[int]:
        seqs = []
        for name in os.listdir(self.directory):
            if not (
                name.startswith(_SNAPSHOT_PREFIX)
                and name.endswith(_SNAPSHOT_SUFFIX)
            ):
                continue
            stem = name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
            try:
                seqs.append(int(stem))
            except ValueError:
                continue
        return sorted(seqs)

    def write(self, data: dict) -> str:
        """Atomically persist *data* under its ``seq``; returns the path."""
        try:
            seq = int(data["seq"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot carries no usable seq: {exc}") from exc
        path = self._path(seq)
        try:
            write_json_atomic(data, path)
        except OSError as exc:
            raise SnapshotError(f"could not write snapshot {path}: {exc}") from exc
        self.prune()
        return path

    def latest(self) -> Optional[dict]:
        """The newest loadable snapshot, or ``None`` when there is none.

        Unreadable or syntactically torn files are skipped (falling
        back to the previous sequence number); a snapshot that loads
        but carries an unknown schema version raises — that is a
        version problem a fallback cannot paper over.
        """
        for seq in reversed(self._sequence_numbers()):
            path = self._path(seq)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                continue
            check_schema_version(
                data,
                "service snapshot",
                SnapshotError,
                expected=PERSIST_SCHEMA_VERSION,
            )
            return data
        return None

    def prune(self) -> int:
        """Drop all but the newest ``keep`` snapshots; returns removed count."""
        seqs = self._sequence_numbers()
        removed = 0
        for seq in seqs[: -self.keep] if len(seqs) > self.keep else []:
            try:
                os.unlink(self._path(seq))
                removed += 1
            except OSError:
                continue
        return removed
