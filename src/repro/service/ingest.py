"""Streaming LBR-sample ingestion (the service's write path).

Fleet profilers ship :class:`SampleBatch` objects — a few hundred BTB
miss samples tagged with their (app, input) shard.  The
:class:`IngestBuffer` folds each batch into per-shard state: a seeded
:class:`~repro.service.reservoir.ReservoirSampler` bounds retained
samples per shard, so an unbounded stream folds into a bounded
:class:`~repro.profiling.profile.MissProfile`.

``fold()`` materializes the reservoir as a ``MissProfile`` in retained
order; when the reservoir never overflowed, that profile is
sample-for-sample identical to what the offline
:func:`~repro.profiling.collector.collect_profile` produced on the same
stream — the property the parity tests pin.

:func:`encode_samples` and :func:`decode_samples` are the one codec for
the ``[pc, block, [[block, lead], ...]]`` sample layout that the HTTP
wire, the WAL and the snapshots share.  The decoder checks every value,
so a malformed sample is a typed error wherever it is read: at ingress
before it is queued or journaled, and on restore from a damaged WAL
line or snapshot.  Ingress then holds each batch against its app's
workload (:func:`check_sample_blocks`), so a sample the plan build
could not attribute is refused too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ReproError, ServiceError
from ..profiling.profile import MissProfile, MissSample
from .reservoir import ReservoirSampler

# A shard is one (app, input) profiling population.
ShardKey = Tuple[str, str]


def encode_samples(samples) -> list:
    """*samples* as JSON-ready rows ``[pc, block, [[block, lead], ...]]``."""
    return [
        [s.miss_pc, s.miss_block, [[b, lead] for b, lead in s.window]]
        for s in samples
    ]


def _checked_sample(row) -> MissSample:
    pc, block, window = row
    if type(pc) is not int or pc < 0:
        raise ValueError(f"miss PC {pc!r} is not an int >= 0")
    if type(block) is not int or block < 0:
        raise ValueError(f"miss block {block!r} is not an int >= 0")
    entries = []
    for pred, lead in window:
        if type(pred) is not int or pred < 0:
            raise ValueError(f"window block {pred!r} is not an int >= 0")
        kind = type(lead)
        # lead - lead is 0.0 for a finite float and NaN for inf or NaN.
        if kind is not int and (kind is not float or lead - lead != 0.0):
            raise ValueError(f"window lead {lead!r} is not a finite number")
        entries.append((pred, lead))
    return MissSample(miss_pc=pc, miss_block=block, window=tuple(entries))


def decode_samples(rows, error: Type[ReproError]) -> Tuple[MissSample, ...]:
    """Rows in the :func:`encode_samples` layout as samples; a fault raises *error*.

    Each row's PC and block must be an ``int >= 0`` (not a ``bool``)
    and each window entry a pair of an ``int >= 0`` and a finite
    ``int`` or ``float``; a :class:`MissSample` passes as it is.
    """
    try:
        return tuple(
            row if isinstance(row, MissSample) else _checked_sample(row)
            for row in rows
        )
    except (TypeError, ValueError) as exc:
        raise error(f"malformed samples: {exc}") from exc


def check_sample_blocks(samples, branch_pc: Sequence[int]) -> None:
    """Refuse samples that name no block of the app (:class:`ServiceError`).

    *branch_pc* is the app's per-block branch PC column.  Every miss
    block and window block must index it, and the miss PC must be the
    branch that ends its block; the plan build indexes the workload's
    columns with these values, so one such sample would otherwise fail
    every later build of its shard.
    """
    n_blocks = len(branch_pc)
    try:
        for s in samples:
            block = s.miss_block
            if not 0 <= block < n_blocks or branch_pc[block] != s.miss_pc:
                raise ServiceError(
                    f"sample miss PC {s.miss_pc!r} does not end block "
                    f"{block!r} of the app's {n_blocks}"
                )
            for pred, _lead in s.window:
                if not 0 <= pred < n_blocks:
                    raise ServiceError(
                        f"sample window block {pred!r} is not one of the "
                        f"app's {n_blocks} blocks"
                    )
    except (TypeError, ValueError) as exc:
        # A MissSample object skips decode_samples' value checks.
        raise ServiceError(f"malformed samples: {exc}") from exc


@dataclass(frozen=True)
class SampleBatch:
    """One profiler shipment: miss samples for a single shard."""

    app_name: str
    input_label: str
    samples: Tuple[MissSample, ...]
    # Client-side sequence number; bookkeeping only.
    seq: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.app_name, str) and self.app_name):
            raise ServiceError("sample batch needs a non-empty app_name")
        if not (isinstance(self.input_label, str) and self.input_label):
            raise ServiceError("sample batch needs a non-empty input_label")
        if not self.samples:
            raise ServiceError("sample batch carries no samples")

    @property
    def key(self) -> ShardKey:
        return (self.app_name, self.input_label)


@dataclass(frozen=True)
class FeedbackBatch:
    """One fleet shipment of *post-publish* miss feedback for a shard.

    Unlike :class:`SampleBatch`, feedback never reaches the plan
    builder: it is scored against the shard's live plan by the drift
    canary controller (:mod:`repro.drift`), so it may legitimately
    reference relocated addresses that no current CFG contains —
    that is exactly what the stale classification detects.  ``stale_pcs``
    optionally carries the changelog-derived set of relocated miss PCs
    so scoring can separate *stale* from merely *uncovered*.
    """

    app_name: str
    input_label: str
    samples: Tuple[MissSample, ...]
    stale_pcs: Tuple[int, ...] = ()
    seq: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.app_name, str) and self.app_name):
            raise ServiceError("feedback batch needs a non-empty app_name")
        if not (isinstance(self.input_label, str) and self.input_label):
            raise ServiceError("feedback batch needs a non-empty input_label")
        if not self.samples:
            raise ServiceError("feedback batch carries no samples")

    @property
    def key(self) -> ShardKey:
        return (self.app_name, self.input_label)


@dataclass
class ShardCounters:
    """Ingest accounting for one shard."""

    batches: int = 0
    received: int = 0
    admitted: int = 0
    dropped: int = 0  # offered but not retained (reservoir overflow)


class ShardState:
    """Bounded stream state for one (app, input) shard."""

    def __init__(self, key: ShardKey, reservoir_capacity: int, seed: int = 0):
        self.key = key
        self.seed = seed
        self.reservoir: ReservoirSampler[MissSample] = ReservoirSampler(
            reservoir_capacity, key, seed
        )
        self.counters = ShardCounters()
        # Bumps on every absorbed batch; the builder records which
        # generation a published plan covers, so dirtiness is just a
        # generation comparison.
        self.generation = 0
        self.built_generation = 0
        # Profile epoch: bumps when a rolling deploy invalidates sample
        # attribution (see :meth:`reset_epoch`).
        self.epoch = 0

    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Samples arrived since the last published plan build."""
        return self.generation > self.built_generation

    def absorb(self, batch: SampleBatch) -> ShardCounters:
        """Fold one batch into the reservoir; returns counters."""
        if batch.key != self.key:
            raise ServiceError(
                f"batch for shard {batch.key} routed to shard {self.key}"
            )
        c = self.counters
        c.batches += 1
        for sample in batch.samples:
            c.received += 1
            if self.reservoir.offer(sample):
                c.admitted += 1
            else:
                c.dropped += 1
        self.generation += 1
        return c

    def reset_epoch(self) -> int:
        """Start a fresh profile epoch: drop all retained samples.

        A rolling deploy changes the binary's layout, so samples
        collected before it can no longer be attributed to the code the
        fleet now runs; folding them into the next plan would bake
        stale sites in silently.  The reservoir and counters restart
        exactly as at construction (same seed — the fold stays
        deterministic); ``generation`` keeps counting monotonically so
        dirtiness tracking and the plan lineage survive the boundary.
        Returns the new epoch number.
        """
        self.reservoir = ReservoirSampler(
            self.reservoir.capacity, self.key, self.seed
        )
        self.counters = ShardCounters()
        self.generation += 1
        self.epoch += 1
        return self.epoch

    def fold(self) -> MissProfile:
        """The retained samples as a :class:`MissProfile` (retained order)."""
        app, label = self.key
        profile = MissProfile(app_name=app, input_label=label)
        for s in self.reservoir.items:
            profile.add_sample(s.miss_pc, s.miss_block, s.window)
        profile.validate()
        return profile


@dataclass(frozen=True)
class IngestAck:
    """What the service tells a profiler about its batch."""

    key: ShardKey
    generation: int
    received: int
    admitted: int
    dropped: int


class IngestBuffer:
    """All shard states plus the routing/fold entry points."""

    def __init__(self, reservoir_capacity: int, seed: int = 0):
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self._shards: Dict[ShardKey, ShardState] = {}

    # ------------------------------------------------------------------
    def shard(self, key: ShardKey) -> ShardState:
        """The shard for *key*, creating it on first contact."""
        state = self._shards.get(key)
        if state is None:
            state = ShardState(key, self.reservoir_capacity, seed=self.seed)
            self._shards[key] = state
        return state

    def get(self, key: ShardKey) -> Optional[ShardState]:
        return self._shards.get(key)

    def ingest(self, batch: SampleBatch) -> IngestAck:
        """Route one batch to its shard and fold it in."""
        state = self.shard(batch.key)
        before = state.counters
        prev = (before.received, before.admitted, before.dropped)
        after = state.absorb(batch)
        return IngestAck(
            key=state.key,
            generation=state.generation,
            received=after.received - prev[0],
            admitted=after.admitted - prev[1],
            dropped=after.dropped - prev[2],
        )

    def keys(self) -> List[ShardKey]:
        """All known shards, in first-contact order."""
        return list(self._shards)

    def discard(self, key: ShardKey) -> bool:
        """Drop *key*'s shard state (fleet rebalance handoff).

        Returns whether the shard existed.  The caller owns the
        durability story: the fleet router only discards a shard after
        its journal has been replayed into the new owner.
        """
        return self._shards.pop(key, None) is not None

    def dirty_keys(self) -> List[ShardKey]:
        """Shards with samples newer than their last plan build."""
        return [k for k, s in self._shards.items() if s.dirty]
