"""Simulated Last Branch Record collection.

Intel LBR records the last 32 basic blocks executed before an event,
each with a cycle stamp.  The simulator calls :meth:`record` for every
fetch unit and :meth:`on_miss` when a taken direct branch misses the
BTB; the recorder snapshots the ring (with cycle distances) into a
:class:`~repro.profiling.profile.MissProfile`, optionally sampling one
in every ``sample_rate`` misses the way a perf-counter-driven profiler
would.
"""

from __future__ import annotations

from typing import List, Tuple

from .profile import MissProfile

LBR_DEPTH = 32


class LBRRecorder:
    """Ring buffer of the last 32 (block, cycle) pairs + miss sampler."""

    def __init__(self, profile: MissProfile, sample_rate: int = 1, depth: int = LBR_DEPTH):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        if depth < 1:
            raise ValueError("LBR depth must be >= 1")
        self.profile = profile
        self.sample_rate = sample_rate
        self.depth = depth
        self._blocks: List[int] = [-1] * depth
        self._cycles: List[float] = [0.0] * depth
        self._pos = 0
        self._count = 0
        self._miss_seq = 0

    def record(self, block: int, cycle: float) -> None:
        """Note one executed fetch unit (called for every unit)."""
        pos = self._pos
        self._blocks[pos] = block
        self._cycles[pos] = cycle
        self._pos = pos + 1 if pos + 1 < self.depth else 0
        self._count += 1

    def on_miss(self, pc: int, block: int, cycle: float) -> None:
        """A BTB miss occurred at branch *pc* (in *block*) at *cycle*."""
        self._miss_seq += 1
        if self._miss_seq % self.sample_rate:
            return
        window = self.snapshot(cycle)
        self.profile.add_sample(pc, block, window)

    def snapshot(self, miss_cycle: float) -> Tuple[Tuple[int, float], ...]:
        """The ring contents, oldest first, as (block, cycles-before-miss)."""
        n = min(self._count, self.depth)
        out = []
        # Oldest entry sits at _pos when the ring is full.
        start = self._pos if self._count >= self.depth else 0
        for k in range(n):
            idx = (start + k) % self.depth
            out.append((self._blocks[idx], miss_cycle - self._cycles[idx]))
        return tuple(out)
