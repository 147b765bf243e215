"""Profile containers.

A :class:`MissProfile` aggregates LBR windows keyed by the missing
branch PC.  It keeps raw windows so the analysis can be re-run with
different prefetch distances (the Fig 26 sweep) without re-simulating,
and keeps them in arrival order too, which is the stream a profiled
host would ship to the plan service.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ProfileError

# One window entry: (block index, cycles before the miss).
WindowEntry = Tuple[int, float]
Window = Tuple[WindowEntry, ...]


@dataclass(frozen=True)
class MissSample:
    """One sampled BTB miss with its LBR predecessor window."""

    miss_pc: int
    miss_block: int
    window: Window


class MissProfile:
    """Aggregated BTB-miss samples for one profiling run."""

    def __init__(self, app_name: str = "", input_label: str = ""):
        self.app_name = app_name
        self.input_label = input_label
        # Every sample in the order it was added.
        self.samples: List[MissSample] = []
        self._samples_by_pc: Dict[int, List[MissSample]] = defaultdict(list)
        # Execution count of each block across all sampled windows —
        # the "Total executed" column of Fig 13b.
        self.block_occurrences: Counter = Counter()
        self.total_samples = 0

    # ------------------------------------------------------------------
    def add_sample(self, miss_pc: int, miss_block: int, window: Window) -> None:
        sample = MissSample(miss_pc=miss_pc, miss_block=miss_block, window=window)
        self.samples.append(sample)
        self._samples_by_pc[miss_pc].append(sample)
        for block, _ in window:
            self.block_occurrences[block] += 1
        self.total_samples += 1

    # ------------------------------------------------------------------
    def miss_pcs(self) -> List[int]:
        """All sampled miss PCs, heaviest first."""
        return sorted(
            self._samples_by_pc, key=lambda pc: -len(self._samples_by_pc[pc])
        )

    def samples_for(self, miss_pc: int) -> List[MissSample]:
        return self._samples_by_pc.get(miss_pc, [])

    def miss_count(self, miss_pc: int) -> int:
        return len(self._samples_by_pc.get(miss_pc, ()))

    def __len__(self) -> int:
        return self.total_samples

    def merge(
        self, other: "MissProfile", allow_mixed_inputs: bool = False
    ) -> "MissProfile":
        """Combine two profiles of the *same* application shard.

        Profiles from different apps never merge: their block indices
        live in unrelated CFGs, so blending them silently would produce
        a plausible-looking but meaningless profile.  Merging across
        inputs of one app is legitimate (multi-input training) but must
        be requested explicitly with ``allow_mixed_inputs=True``; the
        merged label records both inputs.
        """
        if other.app_name != self.app_name:
            raise ProfileError(
                f"cannot merge profiles from different apps: "
                f"{self.app_name!r} vs {other.app_name!r}"
            )
        if self.input_label == other.input_label:
            label = self.input_label
        elif allow_mixed_inputs:
            label = f"{self.input_label}+{other.input_label}"
        else:
            raise ProfileError(
                f"cannot merge profiles from different inputs "
                f"({self.input_label!r} vs {other.input_label!r}) without "
                "allow_mixed_inputs=True"
            )
        merged = MissProfile(self.app_name, label)
        for profile in (self, other):
            merged.samples.extend(profile.samples)
            for pc, samples in profile._samples_by_pc.items():
                merged._samples_by_pc[pc].extend(samples)
            merged.block_occurrences.update(profile.block_occurrences)
            merged.total_samples += profile.total_samples
        return merged

    def validate(self) -> None:
        """Raise ProfileError on internal inconsistency."""
        by_pc = sum(len(s) for s in self._samples_by_pc.values())
        if not by_pc == len(self.samples) == self.total_samples:
            raise ProfileError(
                f"sample count mismatch: {by_pc} by PC, {len(self.samples)} "
                f"in arrival order, {self.total_samples} counted"
            )
