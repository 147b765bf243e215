"""Branch Target Buffer models.

The main :class:`BTB` is a set-associative, LRU-replaced structure
keyed by branch PC, matching the paper's baseline (8192 entries,
4-way).  :class:`FullyAssociativeBTB` backs the 3C miss classification
and :class:`IdealBTB` backs the limit study.

The implementation keeps one ``OrderedDict`` per set: Python's ordered
dict gives O(1) LRU via ``move_to_end``/``popitem``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..config import BTBConfig
from ..isa.branches import BranchKind


@dataclass
class BTBEntry:
    """One BTB entry: branch PC, predicted target, and branch kind.

    ``from_prefetch`` marks entries installed by a prefetcher rather
    than by demand fill; it backs the prefetch-accuracy accounting
    (Fig 19).
    """

    pc: int
    target: int
    kind: BranchKind
    from_prefetch: bool = False
    useful: bool = False  # set when a prefetched entry serves a lookup
    # Cycle at which a prefetched entry becomes usable (predecode must
    # wait for the line fetch); 0 = immediately visible.
    visible_cycle: float = 0.0


class BTB:
    """Set-associative LRU branch target buffer."""

    def __init__(self, config: Optional[BTBConfig] = None):
        self.config = config if config is not None else BTBConfig()
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.config.sets)
        ]
        self._set_mask = self.config.sets - 1
        self._ways = self.config.ways
        # Counters.
        self.lookups = 0
        self.hits = 0
        self.demand_fills = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0  # lookups served by a prefetched entry
        self.evictions = 0
        # Optional runtime sanitizer (repro.validate.invariants); None
        # keeps the hot path branch-cheap.
        self._san = None

    def attach_sanitizer(self, sanitizer) -> None:
        """Enable invariant checks at every mutation of this BTB."""
        self._san = sanitizer

    # ------------------------------------------------------------------
    def _set_of(self, pc: int) -> OrderedDict:
        return self._sets[pc & self._set_mask]

    def lookup(self, pc: int) -> Optional[BTBEntry]:
        """Look up *pc*; updates LRU and hit/miss counters."""
        self.lookups += 1
        entries = self._set_of(pc)
        entry = entries.get(pc)
        if entry is None:
            return None
        entries.move_to_end(pc)
        self.hits += 1
        if entry.from_prefetch and not entry.useful:
            entry.useful = True
            self.prefetch_hits += 1
        return entry

    def peek(self, pc: int) -> Optional[BTBEntry]:
        """Check residency without touching LRU state or counters."""
        return self._set_of(pc).get(pc)

    def insert(
        self,
        pc: int,
        target: int,
        kind: BranchKind,
        from_prefetch: bool = False,
        visible_cycle: float = 0.0,
    ) -> Optional[BTBEntry]:
        """Install or refresh an entry, evicting LRU if the set is full.

        Returns the evicted victim entry (None when nothing was
        displaced) so differential oracles can compare replacement
        decisions, not just hit/miss outcomes.
        """
        set_index = pc & self._set_mask
        entries = self._sets[set_index]
        existing = entries.get(pc)
        if existing is not None:
            existing.target = target
            if not from_prefetch:
                existing.visible_cycle = 0.0
            entries.move_to_end(pc)
            if self._san is not None:
                self._san.check_btb_set(self, set_index)
            return None
        victim = None
        if len(entries) >= self._ways:
            _, victim = entries.popitem(last=False)
            self.evictions += 1
        entries[pc] = BTBEntry(
            pc=pc,
            target=target,
            kind=kind,
            from_prefetch=from_prefetch,
            visible_cycle=visible_cycle,
        )
        if from_prefetch:
            self.prefetch_fills += 1
        else:
            self.demand_fills += 1
        if self._san is not None:
            self._san.check_btb_set(self, set_index)
        return victim

    def invalidate(self, pc: int) -> bool:
        """Remove the entry for *pc*; True if it was present."""
        entries = self._set_of(pc)
        return entries.pop(pc, None) is not None

    def __contains__(self, pc: int) -> bool:
        return pc in self._set_of(pc)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset_counters(self) -> None:
        self.lookups = self.hits = 0
        self.demand_fills = self.prefetch_fills = self.prefetch_hits = 0
        self.evictions = 0


class FullyAssociativeBTB:  # staticcheck: disable=L107 (analysis-only model, never simulated under sanitizers)
    """Fully-associative LRU BTB of a given capacity.

    Used by the 3C classifier: a miss here with the PC previously seen
    is a capacity miss; a hit here that misses in the set-associative
    BTB of equal capacity is a conflict miss.
    """

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = entries
        self._entries: OrderedDict = OrderedDict()
        self._ever_seen: set = set()

    def access(self, pc: int) -> bool:
        """Touch *pc*; returns True on hit (and refreshes LRU)."""
        if pc in self._entries:
            self._entries.move_to_end(pc)
            return True
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[pc] = True
        self._ever_seen.add(pc)
        return False

    def seen_before(self, pc: int) -> bool:
        """True if *pc* was ever inserted (distinguishes compulsory)."""
        return pc in self._ever_seen


class IdealBTB:  # staticcheck: disable=L107 (limit-study stand-in with no evictable state)
    """A BTB that never misses: limit-study stand-in (§2.1).

    Keeps lookup counters so speedup accounting stays uniform.
    """

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0

    def lookup(self, pc: int) -> bool:
        self.lookups += 1
        self.hits += 1
        return True

    @property
    def misses(self) -> int:
        return 0
