"""Shotgun (Kumar et al., ASPLOS 2018) — modelled per §2.3 of the paper.

Shotgun statically partitions the BTB into a large unconditional BTB
(U-BTB, 5120 entries) and a small conditional BTB (C-BTB, 1536
entries).  Each U-BTB entry additionally remembers the *spatial
footprint* of its target region — the I-cache lines touched after the
last execution of that unconditional branch, limited to a window of 8
cache lines from the target.  On a U-BTB hit, Shotgun prefetches the
recorded lines and predecodes them, installing the conditional
branches found there into the C-BTB.

The two structural limitations the paper calls out fall out of this
model directly: the fixed U-BTB/C-BTB split wastes or starves capacity
depending on the app's unconditional working set (Fig 11), and
conditionals beyond the 8-line window are never prefetched (Fig 12).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import BTBConfig, SimConfig
from ..frontend.btb import BTB
from ..isa.branches import BranchKind
from ..workloads.cfg import (
    KIND_COND,
    KIND_FROM_CODE,
    Workload,
)
from .base import BTBSystem, LOOKUP_COVERED, LOOKUP_HIT, LOOKUP_MISS

# Paper-quoted Shotgun configuration.
UBTB_ENTRIES = 5120
CBTB_ENTRIES = 1536
SPATIAL_RANGE_LINES = 8
# Cycles between a U-BTB-hit-triggered prefetch and the predecoded
# C-BTB entries becoming usable: fast when the target lines already sit
# in the L1i, a full L2 fetch otherwise (the latency problem §3.1 pins
# on hardware predecoders).
PREDECODE_LATENCY_RESIDENT = 3
PREDECODE_LATENCY_MISS = 16


class ShotgunBTBSystem(BTBSystem):
    """Partitioned BTB with spatial-footprint-driven C-BTB prefetch."""

    name = "shotgun"

    def __init__(
        self,
        workload: Workload,
        config: Optional[SimConfig] = None,
        ubtb_entries: int = UBTB_ENTRIES,
        cbtb_entries: int = CBTB_ENTRIES,
        spatial_range: int = SPATIAL_RANGE_LINES,
    ):
        self.workload = workload
        self.config = config if config is not None else SimConfig()
        # 5120 = 5 ways x 1024 sets; 1536 = 6 ways x 256 sets.
        self.ubtb = BTB(_geometry(ubtb_entries))
        self.cbtb = BTB(_geometry(cbtb_entries))
        self.spatial_range = spatial_range
        self.line_bytes = workload.line_bytes
        # Per-unconditional-branch recorded footprint: pc -> tuple of lines.
        self._footprints: Dict[int, Tuple[int, ...]] = {}
        # Recording state: lines touched since the last unconditional.
        self._recording_pc: Optional[int] = None
        self._recording_target_line: int = 0
        self._recording: list = []
        self.predecode_inserts = 0
        # Attached by the simulator so predecode latency can depend on
        # L1i residency of the target lines.
        self.hierarchy = None

    def attach_hierarchy(self, hierarchy) -> None:
        self.hierarchy = hierarchy

    # ------------------------------------------------------------------
    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        if kind_code == KIND_COND:
            entry = self.cbtb.lookup(pc)
            if entry is None:
                return LOOKUP_MISS
            if entry.visible_cycle > now:
                # Predecode in flight: the entry arrives too late.
                return LOOKUP_MISS
            return LOOKUP_COVERED if entry.from_prefetch and entry.useful else LOOKUP_HIT
        entry = self.ubtb.lookup(pc)
        if entry is None:
            return LOOKUP_MISS
        self._prefetch_from(pc, entry.target, now)
        return LOOKUP_HIT

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        kind = KIND_FROM_CODE[kind_code]
        if kind_code == KIND_COND:
            self.cbtb.insert(pc, target, kind)
        else:
            self.ubtb.insert(pc, target, kind)

    # ------------------------------------------------------------------
    def on_taken_branch(self, pc: int, target: int, kind_code: int, now: int) -> None:
        if kind_code == KIND_COND:
            return
        # An unconditional executed: close the previous recording and
        # start a new one rooted at this branch's target region.
        if self._recording_pc is not None:
            self._footprints[self._recording_pc] = tuple(self._recording)
        self._recording_pc = pc
        self._recording_target_line = target // self.line_bytes
        self._recording = []

    def on_line_fetched(self, line: int, now: int) -> None:
        if self._recording_pc is None:
            return
        base = self._recording_target_line
        # Only lines within the spatial window are recordable (Fig 12).
        if base <= line < base + self.spatial_range and line not in self._recording:
            if len(self._recording) < self.spatial_range:
                self._recording.append(line)

    # ------------------------------------------------------------------
    def _prefetch_from(self, uncond_pc: int, target: int, now: int = 0) -> None:
        """U-BTB hit: predecode the target region into the C-BTB.

        The recorded footprint (lines that actually missed after the
        last execution) takes priority; the remainder of the static
        spatial window is predecoded as well, modelling Shotgun's
        predecode of the prefetched target region.  Either way, nothing
        beyond ``spatial_range`` lines from the target is reachable.
        """
        wl = self.workload
        line_branches = wl.line_branches
        kind_code = wl.kind_code
        branch_pc = wl.branch_pc
        base_line = target // self.line_bytes
        footprint = self._footprints.get(uncond_pc, ())
        lines = set(footprint)
        lines.update(range(base_line, base_line + self.spatial_range))
        l1 = self.hierarchy.l1i if self.hierarchy is not None else None
        for line in lines:
            if not (base_line <= line < base_line + self.spatial_range):
                continue
            latency = (
                PREDECODE_LATENCY_RESIDENT
                if l1 is not None and l1.contains(line)
                else PREDECODE_LATENCY_MISS
            )
            for b in line_branches.get(line, ()):
                if kind_code[b] == KIND_COND:
                    pc = branch_pc[b]
                    if self.cbtb.peek(pc) is None:
                        self.cbtb.insert(
                            pc,
                            wl.branch_target[b],
                            BranchKind.COND_DIRECT,
                            from_prefetch=True,
                            visible_cycle=now + latency,
                        )
                        self.predecode_inserts += 1

    # ------------------------------------------------------------------
    def prefetches_issued(self) -> int:
        return self.cbtb.prefetch_fills

    def prefetches_used(self) -> int:
        return self.cbtb.prefetch_hits

    def storage_entries(self) -> Tuple[int, int]:
        """(U-BTB, C-BTB) configured entry counts, for reports."""
        return self.ubtb.config.entries, self.cbtb.config.entries


def _geometry(entries: int) -> BTBConfig:
    """Pick a (ways, sets) split whose set count is a power of two."""
    for ways in (4, 5, 6, 8, 3, 2, 12, 16, 1):
        if entries % ways:
            continue
        sets = entries // ways
        if sets & (sets - 1) == 0:
            return BTBConfig(entries=entries, ways=ways)
    raise ValueError(f"cannot find a power-of-two set split for {entries} entries")
