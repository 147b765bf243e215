"""Two-level bulk-preload BTB (Bonanno et al., HPCA 2013 — paper §5).

A small first-level BTB is backed by a large second-level table; a
miss to any branch in a fixed-size code *region* bulk-transfers every
second-level entry of that region into the first level.  The paper
classifies this as spatial-locality-only prefetching ("similar to the
next-line prefetchers"), which is exactly the behaviour that emerges:
misses to spatially clustered branches amortize, scattered misses
don't.

Model: L1 BTB = 2K entries (a quarter of the baseline's budget; the
remainder funds the L2 BTB's 16K entries), regions = 512B of code.
The L2 BTB fills on demand (a victim/inclusive mix keeps the model
simple); bulk transfers complete after an L2-BTB access latency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..config import BTBConfig, SimConfig
from ..frontend.btb import BTB
from ..workloads.cfg import KIND_FROM_CODE, Workload
from .base import BTBSystem, LOOKUP_COVERED, LOOKUP_HIT, LOOKUP_MISS

L1_ENTRIES = 2048
L2_ENTRIES = 16384
REGION_BYTES = 512
# Reading a region out of the second-level table takes a few cycles.
BULK_TRANSFER_LATENCY = 6


class BulkPreloadBTBSystem(BTBSystem):
    """First-level BTB + regioned second level with bulk preload."""

    name = "bulk_preload"

    def __init__(
        self,
        workload: Workload,
        config: Optional[SimConfig] = None,
        l1_entries: int = L1_ENTRIES,
        l2_entries: int = L2_ENTRIES,
        region_bytes: int = REGION_BYTES,
    ):
        self.workload = workload
        self.config = config if config is not None else SimConfig()
        self.l1 = BTB(BTBConfig(entries=l1_entries, ways=4))
        self.region_bytes = region_bytes
        # Second level: LRU of regions; each region maps pc -> (target, kind).
        self._l2: "OrderedDict[int, Dict[int, Tuple[int, int]]]" = OrderedDict()
        self._l2_capacity_regions = max(1, l2_entries // 8)
        self.bulk_transfers = 0
        self.l2_hits = 0

    def _region_of(self, pc: int) -> int:
        return pc // self.region_bytes

    # ------------------------------------------------------------------
    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        entry = self.l1.lookup(pc)
        if entry is not None:
            if entry.visible_cycle > now:
                return LOOKUP_MISS  # bulk transfer still in flight
            if entry.from_prefetch and not getattr(entry, "_counted", False):
                entry._counted = True  # type: ignore[attr-defined]
                return LOOKUP_COVERED
            return LOOKUP_HIT
        # L1 miss: if the region is second-level resident, bulk-preload
        # it (the demanded branch still resteers this time).
        region = self._l2.get(self._region_of(pc))
        if region is not None:
            self._l2.move_to_end(self._region_of(pc))
            self.l2_hits += 1
            self._bulk_fill(region, now)
        return LOOKUP_MISS

    def _bulk_fill(self, region: Dict[int, Tuple[int, int]], now: int) -> None:
        self.bulk_transfers += 1
        visible = now + BULK_TRANSFER_LATENCY
        for pc, (target, kind_code) in region.items():
            if self.l1.peek(pc) is None:
                self.l1.insert(
                    pc,
                    target,
                    KIND_FROM_CODE[kind_code],
                    from_prefetch=True,
                    visible_cycle=visible,
                )

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        self.l1.insert(pc, target, KIND_FROM_CODE[kind_code])
        region_id = self._region_of(pc)
        region = self._l2.get(region_id)
        if region is None:
            if len(self._l2) >= self._l2_capacity_regions:
                self._l2.popitem(last=False)
            region = {}
            self._l2[region_id] = region
        else:
            self._l2.move_to_end(region_id)
        region[pc] = (target, kind_code)

    # ------------------------------------------------------------------
    def prefetches_issued(self) -> int:
        return self.l1.prefetch_fills

    def prefetches_used(self) -> int:
        return self.l1.prefetch_hits
