"""Boomerang (Kumar et al., HPCA 2017) — §5's metadata-free baseline.

Boomerang keeps the conventional unified BTB but extends FDIP: every
I-cache line the frontend fetches or prefetches is run through a
predecoder, and the branches found in it are installed into the BTB.
No extra metadata structures exist (unlike Confluence's AirBTB sync or
Shotgun's footprints), which is why the paper calls it metadata-free —
and why its coverage depends entirely on the frontend running far
enough ahead: predecoded entries become visible only when the line
arrives, so a BPU that reaches the branch first still misses.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..frontend.btb import BTB
from ..frontend.prefetch_buffer import PrefetchBuffer
from ..workloads.cfg import DIRECT_KIND_CODES, KIND_FROM_CODE, Workload
from .base import BTBSystem, LOOKUP_COVERED, LOOKUP_HIT, LOOKUP_MISS

# Predecoding a fetched line takes a couple of cycles past arrival.
PREDECODE_EXTRA_LATENCY = 2


class BoomerangBTBSystem(BTBSystem):
    """Unified BTB + predecode-on-line-fill via the prefetch buffer."""

    name = "boomerang"

    def __init__(self, workload: Workload, config: Optional[SimConfig] = None):
        self.workload = workload
        self.config = config if config is not None else SimConfig()
        self.btb = BTB(self.config.frontend.btb)
        self.buffer = PrefetchBuffer(self.config.frontend.prefetch_buffer_entries)
        self.line_bytes = workload.line_bytes

    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        if self.btb.lookup(pc) is not None:
            return LOOKUP_HIT
        promoted = self.buffer.take(pc, now)
        if promoted is not None:
            target, kind = promoted
            self.btb.insert(pc, target, kind, from_prefetch=True)
            self.btb.prefetch_hits += 1
            return LOOKUP_COVERED
        return LOOKUP_MISS

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        self.btb.insert(pc, target, KIND_FROM_CODE[kind_code])

    def on_line_fetched(self, line: int, now: int) -> None:
        """Predecode the arriving line's branches into the buffer.

        ``now`` is the line's arrival cycle (FDIP issue + latency).
        """
        ready = now + PREDECODE_EXTRA_LATENCY
        wl = self.workload
        for b in wl.line_branches.get(line, ()):
            kc = wl.kind_code[b]
            pc = wl.branch_pc[b]
            if kc in DIRECT_KIND_CODES and self.btb.peek(pc) is None:
                self.buffer.insert(pc, wl.branch_target[b], KIND_FROM_CODE[kc], ready)

    def prefetches_issued(self) -> int:
        return self.buffer.inserts

    def prefetches_used(self) -> int:
        return self.buffer.promotions
