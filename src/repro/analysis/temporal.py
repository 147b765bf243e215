"""Temporal-stream classification of BTB misses (Fig 10).

Following the Wenisch-style taxonomy the paper cites, consecutive BTB
misses are grouped into *streams* (runs of misses close together in
the dynamic stream).  A stream is:

* **recurring** — its head-anchored sequence was observed before with
  the same successor misses (temporal streaming can replay it);
* **new** — its head was seen before but the successors differ;
* **non-repetitive** — its head has never missed before.

Temporal prefetchers (Confluence/Shotgun's record-and-replay machinery)
can only cover recurring streams, which is the structural limit the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import BTBConfig
from ..frontend.btb import BTB
from ..isa.branches import BranchKind
from ..trace.events import Trace
from ..workloads.cfg import Workload
from .threec import taken_direct_stream

# Misses further apart than this many taken-direct branches start a
# new stream.
DEFAULT_STREAM_GAP = 16
# Number of successor misses compared when deciding recurrence.
DEFAULT_STREAM_DEPTH = 4


@dataclass
class StreamBreakdown:
    """Miss counts by stream class."""

    recurring: int = 0
    new: int = 0
    non_repetitive: int = 0

    @property
    def total(self) -> int:
        return self.recurring + self.new + self.non_repetitive

    def fractions(self) -> Tuple[float, float, float]:
        """(recurring, new, non_repetitive) fractions of all misses."""
        if not self.total:
            return (0.0, 0.0, 0.0)
        t = self.total
        return (self.recurring / t, self.new / t, self.non_repetitive / t)


def miss_positions(
    workload: Workload, trace: Trace, config: Optional[BTBConfig] = None
) -> List[Tuple[int, int]]:
    """(position, pc) of every taken-direct BTB miss under *config*."""
    cfg = config if config is not None else BTBConfig()
    btb = BTB(cfg)
    out: List[Tuple[int, int]] = []
    for pos, pc in enumerate(taken_direct_stream(workload, trace)):
        if btb.lookup(pc) is None:
            out.append((pos, pc))
            btb.insert(pc, 0, BranchKind.UNCOND_DIRECT)
    return out


def classify_streams(
    workload: Workload,
    trace: Trace,
    config: Optional[BTBConfig] = None,
    stream_gap: int = DEFAULT_STREAM_GAP,
    depth: int = DEFAULT_STREAM_DEPTH,
    skip_fraction: float = 0.33,
) -> StreamBreakdown:
    """Classify every BTB miss into recurring / new / non-repetitive.

    Pairwise-successor criterion: a miss is *recurring* when it is the
    same successor that followed its predecessor miss the last time the
    predecessor missed (a temporal-stream prefetcher replaying from the
    predecessor would have prefetched it); *new* when the predecessor
    was seen before but followed by something else; *non-repetitive*
    when its predecessor PC has never anchored a recorded transition —
    which includes every stream-opening miss after a long quiet gap.
    """
    misses = miss_positions(workload, trace, config)
    breakdown = StreamBreakdown()
    if not misses:
        return breakdown

    # successor memory: predecessor miss pc -> last observed next pc.
    # The first ``skip_fraction`` of misses trains the memory without
    # being counted (cold-start transitions are an artifact of the
    # finite trace, not of the workload's stream structure).
    last_next: Dict[int, int] = {}
    prev_pc: Optional[int] = None
    prev_pos = -(10**9)
    skip_count = int(len(misses) * skip_fraction)
    for mi, (pos, pc) in enumerate(misses):
        if mi < skip_count:
            if prev_pc is not None and pos - prev_pos <= stream_gap:
                last_next[prev_pc] = pc
            prev_pc = pc
            prev_pos = pos
            continue
        if prev_pc is None or pos - prev_pos > stream_gap:
            # Stream head: judged by whether this pc ever anchored.
            if pc in last_next:
                breakdown.new += 1
            else:
                breakdown.non_repetitive += 1
        else:
            known = last_next.get(prev_pc)
            if known is None:
                breakdown.non_repetitive += 1
            elif known == pc:
                breakdown.recurring += 1
            else:
                breakdown.new += 1
            last_next[prev_pc] = pc
        prev_pc = pc
        prev_pos = pos
    return breakdown
