"""Confluence (Kaynak et al., MICRO 2015) — modelled per §2.3.

Confluence's AirBTB reorganizes the BTB at cache-line granularity and
keeps it in sync with the I-cache: whenever an instruction line is
fetched or prefetched, all branches in it are predecoded and installed;
when a line's BTB residency is evicted, its branch entries go with it.
Line-level prefetching is driven by a SHIFT-style temporal stream
engine: a circular history of L1i miss lines plus an index from line to
its last history position; a miss replays the following lines of the
recorded stream.

Temporal streaming can only cover *recurring* streams (Fig 10) — new
and non-repetitive miss sequences get no prefetches, which is the
coverage gap the paper measures.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..config import SimConfig
from ..workloads.cfg import KIND_FROM_CODE, Workload
from .base import BTBSystem, LOOKUP_COVERED, LOOKUP_HIT, LOOKUP_MISS

# AirBTB is kept in sync with the I-cache, so its reach is bounded by
# I-cache-scale line residency.  This coupling is the design's key
# weakness (§5: "locking the I-cache and BTB contents limits the
# runahead ability").  The paper ports Confluence to variable-length
# x86, where a 64B line holds more branches; we provision 4x the L1i's
# 512 lines for that port, which is still far below the unified
# baseline's 8K-entry reach.
DEFAULT_LINE_CAPACITY = 2048
# SHIFT parameters: history length and replay depth.  SHIFT virtualizes
# its stream metadata into the LLC (the paper calls it
# "metadata-expensive"), so a replay must first read the stream from L2/
# L3 before the prefetched lines' entries can be installed.
DEFAULT_HISTORY_LEN = 32768
DEFAULT_REPLAY_DEPTH = 2
REPLAY_METADATA_LATENCY = 24


class ConfluenceBTBSystem(BTBSystem):
    """AirBTB + SHIFT temporal instruction streaming."""

    name = "confluence"

    def __init__(
        self,
        workload: Workload,
        config: Optional[SimConfig] = None,
        line_capacity: int = DEFAULT_LINE_CAPACITY,
        history_len: int = DEFAULT_HISTORY_LEN,
        replay_depth: int = DEFAULT_REPLAY_DEPTH,
    ):
        self.workload = workload
        self.config = config if config is not None else SimConfig()
        self.line_bytes = workload.line_bytes
        self.line_capacity = line_capacity
        # AirBTB: LRU over lines; per line, a map from branch PC to
        # [used_flag, visible_cycle].  Entries predecoded from a line
        # become usable only once the line fetch completes.
        self._lines: "OrderedDict[int, Dict[int, list]]" = OrderedDict()
        # SHIFT: circular miss-line history + index of last occurrence.
        self._history: List[int] = []
        self._history_len = history_len
        self._index: Dict[int, int] = {}
        self._replay_depth = replay_depth
        self._issued = 0
        self._used = 0
        self._san = None

    def attach_sanitizer(self, sanitizer) -> None:
        """AirBTB is dict-based; check its line-capacity bound directly."""
        self._san = sanitizer

    # ------------------------------------------------------------------
    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        line = pc // self.line_bytes
        entry_map = self._lines.get(line)
        if entry_map is None:
            return LOOKUP_MISS
        entry = entry_map.get(pc)
        if entry is None or entry[1] > now:
            # Absent, or the predecode has not completed yet.
            return LOOKUP_MISS
        self._lines.move_to_end(line)
        if not entry[0]:
            entry[0] = True
            self._used += 1
            return LOOKUP_COVERED
        return LOOKUP_HIT

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        # Demand fill installs the whole line, AirBTB-style, but the
        # demanded branch itself is not a "prefetch" and is immediately
        # visible (the resteer already paid for decode).
        line = pc // self.line_bytes
        self._install_line(line, now, demanded_pc=pc)

    # ------------------------------------------------------------------
    def on_line_fetched(self, line: int, now: int) -> None:
        """An L1i line fetch was issued: predecode + SHIFT record/replay.

        ``now`` is the cycle the line *arrives*; predecoded entries
        become visible then, not at issue — a BPU that reaches the
        branch first still misses (the latency problem §3.1 describes).
        """
        self._install_line(line, now)
        # Record the miss into the stream history.
        pos = len(self._history)
        self._history.append(line)
        if pos >= self._history_len:
            # Simple wrap: drop the oldest half to bound memory.
            half = self._history_len // 2
            self._history = self._history[half:]
            self._index = {
                ln: p - half for ln, p in self._index.items() if p >= half
            }
            pos = len(self._history) - 1
        last_pos = self._index.get(line)
        self._index[line] = pos
        # Replay the recorded successor lines of the previous occurrence.
        if last_pos is not None:
            hist = self._history
            ready = now + REPLAY_METADATA_LATENCY
            for j in range(last_pos + 1, min(last_pos + 1 + self._replay_depth, len(hist))):
                self._install_line(hist[j], ready)

    # ------------------------------------------------------------------
    def _install_line(self, line: int, visible: float, demanded_pc: Optional[int] = None) -> None:
        entry_map = self._lines.get(line)
        if entry_map is not None:
            self._lines.move_to_end(line)
            if demanded_pc is not None and demanded_pc in entry_map:
                entry_map[demanded_pc][0] = True
                entry_map[demanded_pc][1] = 0.0
            return
        branch_pc = self.workload.branch_pc
        entry_map = {}
        for b in self.workload.line_branches.get(line, ()):
            pc = branch_pc[b]
            demanded = demanded_pc is not None and pc == demanded_pc
            entry_map[pc] = [demanded, 0.0 if demanded else visible]
            if not demanded:
                self._issued += 1
        if len(self._lines) >= self.line_capacity:
            self._lines.popitem(last=False)
        self._lines[line] = entry_map
        if self._san is not None:
            self._san.checks += 1
            if len(self._lines) > self.line_capacity:
                self._san.fail(
                    "confluence.airbtb",
                    f"{len(self._lines)} resident lines exceed capacity "
                    f"{self.line_capacity}",
                )

    # ------------------------------------------------------------------
    def prefetches_issued(self) -> int:
        return self._issued

    def prefetches_used(self) -> int:
        return self._used
