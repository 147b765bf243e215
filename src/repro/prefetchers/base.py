"""BTB-system interface and the baseline implementation.

A :class:`BTBSystem` owns whatever BTB organization a design uses and
answers the simulator's lookups.  Lookup results are small ints so the
timing loop never allocates:

* ``LOOKUP_HIT``     — entry present, frontend follows the target;
* ``LOOKUP_COVERED`` — entry was absent but a prefetch supplied it in
  time (no resteer; counted as a covered miss);
* ``LOOKUP_MISS``    — real miss, frontend resteers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..config import SimConfig
from ..frontend.btb import BTB
from ..frontend.prefetch_buffer import PrefetchBuffer
from ..isa.branches import BranchKind

LOOKUP_MISS = 0
LOOKUP_HIT = 1
LOOKUP_COVERED = 2


class BTBSystem:
    """Interface between the timing simulator and a BTB organization."""

    name = "abstract"

    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        """Look up the taken direct branch at *pc* at cycle *now*."""
        raise NotImplementedError

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        """Demand-fill after a resteer resolved the branch."""
        raise NotImplementedError

    def attach_sanitizer(self, sanitizer) -> None:
        """Weave a runtime sanitizer through this system's structures.

        The default walks the conventional attribute names (``btb``,
        ``ubtb``, ``cbtb``, ``buffer``) so every system built from the
        standard frontend structures gets checks without opting in;
        systems with bespoke state override this.
        """
        for name in ("btb", "ubtb", "cbtb", "buffer"):
            structure = getattr(self, name, None)
            if structure is not None and hasattr(structure, "attach_sanitizer"):
                structure.attach_sanitizer(sanitizer)

    def on_taken_branch(self, pc: int, target: int, kind_code: int, now: int) -> None:
        """Training hook: every taken branch on the committed path."""

    def on_line_fetched(self, line: int, now: int) -> None:
        """Hook: an I-cache line arrived in the L1i (demand or FDIP)."""

    def on_block_fetched(self, block_index: int, now: int) -> Tuple[int, int]:
        """Hook: block fetched; returns (extra_instructions, n_prefetch_ops)
        executed for software prefetching at this block."""
        return (0, 0)

    @property
    def ops_blocks(self) -> frozenset:
        """Block indices carrying software prefetch ops (fast-path gate)."""
        return frozenset()

    def prefetches_issued(self) -> int:
        return 0

    def prefetches_used(self) -> int:
        return 0


class BaselineBTBSystem(BTBSystem):
    """Plain set-associative BTB, optionally with Twig software ops.

    With no ops installed this is the paper's FDIP baseline.  With a
    :class:`~repro.core.plan.PrefetchPlan` applied (see
    ``repro.core.twig``), ``on_block_fetched`` issues the plan's
    ``brprefetch``/``brcoalesce`` operations into the prefetch buffer.
    """

    name = "baseline"

    def __init__(self, config: Optional[SimConfig] = None, btb=None):
        self.config = config if config is not None else SimConfig()
        # An alternative BTB organization (e.g. the delta-compressed
        # CompressedBTB) may be supplied as long as it quacks like BTB.
        self.btb = btb if btb is not None else BTB(self.config.frontend.btb)
        self.buffer = PrefetchBuffer(self.config.frontend.prefetch_buffer_entries)
        # block index -> list of (branch_pc, target, kind_code) to prefetch,
        # plus the op's instruction overhead.
        self._ops: Dict[int, Tuple[Sequence[Tuple[int, int, int]], int, int]] = {}
        self._ops_blocks: frozenset = frozenset()
        self._fill_latency = self.config.twig.prefetch_execute_latency
        self._kind_cache: Dict[int, BranchKind] = {}

    # ------------------------------------------------------------------
    def install_ops(
        self, ops: Dict[int, Tuple[Sequence[Tuple[int, int, int]], int, int]]
    ) -> None:
        """Attach software prefetch ops.

        ``ops`` maps block index -> (entries, extra_instructions, n_ops)
        where each entry is (branch_pc, target, kind_code).
        """
        self._ops = ops
        self._ops_blocks = frozenset(ops.keys())

    @property
    def ops_blocks(self) -> frozenset:
        return self._ops_blocks

    # ------------------------------------------------------------------
    def lookup(self, pc: int, kind_code: int, now: int) -> int:
        if self.btb.lookup(pc) is not None:
            return LOOKUP_HIT
        promoted = self.buffer.take(pc, now)
        if promoted is not None:
            target, kind = promoted
            self.btb.insert(pc, target, kind, from_prefetch=True)
            # Promotion through the buffer is the prefetch serving a
            # lookup: account usefulness at the BTB level too.
            self.btb.prefetch_hits += 1
            return LOOKUP_COVERED
        return LOOKUP_MISS

    def fill(self, pc: int, target: int, kind_code: int, now: int) -> None:
        from ..workloads.cfg import KIND_FROM_CODE

        self.btb.insert(pc, target, KIND_FROM_CODE[kind_code])

    def on_block_fetched(self, block_index: int, now: int) -> Tuple[int, int]:
        entry = self._ops.get(block_index)
        if entry is None:
            return (0, 0)
        from ..workloads.cfg import KIND_FROM_CODE

        entries, extra_instr, n_ops = entry
        ready = now + self._fill_latency
        insert = self.buffer.insert
        for branch_pc, target, kind_code in entries:
            insert(branch_pc, target, KIND_FROM_CODE[kind_code], ready)
        return (extra_instr, n_ops)

    def prefetches_issued(self) -> int:
        return self.buffer.inserts

    def prefetches_used(self) -> int:
        return self.buffer.promotions
