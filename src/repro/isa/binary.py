"""The Binary: an indexed collection of basic blocks.

A :class:`Binary` is the object view of a program: one
:class:`BasicBlock` (and :class:`Branch`) per block, with the lookups
a hardware predecoder would perform (branches per cache line) and the
lookups Twig's link-time pass performs (block containing an address,
branch at a PC).  Workloads are built and simulated as per-block
columns (:class:`~repro.workloads.cfg.Workload`); ``Workload.binary``
builds this view from them on request, for tests, examples and
analysis.  The predecoder baselines use the workload's own line index.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .blocks import BasicBlock, DEFAULT_LINE_BYTES
from .branches import Branch, BranchKind


class Binary:
    """Immutable container of a program's basic blocks.

    Blocks must be non-overlapping; they are indexed by block index,
    start address, branch PC, and cache line.
    """

    def __init__(self, blocks: Sequence[BasicBlock], line_bytes: int = DEFAULT_LINE_BYTES):
        if not blocks:
            raise WorkloadError("a binary must contain at least one basic block")
        self._blocks: Tuple[BasicBlock, ...] = tuple(
            sorted(blocks, key=lambda b: b.start)
        )
        self._line_bytes = line_bytes
        self._starts: List[int] = [b.start for b in self._blocks]
        self._by_start: Dict[int, BasicBlock] = {}
        self._branch_by_pc: Dict[int, Branch] = {}
        self._lines_to_branches: Dict[int, List[Branch]] = {}

        prev_end = -1
        for block in self._blocks:
            if block.start < prev_end:
                raise WorkloadError(
                    f"overlapping basic blocks at {block.start:#x} (previous ends {prev_end:#x})"
                )
            prev_end = block.end
            self._by_start[block.start] = block
            branch = block.branch
            if branch is not None:
                if branch.pc in self._branch_by_pc:
                    raise WorkloadError(f"duplicate branch pc {branch.pc:#x}")
                self._branch_by_pc[branch.pc] = branch
                self._lines_to_branches.setdefault(
                    branch.pc // line_bytes, []
                ).append(branch)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> BasicBlock:
        return self._blocks[index]

    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    @property
    def blocks(self) -> Tuple[BasicBlock, ...]:
        return self._blocks

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def block_at(self, start: int) -> BasicBlock:
        """Block whose first instruction is *start* (raises KeyError)."""
        return self._by_start[start]

    def block_containing(self, addr: int) -> Optional[BasicBlock]:
        """Block whose byte range contains *addr*, or None."""
        pos = bisect_right(self._starts, addr) - 1
        if pos < 0:
            return None
        block = self._blocks[pos]
        return block if block.contains(addr) else None

    def branch_at(self, pc: int) -> Optional[Branch]:
        """The branch instruction at *pc*, or None."""
        return self._branch_by_pc.get(pc)

    def branches(self) -> Iterator[Branch]:
        """All static branches, in ascending PC order."""
        for block in self._blocks:
            if block.branch is not None:
                yield block.branch

    def branches_in_line(self, line: int) -> Sequence[Branch]:
        """Predecode: every branch whose PC falls in cache line *line*."""
        return tuple(self._lines_to_branches.get(line, ()))

    def branches_in_lines(self, lines: Iterable[int]) -> List[Branch]:
        """Predecode a set of cache lines (order follows *lines*)."""
        found: List[Branch] = []
        for line in lines:
            found.extend(self._lines_to_branches.get(line, ()))
        return found

    # ------------------------------------------------------------------
    # Static statistics
    # ------------------------------------------------------------------
    def static_branch_count(self, kind: Optional[BranchKind] = None) -> int:
        """Number of static branches, optionally of a single kind."""
        if kind is None:
            return len(self._branch_by_pc)
        return sum(1 for b in self._branch_by_pc.values() if b.kind is kind)

    def text_bytes(self) -> int:
        """Total byte footprint of all blocks (the text segment size)."""
        return sum(b.size_bytes for b in self._blocks)

    def total_instructions(self) -> int:
        """Total static instruction count."""
        return sum(b.instructions for b in self._blocks)

    def address_span(self) -> Tuple[int, int]:
        """(lowest block start, highest block end)."""
        return self._blocks[0].start, self._blocks[-1].end
