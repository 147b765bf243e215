"""Branch working-set measurements (Figs 5/6 input, Fig 11, Fig 12)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..trace.events import Trace
from ..workloads.cfg import (
    KIND_CALL,
    KIND_COND,
    KIND_UNCOND,
    Workload,
)


def working_set_curve(
    workload: Workload, trace: Trace, sample_points: Sequence[int]
) -> List[Tuple[int, int]]:
    """Unique taken-direct branch count after each sample point (units)."""
    kind_code = workload.kind_code
    seen = set()
    out: List[Tuple[int, int]] = []
    points = sorted(sample_points)
    pi = 0
    for i, (blk, taken) in enumerate(zip(trace.blocks, trace.takens)):
        if taken and kind_code[blk] in (KIND_COND, KIND_UNCOND, KIND_CALL):
            seen.add(blk)
        while pi < len(points) and i + 1 >= points[pi]:
            out.append((points[pi], len(seen)))
            pi += 1
    while pi < len(points):
        out.append((points[pi], len(seen)))
        pi += 1
    return out


def unconditional_working_set(workload: Workload, trace: Trace) -> int:
    """Unique executed unconditional branches and calls (Fig 11).

    Fig 11 compares this against Shotgun's 5120-entry U-BTB: apps above
    it thrash the U-BTB partition; apps far below waste it.
    """
    kind_code = workload.kind_code
    seen = set()
    for blk, taken in zip(trace.blocks, trace.takens):
        if taken and kind_code[blk] in (KIND_UNCOND, KIND_CALL):
            seen.add(blk)
    return len(seen)


def conditional_working_set(workload: Workload, trace: Trace) -> int:
    """Unique executed conditional branches."""
    kind_code = workload.kind_code
    return len(
        {
            blk
            for blk in set(trace.blocks)
            if kind_code[blk] == KIND_COND
        }
    )


def spatial_range_fraction(
    workload: Workload, trace: Trace, range_lines: int = 8
) -> float:
    """Fraction of conditional executions outside Shotgun's reach (Fig 12).

    A conditional branch is *inside* the spatial range if it lies within
    ``range_lines`` cache lines of the most recent taken unconditional
    branch's target; Shotgun can never prefetch the rest.
    """
    kind_code = workload.kind_code
    branch_pc = workload.branch_pc
    block_start = workload.block_start
    line_bytes = workload.line_bytes

    last_uncond_target_line = -(10**9)
    outside = 0
    total = 0
    blocks = trace.blocks
    takens = trace.takens
    n = len(blocks)
    for i in range(n):
        blk = blocks[i]
        kind = kind_code[blk]
        if kind == KIND_COND:
            total += 1
            line = branch_pc[blk] // line_bytes
            if not (
                last_uncond_target_line
                <= line
                < last_uncond_target_line + range_lines
            ):
                outside += 1
        elif takens[i] and kind in (KIND_UNCOND, KIND_CALL):
            if i + 1 < n:
                last_uncond_target_line = block_start[blocks[i + 1]] // line_bytes
    return outside / total if total else 0.0
