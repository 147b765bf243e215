"""Offset CDFs (Figs 14/15).

For every BTB miss with a chosen injection site, compute the number of
signed bits required to encode the prefetch-to-branch and the
branch-to-target offsets, then express the results as a cumulative
distribution over misses.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Sequence, Tuple

from ..core.candidates import CandidateSelection
from ..isa.branches import bits_for_offset
from ..workloads.cfg import Workload


def offset_cdf(values: Iterable[int], max_bits: int = 48) -> List[Tuple[int, float]]:
    """CDF of required signed-bit widths for *values* (offsets).

    Returns (bits, cumulative fraction) for bits in [1, max_bits].
    """
    widths = Counter()
    total = 0
    for v in values:
        widths[min(bits_for_offset(v), max_bits)] += 1
        total += 1
    out: List[Tuple[int, float]] = []
    cum = 0
    for bits in range(1, max_bits + 1):
        cum += widths.get(bits, 0)
        out.append((bits, cum / total if total else 0.0))
    return out


def cdf_at(cdf: Sequence[Tuple[int, float]], bits: int) -> float:
    """Cumulative fraction covered at *bits* (0.0 below the first point)."""
    best = 0.0
    for b, frac in cdf:
        if b <= bits:
            best = frac
        else:
            break
    return best


def injection_offsets(
    workload: Workload, selections: Sequence[CandidateSelection]
) -> Tuple[List[int], List[int]]:
    """(prefetch-to-branch, branch-to-target) offsets over all misses.

    Each selection contributes one offset pair per (site, miss),
    weighted by the samples the site covers — matching the figures'
    per-miss CDFs.
    """
    block_start = workload.block_start
    branch_target = workload.branch_target
    to_branch: List[int] = []
    to_target: List[int] = []
    for sel in selections:
        target = branch_target[sel.miss_block]
        for inject_block, _prob, covered in sel.sites:
            inject_pc = block_start[inject_block]
            weight = max(1, covered)
            to_branch.extend([sel.miss_pc - inject_pc] * weight)
            to_target.extend([target - sel.miss_pc] * weight)
    return to_branch, to_target
