"""Branch reuse-distance analysis.

The BTB is an LRU-managed cache of branches, so whether a branch hits
is determined by its *stack distance*: the number of distinct branches
referenced since its previous execution.  A distance histogram
therefore predicts the miss rate of ANY capacity: misses(C) = number
of references with distance >= C — which is how the workload generator
was validated against the paper's Fig 5 capacity curve.

The implementation uses the classic Bennett-Kruskal structure: a
Fenwick tree over reference timestamps, O(log n) per reference.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from ..trace.events import Trace
from ..workloads.cfg import DIRECT_KIND_CODES, Workload


class _Fenwick:
    """Binary indexed tree with point update and prefix sum."""

    def __init__(self, n: int):
        self._tree = [0] * (n + 1)
        self._n = n

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        i += 1
        s = 0
        while i > 0:
            s += self._tree[i]
            i -= i & (-i)
        return s


INFINITE = -1  # distance marker for first-ever references


def reuse_distances(references: Sequence[int]) -> List[int]:
    """LRU stack distance of every reference (INFINITE for first touch).

    ``references`` is any hashable-item sequence; distances count the
    *distinct* items seen since the previous occurrence of each item.
    """
    n = len(references)
    tree = _Fenwick(n)
    last_pos: Dict[int, int] = {}
    out: List[int] = []
    for i, item in enumerate(references):
        prev = last_pos.get(item)
        if prev is None:
            out.append(INFINITE)
        else:
            # Distinct items touched in (prev, i): live markers there.
            distance = tree.prefix_sum(i - 1) - tree.prefix_sum(prev)
            out.append(distance)
            tree.add(prev, -1)
        tree.add(i, 1)
        last_pos[item] = i
    return out


def taken_branch_references(workload: Workload, trace: Trace) -> List[int]:
    """Branch-PC reference stream of taken direct branches."""
    kind_code = workload.kind_code
    branch_pc = workload.branch_pc
    return [
        branch_pc[blk]
        for blk, taken in zip(trace.blocks, trace.takens)
        if taken and kind_code[blk] in DIRECT_KIND_CODES
    ]


def miss_rate_for_capacity(distances: Sequence[int], capacity: int) -> float:
    """Predicted fully-associative LRU miss rate at *capacity* entries."""
    if not distances:
        return 0.0
    misses = sum(1 for d in distances if d == INFINITE or d >= capacity)
    return misses / len(distances)


def distance_histogram(
    distances: Sequence[int],
    bucket_edges: Sequence[int] = (64, 256, 1024, 4096, 16384, 65536),
) -> Dict[str, int]:
    """Bucketed histogram of finite distances plus a cold-miss bucket."""
    edges = sorted(bucket_edges)
    labels = ["<" + str(edges[0])]
    for lo, hi in zip(edges, edges[1:]):
        labels.append(f"{lo}-{hi}")
    labels.append(f">={edges[-1]}")
    counts = {label: 0 for label in labels}
    counts["cold"] = 0
    for d in distances:
        if d == INFINITE:
            counts["cold"] += 1
            continue
        idx = bisect_right(edges, d)
        counts[labels[idx]] += 1
    return counts


def btb_miss_curve(
    workload: Workload,
    trace: Trace,
    capacities: Iterable[int] = (2048, 4096, 8192, 16384, 32768, 65536),
    skip: int = 0,
) -> List[Tuple[int, float]]:
    """(capacity, predicted miss rate) from one distance computation.

    A single O(n log n) pass yields the miss rate at *every* capacity —
    vastly cheaper than replaying a BTB per point, and the analytical
    backbone of the Fig 5 / Fig 23 capacity story.
    """
    refs = taken_branch_references(workload, trace)
    distances = reuse_distances(refs)[skip:]
    return [(c, miss_rate_for_capacity(distances, c)) for c in sorted(capacities)]
