"""Injection-site selection (§3.1, Fig 13).

For every branch PC with sampled BTB misses, the analysis walks the
LBR windows and scores each predecessor basic block by the conditional
probability that a miss at the branch follows an execution of that
block, considering only predecessors that lead the miss by at least
the *prefetch distance* (timeliness).  The highest-probability block
above the confidence floor becomes the injection site; windows that
block does not cover may be assigned to further sites, greedily, until
coverage stops improving.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import TwigConfig
from ..profiling.profile import MissProfile


@dataclass(frozen=True)
class CandidateSelection:
    """The chosen injection sites for one missing branch PC."""

    miss_pc: int
    miss_block: int
    # (injection block, conditional probability, samples covered)
    sites: Tuple[Tuple[int, float, int], ...]
    total_samples: int

    @property
    def covered_samples(self) -> int:
        return sum(covered for _, _, covered in self.sites)

    def coverage(self) -> float:
        if not self.total_samples:
            return 0.0
        return self.covered_samples / self.total_samples


def _timely_blocks(window, prefetch_distance: float) -> List[int]:
    """Blocks in *window* that precede the miss by >= prefetch_distance.

    Window entries are (block, cycles-before-miss), oldest first.
    """
    return [blk for blk, lead in window if lead >= prefetch_distance]


def select_injection_sites(
    profile: MissProfile,
    config: Optional[TwigConfig] = None,
    max_sites_per_miss: int = 3,
) -> List[CandidateSelection]:
    """Run Fig 13's analysis over every profiled miss PC.

    Returns one :class:`CandidateSelection` per miss PC that has at
    least ``config.min_miss_samples`` samples and at least one site
    meeting the confidence floor.
    """
    cfg = config if config is not None else TwigConfig()
    selections: List[CandidateSelection] = []
    block_totals = profile.block_occurrences

    for miss_pc in profile.miss_pcs():
        samples = profile.samples_for(miss_pc)
        if len(samples) < cfg.min_miss_samples:
            continue

        # For each candidate block: in how many windows does it appear
        # timely?  (A block appearing twice in one window counts once —
        # one prefetch from it covers that one miss.)
        timely_windows: Dict[int, Set[int]] = defaultdict(set)
        for wi, sample in enumerate(samples):
            # Order-insensitive sink: only set membership is accumulated.
            for blk in set(_timely_blocks(sample.window, cfg.prefetch_distance)):  # staticcheck: disable=L103
                timely_windows[blk].add(wi)

        if not timely_windows:
            continue

        # Greedy cover: repeatedly take the block with the highest
        # conditional probability among windows still uncovered.
        uncovered: Set[int] = set(range(len(samples)))
        sites: List[Tuple[int, float, int]] = []
        while uncovered and len(sites) < max_sites_per_miss:
            best_blk = -1
            best_prob = 0.0
            best_gain: Set[int] = set()
            for blk, windows in timely_windows.items():
                gain = windows & uncovered
                if not gain:
                    continue
                total = block_totals.get(blk, 0)
                if total <= 0:
                    continue
                prob = len(windows) / total
                # Prefer higher probability; break ties on coverage gain.
                if prob > best_prob or (
                    prob == best_prob and len(gain) > len(best_gain)
                ):
                    best_blk = blk
                    best_prob = prob
                    best_gain = gain
            if best_blk < 0 or best_prob < cfg.min_confidence:
                break
            sites.append((best_blk, best_prob, len(best_gain)))
            uncovered -= best_gain

        if sites:
            selections.append(
                CandidateSelection(
                    miss_pc=miss_pc,
                    miss_block=samples[0].miss_block,
                    sites=tuple(sites),
                    total_samples=len(samples),
                )
            )
    return selections


def conditional_probability_table(
    profile: MissProfile, miss_pc: int, prefetch_distance: float
) -> List[Tuple[int, int, int, float]]:
    """The Fig 13b table for one miss PC.

    Returns rows of (block, total_executed, timely_covered, probability),
    sorted by descending probability — exactly the worked example's
    columns, for the documentation walkthrough and tests.
    """
    samples = profile.samples_for(miss_pc)
    covered: Counter = Counter()
    for sample in samples:
        # Order-insensitive sink: Counter increments commute.
        for blk in set(_timely_blocks(sample.window, prefetch_distance)):  # staticcheck: disable=L103
            covered[blk] += 1
    rows = []
    for blk, n_cov in covered.items():
        total = profile.block_occurrences.get(blk, 0)
        if total > 0:
            rows.append((blk, total, n_cov, n_cov / total))
    rows.sort(key=lambda r: -r[3])
    return rows
