"""Exactness of the plan verifier's graph queries against reference oracles.

``BlockGraph.min_lead`` (a per-pair bidirectional bounded Dijkstra) must
equal the per-site heap Dijkstra it replaced, and ``ReachIndex`` over the
graph's cached SCC condensation must equal a fresh Tarjan pass — on
seeded random graphs built to hit the edge cases, and on the golden
plans of the two plan-service apps.
"""

from __future__ import annotations

import heapq
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

import pytest

from repro.config import SimConfig
from repro.core.twig import build_plan
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.profiling.collector import collect_profile
from repro.staticcheck import BlockGraph, verify_plan

_UNREACHED = 1 << 60
CAPS = (0, 1, 2, 20)


class EdgeGraph(BlockGraph):
    """A :class:`BlockGraph` over explicit edges and unit weights."""

    def __init__(self, successors: Sequence[Sequence[int]], units: Sequence[int]):
        self.n_blocks = len(successors)
        self.units = list(units)
        self.successors = [tuple(sorted(set(s))) for s in successors]
        self._index()


def reference_min_leads(
    graph: BlockGraph, site: int, targets: Set[int], cap: int
) -> Dict[int, int]:
    """The per-site heap Dijkstra the verifier used before ``min_lead``."""
    units = graph.units
    succ = graph.successors
    dist: Dict[int, int] = {site: 0}
    out: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = [(0, site)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, _UNREACHED):
            continue
        if u in targets and u not in out:
            out[u] = d
            if len(out) == len(targets):
                return out
        nd = d + units[u]
        if nd >= cap:
            continue
        for v in succ[u]:
            if nd < dist.get(v, _UNREACHED):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return out


def reference_reach(successors: Sequence[Tuple[int, ...]], targets: Sequence[int]):
    """Fresh Tarjan + bitmask DP: ``reaches(s, t)`` as a plain function."""
    n = len(successors)
    tbit = {t: k for k, t in enumerate(dict.fromkeys(targets))}
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    assigned = [False] * n
    comp = [-1] * n
    stack: List[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if assigned[root]:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                assigned[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            ss = successors[v]
            for j in range(pi, len(ss)):
                w = ss[j]
                if not assigned[w]:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    cmask = [0] * ncomp
    for t, k in tbit.items():
        cmask[comp[t]] |= 1 << k
    csucc: List[Set[int]] = [set() for _ in range(ncomp)]
    for v in range(n):
        for w in successors[v]:
            if comp[w] != comp[v]:
                csucc[comp[v]].add(comp[w])
    for c in range(ncomp):
        for d in sorted(csucc[c]):
            cmask[c] |= cmask[d]

    def reaches(source: int, target: int) -> bool:
        return bool((cmask[comp[source]] >> tbit[target]) & 1)

    return reaches


def random_graph(rng: random.Random, fan_out: bool) -> EdgeGraph:
    """A seeded graph with weights 1-3, sparse edges and isolated blocks.

    With *fan_out*, one block gets 100+ successors, the shape of the
    dispatch root and of a shared helper's return edges.
    """
    n = rng.randint(120, 180) if fan_out else rng.randint(1, 60)
    succ: List[List[int]] = [
        [rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))]
        for _ in range(n)
    ]
    if fan_out:
        hub = rng.randrange(n)
        succ[hub] = rng.sample(range(n), rng.randint(100, n))
        # ...and a block many others return to.
        sink = rng.randrange(n)
        for u in rng.sample(range(n), 100):
            succ[u].append(sink)
    return EdgeGraph(succ, [rng.randint(1, 3) for _ in range(n)])


def chain(units: Sequence[int]) -> EdgeGraph:
    n = len(units)
    return EdgeGraph([[i + 1] if i + 1 < n else [] for i in range(n)], units)


class TestMinLeadMatchesReference:
    def test_seeded_random_graphs(self):
        rng = random.Random(1307)
        seen = {"below_cap": 0, "cap_minus_1": 0, "at_cap": 0, "unreachable": 0}
        for trial in range(240):
            g = random_graph(rng, fan_out=trial % 4 == 0)
            n = g.n_blocks
            for site in rng.sample(range(n), min(n, 6)):
                targets = set(rng.sample(range(n), min(n, rng.randint(1, 8))))
                exact = reference_min_leads(g, site, targets, _UNREACHED)
                for cap in CAPS:
                    ref = reference_min_leads(g, site, targets, cap)
                    for t in sorted(targets):
                        assert g.min_lead(site, t, cap) == ref.get(t), (
                            trial, site, t, cap,
                        )
                        d = exact.get(t)
                        if t == site:
                            continue
                        if d is None:
                            seen["unreachable"] += 1
                        elif d == cap - 1:
                            seen["cap_minus_1"] += 1
                        elif d == cap:
                            seen["at_cap"] += 1
                        elif d < cap:
                            seen["below_cap"] += 1
        # The corpus must actually exercise every boundary it claims to.
        assert all(count > 20 for count in seen.values()), seen

    @pytest.mark.parametrize("cap", CAPS)
    def test_site_in_its_own_target_set(self, cap):
        g = chain([2, 2, 2])
        assert reference_min_leads(g, 1, {0, 1, 2}, cap).get(1) == 0
        assert g.min_lead(1, 1, cap) == 0

    def test_lead_just_below_and_exactly_at_cap(self):
        g = chain([3, 1, 2, 1, 1])
        # Lead 0 -> 4 is 3 + 1 + 2 + 1 = 7 fetch units.
        assert g.min_lead(0, 4, 8) == 7
        assert g.min_lead(0, 4, 7) is None
        assert reference_min_leads(g, 0, {4}, 8) == {4: 7}
        assert reference_min_leads(g, 0, {4}, 7) == {}

    def test_unreachable_target(self):
        g = EdgeGraph([[1], [0], [3], []], [1, 1, 1, 1])
        for cap in CAPS:
            assert g.min_lead(0, 3, cap) is None
            assert g.min_lead(3, 0, cap) is None

    def test_shortcut_found_past_a_fan_out(self):
        # 0 fans out to 120 blocks that all lead to 121; only block 7 is
        # cheap, so the exact lead is 1 + 1 = 2 despite the wide search.
        units = [1] + [5] * 120 + [1]
        units[7] = 1
        succ = [list(range(1, 121))] + [[121]] * 120 + [[]]
        g = EdgeGraph(succ, units)
        assert g.min_lead(0, 121, 20) == 2
        assert reference_min_leads(g, 0, {121}, 20) == {121: 2}


class TestReachIndexMatchesFreshTarjan:
    def test_seeded_random_graphs(self):
        rng = random.Random(2113)
        for trial in range(120):
            g = random_graph(rng, fan_out=trial % 4 == 0)
            n = g.n_blocks
            targets = rng.sample(range(n), min(n, rng.randint(1, 12)))
            fresh = reference_reach(g.successors, targets)
            index = g.reachable_targets(targets)
            for s in range(n):
                for t in targets:
                    assert index.reaches(s, t) == fresh(s, t), (trial, s, t)

    def test_tiny_workload(self, tiny_workload):
        g = BlockGraph(tiny_workload)
        targets = list(range(0, g.n_blocks, 7))
        fresh = reference_reach(g.successors, targets)
        index = g.reachable_targets(targets)
        for s in range(g.n_blocks):
            for t in targets:
                assert index.reaches(s, t) == fresh(s, t)


@pytest.mark.parametrize("app", ["wordpress", "drupal"])
def test_golden_plan_leads_match_reference(app):
    """Every (site, branch) pair the verifier checks, on a real plan."""
    cfg = SimConfig()
    runner = ExperimentRunner(
        RunnerSettings(trace_instructions=20_000, apps=(app,), sample_rate=1)
    )
    wl = runner.workload(app)
    plan = runner.plan(app, config=cfg)
    g = BlockGraph(wl, fetch_width_bytes=cfg.core.fetch_width_bytes)
    targets_by_site: Dict[int, Set[int]] = {}
    for ops in plan.ops_by_block.values():
        for op in ops:
            for pc, _, _ in op.entries:
                targets_by_site.setdefault(op.block, set()).add(g.block_of_pc(pc))
    cap = cfg.twig.prefetch_distance
    pairs = 0
    for site, targets in sorted(targets_by_site.items()):
        ref = reference_min_leads(g, site, targets, cap)
        for t in sorted(targets):
            assert g.min_lead(site, t, cap) == ref.get(t), (site, t)
            pairs += 1
    assert pairs > 200


def test_one_graph_serves_concurrent_verifications(tiny_workload, tiny_trace):
    """The service shares one graph across shard builds in executor
    threads: it is read-only after construction, so concurrent verifies
    must all equal a serial one."""
    cfg = SimConfig()
    plan = build_plan(tiny_workload, collect_profile(tiny_workload, tiny_trace, cfg), cfg)
    graph = BlockGraph(tiny_workload, fetch_width_bytes=cfg.core.fetch_width_bytes)
    expected = verify_plan(plan, tiny_workload, cfg, graph=graph)
    assert any(f.rule == "P107" for f in expected)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(verify_plan, plan, tiny_workload, cfg, graph)
                for _ in range(8)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)
