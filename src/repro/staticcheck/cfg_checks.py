"""CFG-level static analysis: block graph, reachability, lead bounds.

:class:`BlockGraph` is the execution-successor relation of a generated
:class:`~repro.workloads.cfg.Workload`, the structure both the plan
verifier and the CFG sanity rules walk:

* direct branches contribute their taken target (+ fallthrough for
  conditionals and calls);
* indirect branches contribute their observable target set, except the
  dispatch root, which the trace walker drives over *every* handler
  (not just the 64 targets surfaced in ``alt_targets``);
* returns contribute context-insensitive return edges — every call
  site's fallthrough block of every caller of the returning function.

The graph over-approximates feasible execution paths, so
"*unreachable*" is a sound error: if no path exists from an injection
site to its branch, no execution can ever have put that site in the
branch's LBR window.

Everything that depends only on the graph is computed once, at
construction: the reverse adjacency (flat ``array('i')`` CSR), a
sorted terminator-pc index, and the Tarjan SCC condensation (component ids
plus a CSR of condensation edges).  The graph is immutable afterwards,
so one instance serves every plan of its workload, from any thread.

Reachability to the (typically ~10^3) branch blocks of a plan is then
one reachable-set bitmask DP over the condensation DAG — linear in
edges even for the ~300k-block verilator CFG.  Timeliness lower bounds
use an exact bidirectional bounded Dijkstra per (site, branch) pair
over per-block fetch-unit weights (each fetched unit costs at least one
BPU cycle, so the unit-weighted shortest path is a sound lower bound on
the cycle lead a prefetch can get along that path).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..workloads.cfg import (
    DIRECT_KIND_CODES,
    KIND_CALL,
    KIND_CALL_IND,
    KIND_COND,
    KIND_CODE,
    KIND_JUMP_IND,
    KIND_NONE,
    KIND_RETURN,
    KIND_UNCOND,
    Workload,
)
from .findings import Finding, Severity

_UNREACHED = 1 << 60


class BlockGraph:
    """Execution-successor graph of a workload's basic blocks."""

    def __init__(self, workload: Workload, fetch_width_bytes: int = 32):
        wl = workload
        n = wl.n_blocks
        self.n_blocks = n
        # Fetch units per block: the trace walker/simulator fetch one
        # ``fetch_width_bytes`` unit per BPU cycle at best.
        self.units: List[int] = [
            max(1, -(-size // fetch_width_bytes)) for size in wl.block_size
        ]
        # Terminator pcs in ascending order with their blocks, the
        # index behind :meth:`block_of_pc` (a dict would cost ~5x more).
        order = sorted(
            (i for i, pc in enumerate(wl.branch_pc) if pc >= 0),
            key=wl.branch_pc.__getitem__,
        )
        self._branch_pcs = array("q", [wl.branch_pc[i] for i in order])
        self._branch_blocks = array("i", order)
        # Block -> owning function index.
        func_of = [0] * n
        for f in wl.functions:
            for b in f.block_range:
                func_of[b] = f.index

        succ: List[Set[int]] = [set() for _ in range(n)]
        # Function -> fallthrough blocks of its call sites (return edges).
        call_returns: Dict[int, Set[int]] = {f.index: set() for f in wl.functions}
        root_dispatch = wl.functions[wl.root_function].first_block
        handler_entries = [wl.functions[h].first_block for h in wl.handler_indices]

        for i in range(n):
            kc = wl.kind_code[i]
            ft = i + 1 if i + 1 < n else None
            if kc == KIND_NONE:
                if ft is not None:
                    succ[i].add(ft)
            elif kc == KIND_COND:
                if wl.target_block[i] >= 0:
                    succ[i].add(wl.target_block[i])
                if ft is not None:
                    succ[i].add(ft)
            elif kc == KIND_UNCOND:
                if wl.target_block[i] >= 0:
                    succ[i].add(wl.target_block[i])
            elif kc in (KIND_CALL, KIND_CALL_IND):
                if i == root_dispatch and kc == KIND_CALL_IND:
                    # The dispatch loop draws from *all* handlers.
                    targets: Iterable[int] = handler_entries
                else:
                    targets = (
                        (wl.target_block[i],)
                        if kc == KIND_CALL
                        else wl.alt_target_blocks[i]
                    )
                for t in targets:
                    if t >= 0:
                        succ[i].add(t)
                        if ft is not None:
                            call_returns[func_of[t]].add(ft)
            elif kc == KIND_JUMP_IND:
                for t in wl.alt_target_blocks[i]:
                    if t >= 0:
                        succ[i].add(t)
        for i in range(n):
            if wl.kind_code[i] == KIND_RETURN:
                succ[i].update(call_returns[func_of[i]])
        self.successors: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in succ]
        del succ, call_returns, func_of
        self._index()

    def _index(self) -> None:
        """Precompute the graph-only structure ``successors`` implies."""
        n = self.n_blocks
        # Reverse adjacency as a flat CSR (a counting sort of the edges
        # by head): the predecessors of block v are
        # ``_pred[_pred_start[v]:_pred_start[v + 1]]``.  Per-block tuples
        # would cost megabytes and GC-tracked objects per app.
        counts = [0] * (n + 1)
        for ss in self.successors:
            for w in ss:
                counts[w + 1] += 1
        start = list(accumulate(counts))
        fill = start[:]
        pred = [0] * start[n]
        for u, ss in enumerate(self.successors):
            for w in ss:
                pred[fill[w]] = u
                fill[w] += 1
        self._pred_start = array("i", start)
        self._pred = array("i", pred)
        del counts, start, fill, pred

        self._condense()

    def _condense(self) -> None:
        """Tarjan SCC condensation, stored as component ids + edge CSR.

        Iterative Tarjan numbers components such that every successor
        component has a smaller id than its predecessors, so a single
        ascending pass over component ids visits the condensation DAG
        in reverse topological order.
        """
        successors = self.successors
        n = self.n_blocks
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        comp = array("i", bytes(4 * n))
        stack: List[int] = []
        # Blocks in component order: component c owns
        # members[member_start[c]:member_start[c + 1]].
        members: List[int] = []
        member_start = [0]
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(successors[root]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(successors[w])))
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    lv = low[v]
                    if lv == index[v]:
                        c = len(member_start) - 1
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp[w] = c
                            members.append(w)
                            if w == v:
                                break
                        member_start.append(len(members))
                    if work:
                        u = work[-1][0]
                        if lv < low[u]:
                            low[u] = lv
        del index, low, on_stack
        ncomp = len(member_start) - 1
        # Condensation edges, deduplicated with a last-writer mark.
        mark = [-1] * ncomp
        csucc: List[int] = []
        csucc_start = [0]
        for c in range(ncomp):
            for k in range(member_start[c], member_start[c + 1]):
                for w in successors[members[k]]:
                    d = comp[w]
                    if d != c and mark[d] != c:
                        mark[d] = c
                        csucc.append(d)
            csucc_start.append(len(csucc))
        self.n_components = ncomp
        self._comp = comp
        self._csucc = array("i", csucc)
        self._csucc_start = array("i", csucc_start)

    # ------------------------------------------------------------------
    def reachable_targets(self, targets: Sequence[int]) -> "ReachIndex":
        """Precompute which of *targets* every block can reach."""
        return ReachIndex(self, targets)

    def block_of_pc(self, pc: int) -> Optional[int]:
        """The block whose terminator sits at *pc*, or ``None``."""
        pcs = self._branch_pcs
        k = bisect_right(pcs, pc) - 1
        if k >= 0 and pcs[k] == pc:
            return self._branch_blocks[k]
        return None

    def min_lead(self, site: int, target: int, cap: int) -> Optional[int]:
        """Minimum fetch-unit lead from *site* to *target*, if below *cap*.

        The lead of a path is the units fetched from the site block
        (inclusive) up to the target block (exclusive): a lower bound
        on the cycles between issuing a prefetch at the site and the
        branch's BTB lookup along that path.  Returns ``None`` when
        every path has a lead of at least *cap* (or none exists); a
        site that is its own target has lead 0 whatever the cap.

        Exact bidirectional Dijkstra: the forward search follows
        successors, the backward search follows predecessors, where
        reverse edge u <- v costs ``units[u]``.  Each side expands from
        its smaller heap; every label improvement is checked against
        the other side's label, and the search stops once the two heap
        minima sum to at least min(best, *cap*) — no unseen path can
        then be shorter than the best one found.
        """
        if site == target:
            return 0
        units = self.units
        succ = self.successors
        pred_start = self._pred_start
        pred = self._pred
        heappush = heapq.heappush
        heappop = heapq.heappop
        fdist: Dict[int, int] = {site: 0}
        bdist: Dict[int, int] = {target: 0}
        fheap: List[Tuple[int, int]] = [(0, site)]
        bheap: List[Tuple[int, int]] = [(0, target)]
        best = cap
        while fheap and bheap and fheap[0][0] + bheap[0][0] < best:
            if len(fheap) <= len(bheap):
                d, u = heappop(fheap)
                if d > fdist[u]:
                    continue
                nd = d + units[u]
                if nd >= best:
                    continue
                for v in succ[u]:
                    if nd < fdist.get(v, _UNREACHED):
                        fdist[v] = nd
                        heappush(fheap, (nd, v))
                        back = bdist.get(v)
                        if back is not None and nd + back < best:
                            best = nd + back
            else:
                d, v = heappop(bheap)
                if d > bdist[v]:
                    continue
                for j in range(pred_start[v], pred_start[v + 1]):
                    u = pred[j]
                    nd = d + units[u]
                    if nd < best and nd < bdist.get(u, _UNREACHED):
                        bdist[u] = nd
                        heappush(bheap, (nd, u))
                        fwd = fdist.get(u)
                        if fwd is not None and fwd + nd < best:
                            best = fwd + nd
        return best if best < cap else None


class ReachIndex:
    """Answers "does block *s* reach target *t*?" for a fixed target set.

    Built once per verification over the graph's cached condensation:
    a bitmask union in ascending component order, which is reverse
    topological order (see :meth:`BlockGraph._condense`).
    """

    def __init__(self, graph: BlockGraph, targets: Sequence[int]):
        self._tbit = {t: k for k, t in enumerate(dict.fromkeys(targets))}
        comp = graph._comp
        csucc = graph._csucc
        start = graph._csucc_start
        cmask = [0] * graph.n_components
        for t, k in self._tbit.items():
            cmask[comp[t]] |= 1 << k
        for c in range(graph.n_components):
            lo, hi = start[c], start[c + 1]
            if lo == hi:
                continue
            m = cmask[c]
            for j in range(lo, hi):
                m |= cmask[csucc[j]]
            cmask[c] = m
        self._comp = comp
        self._cmask = cmask

    def reaches(self, source: int, target: int) -> bool:
        bit = self._tbit[target]
        return bool((self._cmask[self._comp[source]] >> bit) & 1)


# ----------------------------------------------------------------------
# CFG artifact sanity rules (C1xx).

def _finding(rule: str, name: str, sev: Severity, loc: str, msg: str) -> Finding:
    return Finding(rule=rule, name=name, severity=sev, location=loc, message=msg)


CFG_RULES = {
    "C101": "blocks-sorted",
    "C102": "direct-target-resolves",
    "C103": "branch-pc-in-block",
    "C104": "kind-code-consistent",
    "C105": "dispatch-structure",
}


def verify_workload(workload: Workload) -> List[Finding]:
    """Static sanity of a generated CFG/Workload (rules C1xx)."""
    wl = workload
    findings: List[Finding] = []
    loc = f"workload[{wl.name}]"

    prev_end = -1
    prev_start = -1
    for i in range(wl.n_blocks):
        start, size = wl.block_start[i], wl.block_size[i]
        if start <= prev_start or start < prev_end:
            findings.append(
                _finding(
                    "C101",
                    CFG_RULES["C101"],
                    Severity.ERROR,
                    f"{loc}.block[{i}]",
                    f"block at {start:#x} overlaps or precedes the previous "
                    f"block (prev end {prev_end:#x})",
                )
            )
        prev_start, prev_end = start, start + size

        pc = wl.branch_pc[i]
        kc = wl.kind_code[i]
        if pc >= 0 and not (start <= pc < start + size):
            findings.append(
                _finding(
                    "C103",
                    CFG_RULES["C103"],
                    Severity.ERROR,
                    f"{loc}.block[{i}]",
                    f"terminator pc {pc:#x} lies outside its block "
                    f"[{start:#x}, {start + size:#x})",
                )
            )
        if kc in DIRECT_KIND_CODES and wl.target_block[i] < 0:
            findings.append(
                _finding(
                    "C102",
                    CFG_RULES["C102"],
                    Severity.ERROR,
                    f"{loc}.block[{i}]",
                    f"direct branch at {pc:#x} targets {wl.branch_target[i]:#x}, "
                    "which is not a block start",
                )
            )
        kind = wl.branch_kind[i]
        expect = KIND_CODE[kind] if kind is not None else KIND_NONE
        if kc != expect:
            findings.append(
                _finding(
                    "C104",
                    CFG_RULES["C104"],
                    Severity.ERROR,
                    f"{loc}.block[{i}]",
                    f"kind_code {kc} does not encode branch kind {kind!r}",
                )
            )

    if not wl.handler_indices:
        findings.append(
            _finding(
                "C105",
                CFG_RULES["C105"],
                Severity.ERROR,
                loc,
                "workload has no handler functions",
            )
        )
    elif len(wl.handler_weights) != len(wl.handler_indices):
        findings.append(
            _finding(
                "C105",
                CFG_RULES["C105"],
                Severity.ERROR,
                loc,
                f"{len(wl.handler_weights)} handler weights for "
                f"{len(wl.handler_indices)} handlers",
            )
        )
    elif any(w <= 0 for w in wl.handler_weights):
        findings.append(
            _finding(
                "C105",
                CFG_RULES["C105"],
                Severity.ERROR,
                loc,
                "handler popularity weights must be positive",
            )
        )
    return findings
