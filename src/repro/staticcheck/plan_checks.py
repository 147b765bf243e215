"""Static verification of a built :class:`~repro.core.plan.PrefetchPlan`.

Layer-1 of ``repro.staticcheck``: every property Twig's link-time
analysis promises about a plan is re-derived here from the plan, the
source :class:`~repro.workloads.cfg.Workload`, and the
:class:`~repro.config.SimConfig` — with no simulation.  Rule catalog
(``PLAN_RULES``):

========  ====================  ========  =============================
rule id   name                  severity  property
========  ====================  ========  =============================
``P101``  offset-encodable      error     inline ``brprefetch`` deltas
                                          fit ``offset_bits``
``P102``  table-order           error     coalesce table sorted by
                                          branch PC, duplicate-free
``P103``  coalesce-window       error     ``brcoalesce`` entries are
                                          consecutive table slots
                                          within the bitmask width
``P104``  op-encoding           error     op byte costs / entry counts
                                          match the ISA encodings
``P105``  site-reachability     error     injection site is a real
                                          block with a CFG path to its
                                          branch (and is not the
                                          branch block itself)
``P106``  entry-cfg-match       error     prefetched (pc, target,
                                          kind) agree with the CFG
``P107``  timeliness            warning   static shortest-path lead
                                          below ``prefetch_distance``
                                          fetch units
``P108``  plan-accounting       error     coverage counters and
                                          per-block indexing are
                                          internally consistent
========  ====================  ========  =============================

:func:`verify_plan` runs the error rules, the properties a plan must
have to be published.  ``P107`` is a warning by construction: golden
injection sites are selected from *dynamic* LBR leads, which include
stall cycles and loop iterations, so a short static shortest path does
not prove the prefetch is late on hot paths.  It can never fail a plan,
so it is report-only: :func:`plan_timeliness` computes it, and only
``python -m repro.staticcheck --check-plans`` calls that.  The
degenerate cases that are provably wrong (site == branch block, no path
at all) gate as ``P105`` errors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..config import SimConfig
from ..core.compression import encodable
from ..core.plan import (
    BRCOALESCE_BYTES,
    BRPREFETCH_BYTES,
    OP_COALESCE,
    OP_PREFETCH,
    InjectionOp,
    PrefetchPlan,
)
from ..workloads.cfg import Workload
from .cfg_checks import BlockGraph
from .findings import Finding, Severity

# Wide brprefetch (coalescing-disabled ablation) carries raw pointers
# as extra immediate data; see core/twig.py.
WIDE_BRPREFETCH_BYTES = BRPREFETCH_BYTES + 10

PLAN_RULES = {
    "P101": "offset-encodable",
    "P102": "table-order",
    "P103": "coalesce-window",
    "P104": "op-encoding",
    "P105": "site-reachability",
    "P106": "entry-cfg-match",
    "P107": "timeliness",
    "P108": "plan-accounting",
}

_RULE_SEVERITY = {rule: Severity.ERROR for rule in PLAN_RULES}
_RULE_SEVERITY["P107"] = Severity.WARNING


def _f(rule: str, loc: str, msg: str) -> Finding:
    return Finding(
        rule=rule,
        name=PLAN_RULES[rule],
        severity=_RULE_SEVERITY[rule],
        location=loc,
        message=msg,
    )


def _op_loc(plan: PrefetchPlan, op: InjectionOp, i: int) -> str:
    return f"plan[{plan.app_name}].block[{op.block}].op[{i}]"


def _pair_loc(plan: PrefetchPlan, site: int, branch_block: int) -> str:
    return f"plan[{plan.app_name}].block[{site}]->block[{branch_block}]"


def verify_plan(
    plan: PrefetchPlan,
    workload: Workload,
    config: Optional[SimConfig] = None,
    graph: Optional[BlockGraph] = None,
) -> List[Finding]:
    """Check *plan* against *workload* under *config*: the error rules.

    Pass a prebuilt :class:`BlockGraph` to amortize graph construction
    across plans of the same workload (e.g. a config sweep).
    """
    cfg = config if config is not None else SimConfig()
    twig = cfg.twig
    if graph is None:
        graph = BlockGraph(workload, fetch_width_bytes=cfg.core.fetch_width_bytes)

    findings: List[Finding] = []
    loc_plan = f"plan[{plan.app_name}]"
    n_blocks = workload.n_blocks

    # --- P102: coalescing table structure --------------------------------
    table_index: Dict[int, int] = {}
    prev_pc = -1
    for slot, entry in enumerate(plan.table):
        pc = entry[0]
        if pc in table_index:
            findings.append(
                _f(
                    "P102",
                    f"{loc_plan}.table[{slot}]",
                    f"duplicate table entry for branch pc {pc:#x} "
                    f"(first at slot {table_index[pc]})",
                )
            )
        elif pc < prev_pc:
            findings.append(
                _f(
                    "P102",
                    f"{loc_plan}.table[{slot}]",
                    f"table not sorted: pc {pc:#x} after {prev_pc:#x}",
                )
            )
        table_index.setdefault(pc, slot)
        prev_pc = max(prev_pc, pc)

    # --- per-op rules ----------------------------------------------------
    # (site, branch_block) pairs for the reachability pass.
    pairs: Set[Tuple[int, int]] = set()

    for key_block, ops in plan.ops_by_block.items():
        for i, op in enumerate(ops):
            loc = _op_loc(plan, op, i)

            # P108: the indexing invariant the simulator relies on.
            if op.block != key_block:
                findings.append(
                    _f(
                        "P108",
                        loc,
                        f"op filed under block {key_block} but targets "
                        f"block {op.block}",
                    )
                )

            # P105: the injection site must be a real block.
            if not (0 <= op.block < n_blocks):
                findings.append(
                    _f(
                        "P105",
                        loc,
                        f"injection block {op.block} is outside "
                        f"[0, {n_blocks})",
                    )
                )
                continue

            # P104: encoding shape.
            if op.kind == OP_PREFETCH:
                if op.bytes_cost not in (BRPREFETCH_BYTES, WIDE_BRPREFETCH_BYTES):
                    findings.append(
                        _f(
                            "P104",
                            loc,
                            f"brprefetch bytes_cost {op.bytes_cost} is neither "
                            f"inline ({BRPREFETCH_BYTES}) nor wide "
                            f"({WIDE_BRPREFETCH_BYTES})",
                        )
                    )
            else:
                if op.bytes_cost != BRCOALESCE_BYTES:
                    findings.append(
                        _f(
                            "P104",
                            loc,
                            f"brcoalesce bytes_cost {op.bytes_cost} != "
                            f"{BRCOALESCE_BYTES}",
                        )
                    )
                if len(op.entries) > twig.coalesce_bits:
                    findings.append(
                        _f(
                            "P104",
                            loc,
                            f"brcoalesce selects {len(op.entries)} entries; the "
                            f"{twig.coalesce_bits}-bit mask allows at most "
                            f"{twig.coalesce_bits}",
                        )
                    )

            # P101: inline brprefetch must fit the compressed encoding.
            if op.kind == OP_PREFETCH and op.bytes_cost == BRPREFETCH_BYTES:
                pc, target, _ = op.entries[0]
                inject_pc = workload.block_start[op.block]
                if not encodable(inject_pc, pc, target, twig.offset_bits):
                    findings.append(
                        _f(
                            "P101",
                            loc,
                            f"offsets from site {inject_pc:#x} to branch "
                            f"{pc:#x} -> target {target:#x} exceed "
                            f"{twig.offset_bits}-bit encoding; entry belongs "
                            "in the coalescing table",
                        )
                    )

            # P103: brcoalesce window structure against the table.
            if op.kind == OP_COALESCE:
                slots: List[int] = []
                broken = False
                for pc, target, kcode in op.entries:
                    slot = table_index.get(pc)
                    if slot is None or plan.table[slot] != (pc, target, kcode):
                        findings.append(
                            _f(
                                "P103",
                                loc,
                                f"entry (pc {pc:#x}, target {target:#x}) is "
                                "not a coalescing-table entry",
                            )
                        )
                        broken = True
                        continue
                    slots.append(slot)
                if not broken and slots:
                    if any(b <= a for a, b in zip(slots, slots[1:])):
                        findings.append(
                            _f(
                                "P103",
                                loc,
                                f"window slots {slots} are not strictly "
                                "increasing table indices",
                            )
                        )
                    elif slots[-1] - slots[0] >= twig.coalesce_bits:
                        findings.append(
                            _f(
                                "P103",
                                loc,
                                f"window spans slots {slots[0]}..{slots[-1]} "
                                f"(> {twig.coalesce_bits}-bit bitmask reach)",
                            )
                        )

            # P106: every prefetched entry must describe a real branch.
            for pc, target, kcode in op.entries:
                branch_block = graph.block_of_pc(pc)
                if branch_block is None:
                    findings.append(
                        _f(
                            "P106",
                            loc,
                            f"prefetched pc {pc:#x} terminates no block in "
                            "the CFG",
                        )
                    )
                    continue
                if workload.kind_code[branch_block] != kcode:
                    findings.append(
                        _f(
                            "P106",
                            loc,
                            f"entry kind code {kcode} != CFG kind "
                            f"{workload.kind_code[branch_block]} for branch "
                            f"{pc:#x}",
                        )
                    )
                if workload.branch_target[branch_block] != target:
                    findings.append(
                        _f(
                            "P106",
                            loc,
                            f"entry target {target:#x} != CFG target "
                            f"{workload.branch_target[branch_block]:#x} for "
                            f"branch {pc:#x}",
                        )
                    )
                if 0 <= op.block < n_blocks:
                    pairs.add((op.block, branch_block))

    # --- P105: reachability --------------------------------------------
    if pairs:
        reach = graph.reachable_targets(sorted({b for _, b in pairs}))
        for site, branch_block in sorted(pairs):
            loc = _pair_loc(plan, site, branch_block)
            if site == branch_block:
                findings.append(
                    _f(
                        "P105",
                        loc,
                        "injection site is the missing branch's own "
                        "block: the prefetch can never lead its lookup",
                    )
                )
            elif not reach.reaches(site, branch_block):
                findings.append(
                    _f(
                        "P105",
                        loc,
                        f"no CFG path from injection site block {site} "
                        f"to branch block {branch_block}",
                    )
                )

    # --- P108: plan-level accounting -------------------------------------
    if plan.misses_targeted < 0 or plan.misses_with_site < 0:
        findings.append(
            _f(
                "P108",
                loc_plan,
                f"negative coverage counters (targeted="
                f"{plan.misses_targeted}, with_site={plan.misses_with_site})",
            )
        )
    elif plan.misses_with_site > plan.misses_targeted:
        findings.append(
            _f(
                "P108",
                loc_plan,
                f"misses_with_site ({plan.misses_with_site}) exceeds "
                f"misses_targeted ({plan.misses_targeted})",
            )
        )
    if plan.total_ops() > 0 and plan.misses_with_site == 0:
        findings.append(
            _f(
                "P108",
                loc_plan,
                f"{plan.total_ops()} ops injected but misses_with_site is 0",
            )
        )
    if plan.table and not any(
        op.kind == OP_COALESCE
        for ops in plan.ops_by_block.values()
        for op in ops
    ):
        findings.append(
            _f(
                "P108",
                loc_plan,
                f"{len(plan.table)} coalescing-table entries but no "
                "brcoalesce op references the table",
            )
        )
    return findings


def plan_timeliness(
    plan: PrefetchPlan,
    workload: Workload,
    config: Optional[SimConfig] = None,
    graph: Optional[BlockGraph] = None,
) -> List[Finding]:
    """``P107`` warnings for *plan*: report-only, never a gate.

    One finding per (injection site, branch block) pair whose static
    shortest path is below ``prefetch_distance`` fetch units.  Pairs
    that :func:`verify_plan` rejects as ``P105`` (site out of range, the
    branch's own block) are skipped; a pair with no path has no lead.
    """
    cfg = config if config is not None else SimConfig()
    if graph is None:
        graph = BlockGraph(workload, fetch_width_bytes=cfg.core.fetch_width_bytes)
    pairs: Set[Tuple[int, int]] = set()
    for ops in plan.ops_by_block.values():
        for op in ops:
            if not 0 <= op.block < workload.n_blocks:
                continue
            for pc, _, _ in op.entries:
                branch_block = graph.block_of_pc(pc)
                if branch_block is not None and branch_block != op.block:
                    pairs.add((op.block, branch_block))
    threshold = cfg.twig.prefetch_distance
    findings: List[Finding] = []
    for site, branch_block in sorted(pairs):
        lead = graph.min_lead(site, branch_block, threshold)
        if lead is not None:
            findings.append(
                _f(
                    "P107",
                    _pair_loc(plan, site, branch_block),
                    f"static shortest path is {lead} fetch unit(s), "
                    f"below prefetch_distance={threshold}; the "
                    "prefetch may be late along this path",
                )
            )
    return findings
