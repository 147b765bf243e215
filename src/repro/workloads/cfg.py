"""Synthetic control-flow-graph construction.

A workload is a layered program: a tiny *dispatch loop* (level 0)
repeatedly invokes request *handlers* (level 1), which call down a
DAG-shaped call graph of helper functions (levels 2+).  The layering
guarantees the walk terminates (no recursion) and bounds call depth,
while Zipf-distributed handler popularity produces the hot-path reuse
and long cold tail that give data-center applications their
characteristic BTB behaviour.

The builder is deterministic: the same spec and seed always produce the
same binary, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..isa.binary import Binary
from ..isa.blocks import BasicBlock
from ..isa.branches import Branch, BranchKind
from .rng import make_rng, zipf_weights
from .spec import AppSpec, WorkloadInput, validate_mix

_MIN_BLOCK_BYTES = 6
_MAX_BLOCK_BYTES = 160

# Integer branch-kind codes used in simulator-facing arrays: enum
# comparisons in Python are an order of magnitude slower than int
# compares, and the timing loop touches every fetch unit.
KIND_NONE = 0
KIND_COND = 1
KIND_UNCOND = 2
KIND_CALL = 3
KIND_CALL_IND = 4
KIND_JUMP_IND = 5
KIND_RETURN = 6

KIND_CODE = {
    BranchKind.COND_DIRECT: KIND_COND,
    BranchKind.UNCOND_DIRECT: KIND_UNCOND,
    BranchKind.CALL_DIRECT: KIND_CALL,
    BranchKind.CALL_INDIRECT: KIND_CALL_IND,
    BranchKind.JUMP_INDIRECT: KIND_JUMP_IND,
    BranchKind.RETURN: KIND_RETURN,
}
KIND_FROM_CODE = {v: k for k, v in KIND_CODE.items()}
# Codes whose targets live in the main BTB (direct branches).
DIRECT_KIND_CODES = frozenset({KIND_COND, KIND_UNCOND, KIND_CALL})


def _level_fractions(spec: AppSpec) -> Tuple[float, ...]:
    """Fraction of functions at each call-graph level.

    Level 0 (the dispatch loop) always holds exactly one function; the
    handler level takes ``spec.handler_fraction`` and the helper levels
    split the remainder with geometric taper, so deep "library" levels
    are smaller and heavily shared (like real common runtimes).
    """
    rest = 1.0 - spec.handler_fraction
    return (
        spec.handler_fraction,
        rest * 0.22,
        rest * 0.24,
        rest * 0.26,
        rest * 0.28,
    )


@dataclass(frozen=True)
class Function:
    """A contiguous run of basic blocks forming one function."""

    index: int
    level: int
    first_block: int  # index into Workload.blocks
    n_blocks: int
    entry_addr: int

    @property
    def block_range(self) -> range:
        return range(self.first_block, self.first_block + self.n_blocks)


class Workload:
    """A generated program plus the flattened arrays the simulator uses.

    ``blocks`` are in layout order and globally indexed; per-block
    parallel arrays (``block_start``, ``block_instructions``, ...) let
    the trace walker and the timing simulator avoid attribute lookups
    in their inner loops.
    """

    def __init__(
        self,
        spec: AppSpec,
        binary: Binary,
        functions: Sequence[Function],
        handler_indices: Sequence[int],
        handler_weights: Sequence[float],
        root_function: int,
        build_seed: int,
    ):
        self.spec = spec
        self.binary = binary
        self.functions: Tuple[Function, ...] = tuple(functions)
        self.handler_indices: Tuple[int, ...] = tuple(handler_indices)
        self.handler_weights: Tuple[float, ...] = tuple(handler_weights)
        self.root_function = root_function
        self.build_seed = build_seed

        blocks = binary.blocks
        self.n_blocks = len(blocks)
        self.block_start: List[int] = [b.start for b in blocks]
        self.block_size: List[int] = [b.size_bytes for b in blocks]
        self.block_instructions: List[int] = [b.instructions for b in blocks]
        self.block_lines: List[Tuple[int, ...]] = [b.lines(binary.line_bytes) for b in blocks]
        # Branch fields (None markers for fallthrough-only blocks).
        self.branch_pc: List[int] = []
        self.branch_kind: List[Optional[BranchKind]] = []
        self.branch_target: List[int] = []
        self.taken_bias: List[float] = []
        self._block_by_start: Dict[int, int] = {}
        for i, b in enumerate(blocks):
            self._block_by_start[b.start] = i
            br = b.branch
            if br is None:
                self.branch_pc.append(-1)
                self.branch_kind.append(None)
                self.branch_target.append(-1)
                self.taken_bias.append(0.0)
            else:
                self.branch_pc.append(br.pc)
                self.branch_kind.append(br.kind)
                self.branch_target.append(br.target)
                self.taken_bias.append(br.taken_bias)
        # Target block index for taken direct branches (-1 if target is
        # not a block start, which the builder never produces).
        self.target_block: List[int] = [
            self._block_by_start.get(t, -1) for t in self.branch_target
        ]
        # Integer kind codes for hot loops (see KIND_* constants below).
        self.kind_code: List[int] = [
            KIND_CODE[k] if k is not None else KIND_NONE for k in self.branch_kind
        ]
        # Alternate indirect targets as block indices.
        self.alt_target_blocks: List[Tuple[int, ...]] = []
        for b in blocks:
            br = b.branch
            if br is None or not br.alt_targets:
                self.alt_target_blocks.append(())
            else:
                self.alt_target_blocks.append(
                    tuple(self._block_by_start[t] for t in br.alt_targets)
                )
        self._fetch_cycles: Dict[int, Tuple[int, ...]] = {}

    def fetch_cycles(self, fetch_width_bytes: int) -> Tuple[int, ...]:
        """Fetch cycles (``fetch_width_bytes`` units) per block, at least 1.

        Computed once per width and shared read-only by every simulator
        built over this workload.
        """
        cycles = self._fetch_cycles.get(fetch_width_bytes)
        if cycles is None:
            fw = fetch_width_bytes
            cycles = tuple(max(1, (size + fw - 1) // fw) for size in self.block_size)
            self._fetch_cycles[fw] = cycles
        return cycles

    @cached_property
    def text_lines(self) -> Tuple[int, ...]:
        """Every cache line some block touches, ascending; computed once."""
        lines = set()
        for block_lines in self.block_lines:
            lines.update(block_lines)
        return tuple(sorted(lines))

    def block_index_at(self, start_addr: int) -> int:
        """Block index whose start address is *start_addr*."""
        return self._block_by_start[start_addr]

    @property
    def name(self) -> str:
        return self.spec.name

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        return (
            f"{self.spec.name}: {len(self.functions)} functions, "
            f"{self.n_blocks} blocks, "
            f"{self.binary.static_branch_count()} static branches, "
            f"{self.binary.text_bytes() / (1024 * 1024):.2f} MB text"
        )


def _draw_block_geometry(rng, spec: AppSpec) -> Tuple[int, int]:
    """Sample (size_bytes, instruction_count) for one basic block."""
    mean = spec.mean_block_bytes
    size = int(rng.gauss(mean, mean * 0.45))
    size = max(_MIN_BLOCK_BYTES, min(_MAX_BLOCK_BYTES, size))
    instructions = max(1, int(round(size / spec.mean_insn_bytes)))
    return size, instructions


def _assign_levels(spec: AppSpec, rng) -> List[int]:
    """Number of functions per level (level 0 excluded; root is separate)."""
    fractions = _level_fractions(spec)
    remaining = spec.functions - 1
    counts: List[int] = []
    for frac in fractions[:-1]:
        n = max(1, int(round(spec.functions * frac)))
        n = min(n, remaining - (len(fractions) - 1 - len(counts)))
        counts.append(max(1, n))
        remaining -= counts[-1]
    counts.append(max(1, remaining))
    return counts


def build_workload(spec: AppSpec, seed: int = 0) -> Workload:
    """Construct the synthetic program described by *spec*.

    Three passes:

    1. **Plan** — sample every function's block geometry and terminator
       plan (kinds, intra-function targets, callee draws) with no
       addresses yet.
    2. **Layout** — order functions by call-graph DFS from the dispatch
       root, so callers sit near their callees (what a call-chain-aware
       linker produces); a ``far_region_fraction`` of functions is
       placed in a distant library region, creating the large-offset
       tail that motivates prefetch coalescing (Figs 14/15).
    3. **Materialize** — assign addresses in layout order and build the
       concrete :class:`~repro.isa.Branch` objects.
    """
    rng = make_rng(spec.name, "build", seed)
    mix = validate_mix(dict(spec.branch_mix))
    level_counts = _assign_levels(spec, rng)
    n_levels = len(level_counts)

    # Function 0 is the dispatch root; the rest fill levels 1..n.
    func_levels: List[int] = [0]
    for level, count in enumerate(level_counts, start=1):
        func_levels.extend([level] * count)
    n_functions = len(func_levels)
    funcs_by_level: List[List[int]] = [[] for _ in range(n_levels + 1)]
    for fi, level in enumerate(func_levels):
        funcs_by_level[level].append(fi)

    # Callee pools per level (see _plan_terminators).
    next_level_pool: List[List[int]] = [[] for _ in range(n_levels + 1)]
    deeper_pool: List[List[int]] = [[] for _ in range(n_levels + 1)]
    for level in range(n_levels):
        next_level_pool[level] = list(funcs_by_level[level + 1])
        pool: List[int] = []
        for deeper in range(level + 2, n_levels + 1):
            pool.extend(funcs_by_level[deeper])
        deeper_pool[level] = pool

    level_kind_weights = _level_terminator_weights(spec, mix, n_levels)

    # --- pass 1: plan geometry and terminators -------------------------
    geoms_per_func: List[List[Tuple[int, int]]] = []  # (size, instrs)
    plans_per_func: List[List[tuple]] = []
    for fi in range(n_functions):
        if fi == 0:
            geoms_per_func.append([_draw_block_geometry(rng, spec) for _ in range(2)])
            plans_per_func.append([("root_dispatch",), ("root_loop",)])
            continue
        level = func_levels[fi]
        mean = spec.mean_blocks_per_function
        if level == 1:
            mean = int(mean * 2.0)  # handlers orchestrate many subsystems
        elif level == 2:
            mean = int(mean * 1.3)
        n_blocks = min(
            max(3, int(rng.expovariate(1.0 / mean)) + 3), int(mean * 2.5)
        )
        geoms_per_func.append(
            [_draw_block_geometry(rng, spec) for _ in range(n_blocks)]
        )
        rank = fi - funcs_by_level[level][0]  # position within my level
        plans_per_func.append(
            _plan_terminators(
                rng,
                spec,
                n_blocks,
                level_kind_weights[level],
                next_level_pool[level],
                deeper_pool[level],
                rank,
                max(1, len(funcs_by_level[level])),
            )
        )

    # --- pass 2: call-graph DFS layout ---------------------------------
    order = _dfs_layout_order(plans_per_func)
    is_far: List[bool] = [False] * n_functions
    for fi in range(1, n_functions):
        is_far[fi] = rng.random() < spec.far_region_fraction

    near_cursor = 0x400000  # typical ELF text base
    far_cursor = 0x400000 + spec.far_region_offset
    entry_addr: List[int] = [0] * n_functions
    block_addrs: List[List[int]] = [[] for _ in range(n_functions)]
    for fi in order:
        cursor = far_cursor if is_far[fi] else near_cursor
        entry_addr[fi] = cursor
        addrs = []
        for size, _instrs in geoms_per_func[fi]:
            addrs.append(cursor)
            cursor += size
        cursor += spec.function_gap_bytes
        if is_far[fi]:
            far_cursor = cursor
        else:
            near_cursor = cursor
        block_addrs[fi] = addrs

    # --- pass 3: materialize blocks and branches ------------------------
    # Blocks are created in address order (Binary sorts by address and
    # the simulator's fallthrough rule is "next sorted block"), so
    # indices must be assigned after sorting — far-region functions
    # interleave with near ones in DFS order but not in address order.
    handlers = funcs_by_level[1]
    if not handlers:
        raise WorkloadError("workload generated no handler functions")

    raw_blocks: List[Tuple[int, int, int, Optional[Branch]]] = []
    for fi in order:
        geoms = geoms_per_func[fi]
        plans = plans_per_func[fi]
        addrs = block_addrs[fi]
        for bi, ((size, instrs), plan) in enumerate(zip(geoms, plans)):
            start = addrs[bi]
            branch = _materialize(
                plan, start, size, addrs, entry_addr, handlers, spec, bi
            )
            raw_blocks.append((start, size, instrs, branch))
    raw_blocks.sort(key=lambda t: t[0])

    all_blocks = [
        BasicBlock(
            index=i, start=start, size_bytes=size, instructions=instrs, branch=branch
        )
        for i, (start, size, instrs, branch) in enumerate(raw_blocks)
    ]
    binary = Binary(all_blocks)

    # Function records in sorted-index space: a function's blocks are
    # contiguous in the address space, so its first block's sorted index
    # anchors the whole range.
    index_of_start = {b.start: b.index for b in all_blocks}
    functions: List[Function] = [
        Function(
            index=fi,
            level=func_levels[fi],
            first_block=index_of_start[entry_addr[fi]],
            n_blocks=len(geoms_per_func[fi]),
            entry_addr=entry_addr[fi],
        )
        for fi in range(n_functions)
    ]
    weights = list(zipf_weights(len(handlers), spec.popularity_exponent))
    rng.shuffle(weights)  # decouple popularity from layout order

    workload = Workload(
        spec=spec,
        binary=binary,
        functions=functions,
        handler_indices=handlers,
        handler_weights=weights,
        root_function=0,
        build_seed=seed,
    )
    return workload


def _level_terminator_weights(
    spec: AppSpec, mix: Dict[str, float], n_levels: int
) -> List[List[Tuple[str, float]]]:
    """Per-level (kind, weight) lists: call density scales with level."""
    from .spec import DEFAULT_CALL_WEIGHT_BY_LEVEL

    out: List[List[Tuple[str, float]]] = []
    for level in range(n_levels + 1):
        mult = (
            DEFAULT_CALL_WEIGHT_BY_LEVEL[level - 1]
            if 1 <= level <= len(DEFAULT_CALL_WEIGHT_BY_LEVEL)
            else 1.0
        )
        weights = []
        for k, w in mix.items():
            if k in ("call_direct", "call_indirect"):
                w = w * mult * spec.call_weight_scale
            weights.append((k, w))
        out.append(weights)
    return out


# Width of the caller-locality window: distinct callees reachable from
# one caller within the next level.  Small enough that each callee has
# only a handful of dominant callers (skewed fan-in, like real call
# graphs — which is what makes miss *contexts* repeat across runs and
# profile-guided injection generalize), large enough that request trees
# stay wide.
_CALLEE_WINDOW = 24
_DEEP_WINDOW = 48


def _plan_terminators(
    rng,
    spec: AppSpec,
    n_blocks: int,
    kind_weights: Sequence[Tuple[str, float]],
    next_pool: Sequence[int],
    deeper_pool: Sequence[int],
    rank: int = 0,
    level_size: int = 1,
) -> List[tuple]:
    """Sample the terminator plan of every block in one function.

    Plans are address-free: intra-function targets are block indices,
    call targets are function indices.
    """
    kind_names = [k for k, _ in kind_weights]
    weights = [w for _, w in kind_weights]
    rel = rank / level_size  # caller's relative position in its level

    def draw_callee() -> Optional[int]:
        # 30% of sites call past the next level (skip-level helpers).
        if deeper_pool and (not next_pool or rng.random() < 0.30):
            base = int(rel * len(deeper_pool))
            off = rng.randrange(-_DEEP_WINDOW // 2, _DEEP_WINDOW // 2 + 1)
            return deeper_pool[(base + off) % len(deeper_pool)]
        if next_pool:
            base = int(rel * len(next_pool))
            off = rng.randrange(-_CALLEE_WINDOW // 2, _CALLEE_WINDOW // 2 + 1)
            return next_pool[(base + off) % len(next_pool)]
        return None

    plans: List[tuple] = []
    for bi in range(n_blocks):
        if bi == n_blocks - 1:
            plans.append(("ret",))
            continue
        kind = rng.choices(kind_names, weights=weights, k=1)[0]
        if kind == "cond_direct":
            if bi > 0 and rng.random() < spec.loop_fraction:
                # Tight loop back-edge spanning 1-3 blocks.
                plans.append(
                    ("cond", max(0, bi - rng.randint(1, 3)), spec.loop_continue_prob)
                )
            else:
                # Short forward skip.  Most branches are strongly biased
                # (error paths, flags); a minority are coin flips —
                # keeping direction-predictor accuracy realistic.
                target_bi = min(n_blocks - 1, bi + 1 + rng.randint(1, 2))
                if rng.random() < 0.92:
                    strong = 0.01 + rng.random() * 0.02
                    bias = strong if rng.random() < 0.5 else 1.0 - strong
                else:
                    bias = rng.betavariate(2.0, 2.0)
                plans.append(("cond", target_bi, bias))
        elif kind == "uncond_direct":
            hi = min(n_blocks - 1, bi + 1 + int(rng.expovariate(0.7)))
            plans.append(("uncond", rng.randint(bi + 1, max(bi + 1, hi))))
        elif kind == "call_direct":
            callee = draw_callee()
            plans.append(("call", callee) if callee is not None else (None,))
        elif kind == "call_indirect":
            n_targets = max(
                2, int(rng.expovariate(1.0 / spec.mean_indirect_targets)) + 1
            )
            chosen = {draw_callee() for _ in range(n_targets)}
            chosen.discard(None)
            if len(chosen) >= 2:
                plans.append(("icall", tuple(sorted(chosen))))
            elif chosen:
                plans.append(("call", chosen.pop()))
            else:
                plans.append((None,))
        elif kind == "jump_indirect":
            if bi + 2 < n_blocks:
                window_hi = min(n_blocks, bi + 9)
                n_targets = min(
                    window_hi - bi - 1,
                    max(2, int(rng.expovariate(1.0 / spec.mean_indirect_targets)) + 2),
                )
                target_bis = rng.sample(range(bi + 1, window_hi), n_targets)
                plans.append(("ijump", tuple(sorted(target_bis))))
            else:
                plans.append((None,))
        elif kind == "return":
            plans.append(("ret",))
        else:
            raise WorkloadError(f"unhandled terminator kind {kind!r}")
    return plans


def _dfs_layout_order(plans_per_func: Sequence[Sequence[tuple]]) -> List[int]:
    """First-visit DFS over static call edges, rooted at function 0.

    Produces a layout where callees follow their first caller — the
    call-chain locality real linkers (and BOLT-style layout tools)
    give hot paths.  Unreachable functions are appended in index order.
    """
    n = len(plans_per_func)
    visited = [False] * n
    order: List[int] = []
    stack = [0]
    while stack:
        fi = stack.pop()
        if visited[fi]:
            continue
        visited[fi] = True
        order.append(fi)
        callees: List[int] = []
        for plan in plans_per_func[fi]:
            if plan[0] == "call":
                callees.append(plan[1])
            elif plan[0] == "icall":
                callees.extend(plan[1])
        # Reverse so the first call site's callee is laid out first.
        for callee in reversed(callees):
            if not visited[callee]:
                stack.append(callee)
    for fi in range(n):
        if not visited[fi]:
            order.append(fi)
    return order


def _materialize(
    plan: tuple,
    start: int,
    size: int,
    addrs: Sequence[int],
    entry_addr: Sequence[int],
    handlers: Sequence[int],
    spec: AppSpec,
    bi: int,
) -> Optional[Branch]:
    """Turn an address-free terminator plan into a Branch."""
    branch_pc = start + size - max(2, min(5, size // 4))
    fallthrough = start + size
    kind = plan[0]
    if kind is None:
        return None
    if kind == "root_dispatch":
        shown = tuple(entry_addr[h] for h in handlers[: min(64, len(handlers))])
        return Branch(
            pc=branch_pc,
            kind=BranchKind.CALL_INDIRECT,
            target=shown[0],
            fallthrough=fallthrough,
            alt_targets=shown,
        )
    if kind == "root_loop":
        return Branch(
            pc=branch_pc, kind=BranchKind.UNCOND_DIRECT, target=addrs[0]
        )
    if kind == "cond":
        return Branch(
            pc=branch_pc,
            kind=BranchKind.COND_DIRECT,
            target=addrs[plan[1]],
            fallthrough=fallthrough,
            taken_bias=plan[2],
        )
    if kind == "uncond":
        return Branch(
            pc=branch_pc, kind=BranchKind.UNCOND_DIRECT, target=addrs[plan[1]]
        )
    if kind == "call":
        return Branch(
            pc=branch_pc,
            kind=BranchKind.CALL_DIRECT,
            target=entry_addr[plan[1]],
            fallthrough=fallthrough,
        )
    if kind == "icall":
        targets = tuple(sorted(entry_addr[fi] for fi in plan[1]))
        return Branch(
            pc=branch_pc,
            kind=BranchKind.CALL_INDIRECT,
            target=targets[0],
            fallthrough=fallthrough,
            alt_targets=targets,
        )
    if kind == "ijump":
        targets = tuple(sorted(addrs[t] for t in plan[1]))
        return Branch(
            pc=branch_pc,
            kind=BranchKind.JUMP_INDIRECT,
            target=targets[0],
            fallthrough=fallthrough,
            alt_targets=targets,
        )
    if kind == "ret":
        return Branch(pc=branch_pc, kind=BranchKind.RETURN, target=0)
    raise WorkloadError(f"unhandled plan kind {kind!r}")
