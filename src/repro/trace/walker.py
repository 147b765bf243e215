"""CFG walker: turns a workload into a committed-path trace.

The walk models a request-serving process: the dispatch loop picks a
handler by (possibly input-perturbed) Zipf popularity, the handler's
call tree executes with stochastic conditional outcomes, and control
returns to the dispatch loop.  Because the call graph is layered, every
request terminates; loop back-edges terminate almost surely via their
continue-probability and a hard per-visit cap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import TraceError
from ..frontend.direction_batch import HAVE_NUMPY as _PRECOMPILE
from ..isa.branches import BranchKind
from ..workloads.cfg import Workload
from ..workloads.rng import make_rng
from ..workloads.spec import WorkloadInput
from .events import Trace, TraceStats

# Hard cap on consecutive taken iterations of a single loop back-edge,
# guarding against pathological biases.
_MAX_LOOP_TRIPS = 64


def _perturbed_weights(
    workload: Workload, inp: Optional[WorkloadInput]
) -> List[float]:
    """Handler popularity after applying the input's perturbation."""
    base = list(workload.handler_weights)
    if inp is None or inp.popularity_shift <= 0.0:
        return base
    rng = make_rng(workload.name, "popularity", inp.index)
    shifted = list(base)
    rng.shuffle(shifted)
    s = inp.popularity_shift
    return [(1.0 - s) * b + s * p for b, p in zip(base, shifted)]


def _perturbed_biases(
    workload: Workload, inp: Optional[WorkloadInput]
) -> Dict[int, float]:
    """Per-block conditional-bias overrides for this input."""
    if inp is None or inp.bias_shift <= 0.0:
        return {}
    rng = make_rng(workload.name, "bias", inp.index)
    overrides: Dict[int, float] = {}
    kinds = workload.branch_kind
    for bi in range(workload.n_blocks):
        kind = kinds[bi]
        if kind is BranchKind.COND_DIRECT and rng.random() < inp.bias_shift:
            overrides[bi] = rng.betavariate(2.0, 2.0)
    return overrides


class _Sampler:
    """Weighted sampling with O(1) draws via a precomputed alias table."""

    def __init__(self, rng, weights: Sequence[float]):
        total = sum(weights)
        if total <= 0:
            raise TraceError("sampler weights must have positive sum")
        n = len(weights)
        probs = [w * n / total for w in weights]
        small = [i for i, p in enumerate(probs) if p < 1.0]
        large = [i for i, p in enumerate(probs) if p >= 1.0]
        self._prob = [1.0] * n
        self._alias = list(range(n))
        while small and large:
            s = small.pop()
            l = large.pop()
            self._prob[s] = probs[s]
            self._alias[s] = l
            probs[l] = probs[l] - (1.0 - probs[s])
            (small if probs[l] < 1.0 else large).append(l)
        self._n = n
        self._rng = rng

    def draw(self) -> int:
        r = self._rng.random() * self._n
        i = int(r)
        frac = r - i
        return i if frac < self._prob[i] else self._alias[i]


def generate_trace(
    workload: Workload,
    inp: Optional[WorkloadInput] = None,
    max_instructions: int = 1_000_000,
    max_fetch_units: Optional[int] = None,
) -> Trace:
    """Walk *workload* under input *inp* until ``max_instructions``.

    Returns a :class:`Trace` whose stats include the dynamic branch mix
    and unique-footprint counts used by the characterization figures.
    """
    if max_instructions <= 0:
        raise TraceError("max_instructions must be positive")
    seed = inp.walk_seed if inp is not None else make_rng(workload.name, "walk").random()
    rng = make_rng(workload.name, "walk", seed)

    weights = _perturbed_weights(workload, inp)
    bias_override = _perturbed_biases(workload, inp)
    handler_sampler = _Sampler(rng, weights)
    handlers = workload.handler_indices
    sweep_mode = workload.spec.dispatch_pattern == "sweep"
    sweep_cursor = (
        0 if inp is None else (inp.index * 17) % max(1, len(handlers))
    )
    # Requests take *structured* data-dependent paths: each request
    # draws a small "variant" (the request's data shape), and every
    # conditional outcome is a deterministic function of (branch,
    # variant).  The same variant re-executes the same path — the
    # repetitive structure that makes profile-guided optimization (and
    # history-based prediction) work on real servers — while the
    # variant mix supplies run-to-run diversity.
    n_variants = max(1, workload.spec.path_variants)
    sweep_skip = workload.spec.sweep_skip_prob
    # AppSpec validation enforces this, but the walk must never hang
    # even on a hand-built spec: the skip loop below terminates only
    # while a draw can fail.
    if sweep_mode and not 0.0 <= sweep_skip < 1.0:
        raise TraceError(
            f"sweep_skip_prob must be in [0.0, 1.0), got {sweep_skip}"
        )
    variant = 0
    functions = workload.functions

    # Local aliases for the hot loop.
    kinds = workload.branch_kind
    biases = workload.taken_bias
    target_blk = workload.target_block
    alt_blks = workload.alt_target_blocks
    n_instr_of = workload.block_instructions
    rnd = rng.random

    root = functions[workload.root_function]
    root_call_block = root.first_block          # dispatch: indirect call
    root_loop_block = root.first_block + 1      # loop back to dispatch

    blocks: List[int] = []
    takens: List[int] = []
    append_b = blocks.append
    append_t = takens.append

    stats = TraceStats()
    branch_counts: Dict[BranchKind, int] = {k: 0 for k in BranchKind}
    instructions = 0
    dynamic_branches = 0
    taken_branches = 0
    loop_trips: Dict[int, int] = {}

    # Explicit call stack of return-to block indices.
    call_stack: List[int] = []
    current = root_call_block
    limit_units = max_fetch_units if max_fetch_units is not None else (1 << 62)

    while instructions < max_instructions and len(blocks) < limit_units:
        append_b(current)
        instructions += n_instr_of[current]
        kind = kinds[current]

        if kind is None:
            append_t(0)
            current += 1  # fallthrough into the next laid-out block
            continue

        dynamic_branches += 1
        branch_counts[kind] += 1

        if current == root_call_block:
            # Dispatch: either a cyclic sweep over all handlers
            # (verilator-style eval) or popularity-sampled requests.
            append_t(1)
            taken_branches += 1
            call_stack.append(current + 1)
            if sweep_mode:
                # Data-dependent activity: ~1/4 of modules are inactive
                # on any given pass, so the sweep order is never exactly
                # the same twice — which is what defeats record-and-
                # replay stream prefetching on real simulator workloads.
                while rnd() < sweep_skip:
                    sweep_cursor += 1
                    if sweep_cursor >= len(handlers):
                        sweep_cursor = 0
                handler = handlers[sweep_cursor]
                sweep_cursor += 1
                if sweep_cursor >= len(handlers):
                    sweep_cursor = 0
            else:
                handler = handlers[handler_sampler.draw()]
            variant = int(rnd() * n_variants)
            current = functions[handler].first_block
            continue

        if kind is BranchKind.COND_DIRECT:
            tgt = target_blk[current]
            if tgt <= current:
                # Loop back-edge: quasi-deterministic per-site trip
                # count (learnable by a history predictor, like real
                # fixed-bound loops), with a rare data-dependent wobble.
                trips = loop_trips.get(current, 0)
                base_trips = 2 + (current * 2654435761) % 5
                if rnd() < 0.08:
                    base_trips += 1
                take = trips + 1 < base_trips and trips < _MAX_LOOP_TRIPS
                loop_trips[current] = trips + 1 if take else 0
            else:
                bias = bias_override.get(current, biases[current])
                # Deterministic per (branch, variant): thresholded hash.
                h = ((current * 2654435761) ^ (variant * 0x9E3779B9)) & 0xFFFFFFFF
                take = ((h >> 7) & 1023) < bias * 1024.0
            if take:
                append_t(1)
                taken_branches += 1
                current = tgt
            else:
                append_t(0)
                current += 1
            continue

        if kind is BranchKind.UNCOND_DIRECT:
            append_t(1)
            taken_branches += 1
            current = target_blk[current]
            continue

        if kind is BranchKind.CALL_DIRECT:
            append_t(1)
            taken_branches += 1
            call_stack.append(current + 1)
            current = target_blk[current]
            continue

        if kind is BranchKind.CALL_INDIRECT:
            append_t(1)
            taken_branches += 1
            call_stack.append(current + 1)
            alts = alt_blks[current]
            if len(alts) > 1:
                # Receiver chosen by the request's data shape: same
                # variant, same virtual dispatch target.
                h = ((current * 2654435761) ^ (variant * 0x9E3779B9)) >> 9
                current = alts[h % len(alts)]
            else:
                current = target_blk[current]
            continue

        if kind is BranchKind.JUMP_INDIRECT:
            append_t(1)
            taken_branches += 1
            alts = alt_blks[current]
            if len(alts) > 1:
                h = ((current * 0x85EBCA6B) ^ (variant * 0xC2B2AE35)) >> 9
                current = alts[h % len(alts)]
            else:
                current = target_blk[current]
            continue

        if kind is BranchKind.RETURN:
            append_t(1)
            taken_branches += 1
            if call_stack:
                current = call_stack.pop()
            else:
                current = root_call_block
            continue

        raise TraceError(f"walker cannot handle branch kind {kind}")

    stats.instructions = instructions
    stats.fetch_units = len(blocks)
    stats.dynamic_branches = dynamic_branches
    stats.taken_branches = taken_branches
    stats.branches_by_kind = {k: v for k, v in branch_counts.items() if v}
    stats.unique_blocks = len(set(blocks))
    unique_branches = set()
    # Order-insensitive sink: only set membership is accumulated.
    for bi in set(blocks):  # staticcheck: disable=L103
        if kinds[bi] is not None:
            unique_branches.add(bi)
    stats.unique_branches = len(unique_branches)

    label = inp.label() if inp is not None else workload.name
    trace = Trace(blocks, takens, stats, label=label)
    if _PRECOMPILE:
        # Emit the batched per-unit records alongside the event lists
        # (vectorized gathers make this a negligible fraction of the
        # walk; without numpy it stays lazy so analysis-only traces
        # don't pay a Python-speed gather they may never use).
        trace.compiled_for(workload)
    return trace
