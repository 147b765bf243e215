"""Decoupled-frontend timing simulator (DESIGN.md §5).

Trace-driven, one pass, O(1) per fetch unit.  Two clocks move through
the committed path:

* ``bpu`` — the branch-prediction unit processes one fetch unit per
  cycle while the FTQ has room (FDIP run-ahead).  BTB misses on taken
  direct branches charge a resteer and stall the BPU; direction/target
  mispredictions charge a full flush.  On enqueue, FDIP issues I-cache
  prefetches for the unit's lines.
* ``fetch`` — consumes units in order, no earlier than a cycle after
  prediction, no earlier than its lines' arrival, at one-or-more cycles
  per block depending on byte size.

Retirement is width-limited; the final retire time is the cycle count.
Because the trace is the committed path, wrong-path fetch pollution is
not modelled (documented substitution, DESIGN.md §2).
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..frontend.direction import TageLite
from ..frontend.ibtb import IndirectBTB
from ..frontend.ras import ReturnAddressStack
from ..memory.hierarchy import MemoryHierarchy
from ..prefetchers.base import (
    BTBSystem,
    BaselineBTBSystem,
    LOOKUP_COVERED,
    LOOKUP_MISS,
)
from ..trace.events import Trace
from ..validate.invariants import Sanitizer
from ..workloads.cfg import (
    KIND_CALL,
    KIND_CALL_IND,
    KIND_COND,
    KIND_JUMP_IND,
    KIND_NONE,
    KIND_RETURN,
    KIND_UNCOND,
    Workload,
)
from .results import SimResult

_KIND_NAMES = {
    KIND_COND: "cond_direct",
    KIND_UNCOND: "uncond_direct",
    KIND_CALL: "call_direct",
}

class FrontendSimulator:
    """One simulator instance per (workload, config, BTB system)."""

    # The loop is not selectable: run() takes the fast loop whenever
    # fast_block_reason() is None.  The constant stays for callers that
    # still read it, such as the benchmark suite's traced wrapper.
    mode = "auto"

    def __init__(
        self,
        workload: Workload,
        config: Optional[SimConfig] = None,
        btb_system: Optional[BTBSystem] = None,
        lbr_recorder=None,
    ):
        self.workload = workload
        self.config = config if config is not None else SimConfig()
        self.btb_system = (
            btb_system if btb_system is not None else BaselineBTBSystem(self.config)
        )
        attach = getattr(self.btb_system, "attach_hierarchy", None)
        self.lbr_recorder = lbr_recorder
        self.hierarchy = MemoryHierarchy(self.config.memory)
        if attach is not None:
            attach(self.hierarchy)
        self.tage = TageLite(self.config.frontend)
        self.ras = ReturnAddressStack(self.config.frontend.ras_entries)
        self.ibtb = IndirectBTB(self.config.frontend.ibtb)
        # Runtime invariant checks (repro.validate): off by default, so
        # plain runs carry nothing beyond a None test per fetch unit.
        self.sanitizer: Optional[Sanitizer] = None
        if self.config.sanitize:
            self.sanitizer = Sanitizer()
            self.ras.attach_sanitizer(self.sanitizer)
            self.ibtb.attach_sanitizer(self.sanitizer)
            attach_san = getattr(self.btb_system, "attach_sanitizer", None)
            if attach_san is not None:
                attach_san(self.sanitizer)
        self._fetch_cycles = workload.fetch_cycles(self.config.core.fetch_width_bytes)
        # Steady-state assumption: a long-running server's text is
        # L2/L3-resident (see MemoryHierarchy.prewarm).
        self.hierarchy.prewarm(workload.text_lines)

    # ------------------------------------------------------------------
    def fast_block_reason(self) -> Optional[str]:
        """Why the batched path cannot run, or ``None`` when it can.

        The fast path virtualizes the direction predictor (its outcomes
        are precomputed from a zero state) and strips the per-unit
        callback points, so anything that needs them pins the run to
        the serial loop.
        """
        if self.sanitizer is not None:
            return (
                "sanitize is enabled; the sanitized serial path is the "
                "parity reference"
            )
        if self.lbr_recorder is not None:
            return "an LBR recorder needs the serial per-unit callbacks"
        if self.tage.predictions:
            return (
                "the direction predictor is already trained; the batched "
                "outcome sweep assumes a fresh simulator"
            )
        return None

    def run(self, trace: Trace, label: str = "", warmup_units: int = 0) -> SimResult:
        """Simulate *trace* and return the measured counters.

        ``warmup_units`` fetch units are simulated with full structural
        state (BTB, caches, predictor training) but excluded from every
        counter, so measurements reflect steady state rather than
        cold-start compulsory misses.

        The run takes the batched loop whenever :meth:`fast_block_reason`
        is ``None`` and the serial loop otherwise.  The two are
        counter-for-counter identical (the parity suite pins this).
        """
        if self.fast_block_reason() is None:
            return self._run_fast(trace, label, warmup_units)
        return self._run_serial(trace, label, warmup_units)

    # ------------------------------------------------------------------
    def _run_serial(self, trace: Trace, label: str, warmup_units: int) -> SimResult:
        """The original per-event loop: sanitizer home, parity reference."""
        wl = self.workload
        cfg = self.config
        sysm = self.btb_system

        # Hot-loop locals.
        tr_blocks = trace.blocks
        tr_takens = trace.takens
        n_units = len(tr_blocks)
        kind_code = wl.kind_code
        branch_pc = wl.branch_pc
        block_start = wl.block_start
        block_size = wl.block_size
        block_instr = wl.block_instructions
        block_lines = wl.block_lines
        fetch_cycles = self._fetch_cycles

        ideal_btb = cfg.ideal_btb
        ideal_icache = cfg.ideal_icache
        resteer_penalty = cfg.core.btb_miss_penalty
        flush_penalty = cfg.core.mispredict_penalty
        width = float(cfg.core.width)
        ftq_size = cfg.frontend.ftq_size

        lookup = sysm.lookup
        fill = sysm.fill
        ops_blocks = sysm.ops_blocks
        on_block_fetched = sysm.on_block_fetched
        wants_taken = (
            type(sysm).on_taken_branch is not BTBSystem.on_taken_branch
        )
        on_taken = sysm.on_taken_branch
        wants_lines = (
            type(sysm).on_line_fetched is not BTBSystem.on_line_fetched
        )
        on_line = sysm.on_line_fetched

        tage_update = self.tage.update
        ras_push = self.ras.push
        ras_check = self.ras.predict_and_check
        ibtb_predict = self.ibtb.predict
        ibtb_outcome = self.ibtb.record_outcome
        l1_contains = self.hierarchy.l1i.contains
        access_line = self.hierarchy.access_line

        rec = self.lbr_recorder
        rec_step = rec.record if rec is not None else None
        rec_miss = rec.on_miss if rec is not None else None

        san = self.sanitizer
        prev_bpu = prev_fetch = prev_retire = 0.0

        # Counters.
        res = SimResult(label=label or trace.label)
        acc_by_kind = {name: 0 for name in _KIND_NAMES.values()}
        miss_by_kind = {name: 0 for name in _KIND_NAMES.values()}
        btb_accesses = 0
        btb_misses = 0
        btb_covered = 0
        cond_misp = 0
        ind_misp = 0
        ras_misp = 0
        fetch_stalls = 0
        prefetch_ops = 0
        extra_instr_total = 0
        instructions = 0

        # Clocks and queues.
        bpu = 0.0
        fetch = 0.0
        retire = 0.0
        fetch_floor = 0.0  # pipeline-refill floor after a resteer/flush
        inflight = {}  # line -> ready cycle
        ftq_ring = [0.0] * ftq_size  # fetch completion of unit i - ftq_size
        retire_at_warmup = 0.0
        pf_issued_snap = 0
        pf_used_snap = 0
        l1_miss_snap = 0

        if warmup_units >= n_units:
            raise SimulationError(
                f"warmup ({warmup_units}) must be shorter than the trace ({n_units})"
            )

        for i in range(n_units):
            if i == warmup_units and i > 0:
                # Measurement window starts: discard cold-start counters.
                retire_at_warmup = retire
                btb_accesses = btb_misses = btb_covered = 0
                acc_by_kind = {name: 0 for name in _KIND_NAMES.values()}
                miss_by_kind = {name: 0 for name in _KIND_NAMES.values()}
                cond_misp = ind_misp = ras_misp = 0
                fetch_stalls = 0
                prefetch_ops = extra_instr_total = instructions = 0
                pf_issued_snap = self.btb_system.prefetches_issued()
                pf_used_snap = self.btb_system.prefetches_used()
                l1_miss_snap = self.hierarchy.l1i.misses
            blk = tr_blocks[i]
            taken = tr_takens[i]

            # --- BPU: wait for an FTQ slot, process one unit/cycle -----
            slot_free = ftq_ring[i % ftq_size]
            bpu = bpu + 1.0 if bpu + 1.0 >= slot_free else slot_free
            if san is not None:
                # Stamp the clock first so any structure check this
                # unit triggers reports the right cycle.
                san.cycle = bpu

            kind = kind_code[blk]
            penalty = 0.0
            if kind != KIND_NONE:
                pc = branch_pc[blk]
                if kind == KIND_COND:
                    btb_accesses += 1
                    acc_by_kind["cond_direct"] += 1
                    if not tage_update(pc, bool(taken)):
                        cond_misp += 1
                        penalty = flush_penalty
                    if taken:
                        if ideal_btb:
                            pass
                        else:
                            r = lookup(pc, kind, bpu)
                            if r == LOOKUP_MISS:
                                btb_misses += 1
                                miss_by_kind["cond_direct"] += 1
                                if penalty < resteer_penalty:
                                    penalty = resteer_penalty
                                # The final unit has no successor: there
                                # is no real target to fill, so skip
                                # rather than fabricate target 0.
                                if i + 1 < n_units:
                                    fill(pc, block_start[tr_blocks[i + 1]], kind, bpu)
                                if rec_miss is not None:
                                    rec_miss(pc, blk, bpu)
                            elif r == LOOKUP_COVERED:
                                btb_covered += 1
                elif kind == KIND_UNCOND or kind == KIND_CALL:
                    name = "uncond_direct" if kind == KIND_UNCOND else "call_direct"
                    btb_accesses += 1
                    acc_by_kind[name] += 1
                    if kind == KIND_CALL:
                        ras_push(block_start[blk] + block_size[blk])
                    if not ideal_btb:
                        r = lookup(pc, kind, bpu)
                        if r == LOOKUP_MISS:
                            btb_misses += 1
                            miss_by_kind[name] += 1
                            penalty = resteer_penalty
                            if i + 1 < n_units:
                                fill(pc, block_start[tr_blocks[i + 1]], kind, bpu)
                            if rec_miss is not None:
                                rec_miss(pc, blk, bpu)
                        elif r == LOOKUP_COVERED:
                            btb_covered += 1
                elif kind == KIND_RETURN:
                    actual = block_start[tr_blocks[i + 1]] if i + 1 < n_units else 0
                    if not ras_check(actual):
                        ras_misp += 1
                        penalty = flush_penalty
                elif kind == KIND_CALL_IND or kind == KIND_JUMP_IND:
                    actual = block_start[tr_blocks[i + 1]] if i + 1 < n_units else 0
                    predicted = ibtb_predict(pc)
                    if kind == KIND_CALL_IND:
                        ras_push(block_start[blk] + block_size[blk])
                    if not ibtb_outcome(pc, predicted, actual):
                        ind_misp += 1
                        penalty = flush_penalty

                if taken and wants_taken and i + 1 < n_units:
                    # Final-unit guard as for fill(): training hooks
                    # never see a fabricated target of 0.
                    on_taken(pc, block_start[tr_blocks[i + 1]], kind, bpu)

            if penalty:
                # A resteer/flush: the run-ahead the BPU had built is
                # wrong-path (it followed the fallthrough), so FDIP's
                # prefetch lead collapses to zero.  The BPU redirects
                # almost immediately and starts rebuilding the queue,
                # but fetched instructions cannot complete until the
                # pipeline refills — fetch pays the penalty while the
                # BPU races ahead re-issuing prefetches.
                restart = fetch if fetch > bpu else bpu
                bpu = restart + 2.0
                if restart + penalty > fetch_floor:
                    fetch_floor = restart + penalty

            # --- FDIP: issue I-cache prefetches for the unit's lines ---
            if ideal_icache:
                lines_ready = bpu
            else:
                lines_ready = bpu
                for line in block_lines[blk]:
                    ready = inflight.get(line, -1.0)
                    if ready < bpu:
                        if l1_contains(line):
                            ready = bpu
                        else:
                            lat = access_line(line, True)
                            ready = bpu + lat
                            if wants_lines:
                                on_line(line, ready)
                        inflight[line] = ready
                    if ready > lines_ready:
                        lines_ready = ready

            # --- Fetch: in order, after prediction and line arrival ----
            base = fetch + fetch_cycles[blk]
            after_bpu = bpu + 1.0
            if after_bpu > base:
                base = after_bpu
            if fetch_floor > base:
                base = fetch_floor
            if lines_ready > base:
                fetch_stalls += lines_ready - base
                base = lines_ready
            fetch = base
            ftq_ring[i % ftq_size] = fetch

            # --- Software prefetch ops fire when their block is fetched
            n_instr = block_instr[blk]
            if blk in ops_blocks:
                extra, n_ops = on_block_fetched(blk, fetch)
                n_instr += extra
                extra_instr_total += extra
                prefetch_ops += n_ops

            instructions += n_instr
            if rec_step is not None:
                rec_step(blk, bpu)

            # --- Retire: width-limited ---------------------------------
            floor = fetch + 2.0
            if retire < floor:
                retire = floor
            retire += n_instr / width

            if san is not None:
                # Per-unit accounting identities: the three clocks only
                # move forward, fetch never precedes prediction, and the
                # BTB outcome counters stay mutually consistent.
                san.checks += 1
                if bpu < prev_bpu or fetch < prev_fetch or retire < prev_retire:
                    san.fail(
                        "sim",
                        f"clock ran backwards at unit {i}: "
                        f"bpu {prev_bpu:.1f}->{bpu:.1f}, "
                        f"fetch {prev_fetch:.1f}->{fetch:.1f}, "
                        f"retire {prev_retire:.1f}->{retire:.1f}",
                    )
                if fetch < bpu:
                    san.fail(
                        "sim",
                        f"unit {i} fetched at {fetch:.1f} before its "
                        f"prediction at {bpu:.1f}",
                    )
                if btb_misses + btb_covered > btb_accesses:
                    san.fail(
                        "sim",
                        f"misses ({btb_misses}) + covered ({btb_covered}) "
                        f"exceed BTB accesses ({btb_accesses}) at unit {i}",
                    )
                prev_bpu, prev_fetch, prev_retire = bpu, fetch, retire

        if retire <= 0:
            raise SimulationError("simulation produced no cycles")

        res.instructions = instructions
        res.cycles = int(retire - retire_at_warmup) + 1
        res.btb_accesses = btb_accesses
        res.btb_misses = btb_misses
        res.btb_covered_misses = btb_covered
        res.btb_accesses_by_kind = acc_by_kind
        res.btb_misses_by_kind = miss_by_kind
        res.cond_mispredicts = cond_misp
        res.indirect_mispredicts = ind_misp
        res.ras_mispredicts = ras_misp
        res.fetch_stall_cycles = int(fetch_stalls)
        res.resteer_cycles = btb_misses * cfg.core.btb_miss_penalty
        res.mispredict_cycles = (cond_misp + ind_misp + ras_misp) * cfg.core.mispredict_penalty
        res.icache_demand_misses = self.hierarchy.l1i.misses - l1_miss_snap
        res.prefetches_issued = self.btb_system.prefetches_issued() - pf_issued_snap
        res.prefetches_used = self.btb_system.prefetches_used() - pf_used_snap
        res.prefetch_ops_executed = prefetch_ops
        res.extra_dynamic_instructions = extra_instr_total
        if san is not None:
            # Final deep sweep: every structure the run touched, then
            # the result-level accounting identities.
            san.check_system(sysm)
            san.check_ras(self.ras)
            san.check_ibtb(self.ibtb)
            res.validate()
        return res

    # ------------------------------------------------------------------
    def _run_fast(self, trace: Trace, label: str, warmup_units: int) -> SimResult:
        """Batched run loop (DESIGN.md §12).

        Mirrors ``_run_serial`` operation-for-operation — the same
        float arithmetic in the same order, the same structure calls
        with the same arguments — with two substitutions:

        * direction-predictor outcomes come from the trace's
          precomputed sweep (:meth:`CompiledTrace.direction_outcomes`)
          instead of per-unit ``TageLite.update`` calls, and
        * *simple* units (branchless blocks and correctly predicted
          not-taken conditionals, away from prefetch-op blocks) take a
          trimmed sub-loop that skips branch dispatch entirely.

        Every miss, misprediction, taken branch, indirect/return unit,
        and prefetch-op block falls back to the full per-event body, so
        stateful structures observe an identical call sequence and the
        results are counter-for-counter identical to the serial path.
        """
        wl = self.workload
        cfg = self.config
        sysm = self.btb_system

        tr_blocks = trace.blocks
        tr_takens = trace.takens
        n_units = len(tr_blocks)
        if warmup_units >= n_units:
            raise SimulationError(
                f"warmup ({warmup_units}) must be shorter than the trace ({n_units})"
            )

        compiled = trace.compiled_for(wl)
        correct_flags = compiled.direction_outcomes(cfg.frontend)
        ops_blocks = sysm.ops_blocks
        simple = compiled.simple_flags(cfg.frontend, ops_blocks)
        kinds = compiled.kinds
        pcs = compiled.pcs

        block_start = wl.block_start
        block_size = wl.block_size
        block_instr = wl.block_instructions
        block_lines = wl.block_lines
        fetch_cycles = self._fetch_cycles

        ideal_btb = cfg.ideal_btb
        ideal_icache = cfg.ideal_icache
        resteer_penalty = cfg.core.btb_miss_penalty
        flush_penalty = cfg.core.mispredict_penalty
        width = float(cfg.core.width)
        ftq_size = cfg.frontend.ftq_size

        lookup = sysm.lookup
        fill = sysm.fill
        on_block_fetched = sysm.on_block_fetched
        has_ops = bool(ops_blocks)
        wants_taken = (
            type(sysm).on_taken_branch is not BTBSystem.on_taken_branch
        )
        on_taken = sysm.on_taken_branch
        wants_lines = (
            type(sysm).on_line_fetched is not BTBSystem.on_line_fetched
        )
        on_line = sysm.on_line_fetched

        ras_push = self.ras.push
        ras_check = self.ras.predict_and_check
        ibtb_predict = self.ibtb.predict
        ibtb_outcome = self.ibtb.record_outcome
        l1_contains = self.hierarchy.l1i.contains
        access_line = self.hierarchy.access_line

        # Counters (ints in the loop; dicts materialized at the end).
        res = SimResult(label=label or trace.label)
        acc_cond = acc_uncond = acc_call = 0
        miss_cond = miss_uncond = miss_call = 0
        btb_accesses = 0
        btb_misses = 0
        btb_covered = 0
        cond_misp = 0
        ind_misp = 0
        ras_misp = 0
        fetch_stalls = 0
        prefetch_ops = 0
        extra_instr_total = 0
        instructions = 0
        ci = 0  # cursor into correct_flags (one per conditional unit)

        # Clocks and queues.
        bpu = 0.0
        fetch = 0.0
        retire = 0.0
        fetch_floor = 0.0
        inflight = {}
        inflight_get = inflight.get
        ftq_ring = [0.0] * ftq_size
        retire_at_warmup = 0.0
        pf_issued_snap = 0
        pf_used_snap = 0
        l1_miss_snap = 0

        for i in range(n_units):
            if i == warmup_units and i > 0:
                retire_at_warmup = retire
                btb_accesses = btb_misses = btb_covered = 0
                acc_cond = acc_uncond = acc_call = 0
                miss_cond = miss_uncond = miss_call = 0
                cond_misp = ind_misp = ras_misp = 0
                fetch_stalls = 0
                prefetch_ops = extra_instr_total = instructions = 0
                pf_issued_snap = self.btb_system.prefetches_issued()
                pf_used_snap = self.btb_system.prefetches_used()
                l1_miss_snap = self.hierarchy.l1i.misses
            blk = tr_blocks[i]

            # --- BPU: wait for an FTQ slot, process one unit/cycle -----
            slot_free = ftq_ring[i % ftq_size]
            bpu = bpu + 1.0 if bpu + 1.0 >= slot_free else slot_free

            if simple[i]:
                # Bulk path: no lookup, no penalty, no hooks — only the
                # BTB access counter (not-taken conditionals) plus the
                # FDIP/fetch/retire clock arithmetic of the serial body.
                if kinds[i]:
                    btb_accesses += 1
                    acc_cond += 1
                    ci += 1
                if ideal_icache:
                    lines_ready = bpu
                else:
                    lines_ready = bpu
                    for line in block_lines[blk]:
                        ready = inflight_get(line, -1.0)
                        if ready < bpu:
                            if l1_contains(line):
                                ready = bpu
                            else:
                                lat = access_line(line, True)
                                ready = bpu + lat
                                if wants_lines:
                                    on_line(line, ready)
                            inflight[line] = ready
                        if ready > lines_ready:
                            lines_ready = ready
                base = fetch + fetch_cycles[blk]
                after_bpu = bpu + 1.0
                if after_bpu > base:
                    base = after_bpu
                if fetch_floor > base:
                    base = fetch_floor
                if lines_ready > base:
                    fetch_stalls += lines_ready - base
                    base = lines_ready
                fetch = base
                ftq_ring[i % ftq_size] = fetch
                n_instr = block_instr[blk]
                instructions += n_instr
                floor = fetch + 2.0
                if retire < floor:
                    retire = floor
                retire += n_instr / width
                continue

            # --- Fallback: the full per-event body ---------------------
            taken = tr_takens[i]
            kind = kinds[i]
            penalty = 0.0
            if kind != KIND_NONE:
                pc = pcs[i]
                if kind == KIND_COND:
                    btb_accesses += 1
                    acc_cond += 1
                    correct = correct_flags[ci]
                    ci += 1
                    if not correct:
                        cond_misp += 1
                        penalty = flush_penalty
                    if taken:
                        if ideal_btb:
                            pass
                        else:
                            r = lookup(pc, kind, bpu)
                            if r == LOOKUP_MISS:
                                btb_misses += 1
                                miss_cond += 1
                                if penalty < resteer_penalty:
                                    penalty = resteer_penalty
                                if i + 1 < n_units:
                                    fill(pc, block_start[tr_blocks[i + 1]], kind, bpu)
                            elif r == LOOKUP_COVERED:
                                btb_covered += 1
                elif kind == KIND_UNCOND or kind == KIND_CALL:
                    btb_accesses += 1
                    if kind == KIND_UNCOND:
                        acc_uncond += 1
                    else:
                        acc_call += 1
                        ras_push(block_start[blk] + block_size[blk])
                    if not ideal_btb:
                        r = lookup(pc, kind, bpu)
                        if r == LOOKUP_MISS:
                            btb_misses += 1
                            if kind == KIND_UNCOND:
                                miss_uncond += 1
                            else:
                                miss_call += 1
                            penalty = resteer_penalty
                            if i + 1 < n_units:
                                fill(pc, block_start[tr_blocks[i + 1]], kind, bpu)
                        elif r == LOOKUP_COVERED:
                            btb_covered += 1
                elif kind == KIND_RETURN:
                    actual = block_start[tr_blocks[i + 1]] if i + 1 < n_units else 0
                    if not ras_check(actual):
                        ras_misp += 1
                        penalty = flush_penalty
                else:  # KIND_CALL_IND or KIND_JUMP_IND
                    actual = block_start[tr_blocks[i + 1]] if i + 1 < n_units else 0
                    predicted = ibtb_predict(pc)
                    if kind == KIND_CALL_IND:
                        ras_push(block_start[blk] + block_size[blk])
                    if not ibtb_outcome(pc, predicted, actual):
                        ind_misp += 1
                        penalty = flush_penalty

                if taken and wants_taken and i + 1 < n_units:
                    on_taken(pc, block_start[tr_blocks[i + 1]], kind, bpu)

            if penalty:
                restart = fetch if fetch > bpu else bpu
                bpu = restart + 2.0
                if restart + penalty > fetch_floor:
                    fetch_floor = restart + penalty

            # --- FDIP: issue I-cache prefetches for the unit's lines ---
            if ideal_icache:
                lines_ready = bpu
            else:
                lines_ready = bpu
                for line in block_lines[blk]:
                    ready = inflight_get(line, -1.0)
                    if ready < bpu:
                        if l1_contains(line):
                            ready = bpu
                        else:
                            lat = access_line(line, True)
                            ready = bpu + lat
                            if wants_lines:
                                on_line(line, ready)
                        inflight[line] = ready
                    if ready > lines_ready:
                        lines_ready = ready

            # --- Fetch: in order, after prediction and line arrival ----
            base = fetch + fetch_cycles[blk]
            after_bpu = bpu + 1.0
            if after_bpu > base:
                base = after_bpu
            if fetch_floor > base:
                base = fetch_floor
            if lines_ready > base:
                fetch_stalls += lines_ready - base
                base = lines_ready
            fetch = base
            ftq_ring[i % ftq_size] = fetch

            n_instr = block_instr[blk]
            if has_ops and blk in ops_blocks:
                extra, n_ops = on_block_fetched(blk, fetch)
                n_instr += extra
                extra_instr_total += extra
                prefetch_ops += n_ops

            instructions += n_instr

            # --- Retire: width-limited ---------------------------------
            floor = fetch + 2.0
            if retire < floor:
                retire = floor
            retire += n_instr / width

        if retire <= 0:
            raise SimulationError("simulation produced no cycles")

        # The predictor object never ran, but its accuracy counters are
        # part of the simulator's observable surface: account the whole
        # trace's precomputed stream (warmup included, as serial does).
        self.tage.predictions += len(correct_flags)
        self.tage.mispredictions += len(correct_flags) - sum(correct_flags)

        res.instructions = instructions
        res.cycles = int(retire - retire_at_warmup) + 1
        res.btb_accesses = btb_accesses
        res.btb_misses = btb_misses
        res.btb_covered_misses = btb_covered
        res.btb_accesses_by_kind = {
            "cond_direct": acc_cond,
            "uncond_direct": acc_uncond,
            "call_direct": acc_call,
        }
        res.btb_misses_by_kind = {
            "cond_direct": miss_cond,
            "uncond_direct": miss_uncond,
            "call_direct": miss_call,
        }
        res.cond_mispredicts = cond_misp
        res.indirect_mispredicts = ind_misp
        res.ras_mispredicts = ras_misp
        res.fetch_stall_cycles = int(fetch_stalls)
        res.resteer_cycles = btb_misses * cfg.core.btb_miss_penalty
        res.mispredict_cycles = (cond_misp + ind_misp + ras_misp) * cfg.core.mispredict_penalty
        res.icache_demand_misses = self.hierarchy.l1i.misses - l1_miss_snap
        res.prefetches_issued = self.btb_system.prefetches_issued() - pf_issued_snap
        res.prefetches_used = self.btb_system.prefetches_used() - pf_used_snap
        res.prefetch_ops_executed = prefetch_ops
        res.extra_dynamic_instructions = extra_instr_total
        return res


def simulate(
    workload: Workload,
    trace: Trace,
    config: Optional[SimConfig] = None,
    btb_system: Optional[BTBSystem] = None,
    label: str = "",
    lbr_recorder=None,
) -> SimResult:
    """Convenience wrapper: build a simulator and run one trace."""
    sim = FrontendSimulator(
        workload,
        config=config,
        btb_system=btb_system,
        lbr_recorder=lbr_recorder,
    )
    return sim.run(trace, label=label)
