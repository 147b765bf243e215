"""Cycle-semantics tests on hand-built micro-workloads.

These construct minimal Workload/Trace pairs by hand so the expected
timing behaviour can be reasoned about exactly: resteer costs, flush
costs, FDIP prefetch hiding, FTQ backpressure.
"""

from typing import List

import pytest

from repro.config import SimConfig
from repro.errors import TraceError
from repro.isa.blocks import BasicBlock
from repro.isa.branches import Branch, BranchKind
from repro.prefetchers.base import BaselineBTBSystem
from repro.trace.events import Trace, TraceStats
from repro.uarch.sim import simulate
from repro.workloads.cfg import Workload
from tests.conftest import make_tiny_spec, workload_from_blocks


def make_manual_workload(blocks: List[BasicBlock]) -> Workload:
    """Wrap hand-built blocks in a Workload (spec fields are cosmetic)."""
    return workload_from_blocks(blocks, make_tiny_spec(name="manual"))


def straightline_loop(n_blocks: int = 8, size: int = 32) -> Workload:
    """N blocks in sequence; the last jumps back to the first."""
    blocks = []
    for i in range(n_blocks):
        start = 0x1000 + i * size
        branch = None
        if i == n_blocks - 1:
            branch = Branch(
                pc=start + size - 4,
                kind=BranchKind.UNCOND_DIRECT,
                target=0x1000,
            )
        blocks.append(
            BasicBlock(
                index=i, start=start, size_bytes=size, instructions=4, branch=branch
            )
        )
    return make_manual_workload(blocks)


def loop_trace(workload: Workload, laps: int) -> Trace:
    n = workload.n_blocks
    blocks, takens = [], []
    for _ in range(laps):
        for i in range(n):
            blocks.append(i)
            takens.append(1 if i == n - 1 else 0)
    stats = TraceStats(
        instructions=sum(workload.block_instructions[b] for b in blocks),
        fetch_units=len(blocks),
        dynamic_branches=laps,
        taken_branches=laps,
    )
    return Trace(blocks, takens, stats, label="manual")


class TestSteadyStateLoop:
    def test_loop_reaches_one_unit_per_cycle(self):
        wl = straightline_loop()
        tr = loop_trace(wl, laps=200)
        cfg = SimConfig()
        res = simulate(wl, tr, cfg, BaselineBTBSystem(cfg))
        # One BTB miss on the first lap; afterwards ~1 unit/cycle.
        assert res.btb_misses == 1
        cycles_per_unit = res.cycles / len(tr)
        assert cycles_per_unit < 1.4

    def test_single_resteer_costs_about_penalty(self):
        wl = straightline_loop()
        cfg = SimConfig()
        short = simulate(wl, loop_trace(wl, 100), cfg, BaselineBTBSystem(cfg))
        longer = simulate(wl, loop_trace(wl, 101), cfg, BaselineBTBSystem(cfg))
        # Marginal lap cost is just its units (the miss happened lap 1).
        marginal = longer.cycles - short.cycles
        assert marginal <= wl.n_blocks + 2

    def test_ideal_btb_saves_penalty_once(self):
        from dataclasses import replace

        wl = straightline_loop()
        tr = loop_trace(wl, 100)
        cfg = SimConfig()
        base = simulate(wl, tr, cfg, BaselineBTBSystem(cfg))
        ideal = simulate(
            wl, tr, replace(cfg, ideal_btb=True), BaselineBTBSystem(cfg)
        )
        saved = base.cycles - ideal.cycles
        assert 0 < saved <= 3 * cfg.core.btb_miss_penalty + cfg.core.mispredict_penalty


class TestColdCodeStalls:
    def _cold_run(self, n_blocks: int, ftq: int) -> float:
        """Cycles/unit for a long never-repeating block sequence."""
        size = 64  # one line per block
        blocks = [
            BasicBlock(
                index=i,
                start=0x100000 + i * size,
                size_bytes=size,
                instructions=8,
                branch=None,
            )
            for i in range(n_blocks)
        ]
        wl = make_manual_workload(blocks)
        tr = Trace(
            list(range(n_blocks)),
            [0] * n_blocks,
            TraceStats(instructions=8 * n_blocks, fetch_units=n_blocks),
        )
        cfg = SimConfig().with_ftq(ftq)
        res = simulate(wl, tr, cfg, BaselineBTBSystem(cfg))
        return res.cycles / n_blocks

    def test_fdip_pipelines_cold_streaks(self):
        """With a deep FTQ, back-to-back L2 fetches overlap: the cost
        per line approaches 1 cycle, far below the full L2 latency."""
        cpu = self._cold_run(n_blocks=400, ftq=24)
        l2 = SimConfig().memory.l2.hit_latency
        assert cpu < l2 / 2

    def test_shallow_ftq_exposes_latency(self):
        deep = self._cold_run(n_blocks=400, ftq=24)
        shallow = self._cold_run(n_blocks=400, ftq=1)
        assert shallow > deep * 1.5


class TestMispredictCost:
    def test_flush_costs_more_than_resteer(self):
        """A conditional branch with alternating outcomes mispredicts
        until learned; flushes must dominate the clean-loop cost."""
        size = 32
        b0 = BasicBlock(
            index=0,
            start=0x1000,
            size_bytes=size,
            instructions=4,
            branch=Branch(
                pc=0x1000 + size - 4,
                kind=BranchKind.COND_DIRECT,
                target=0x1000 + 2 * size,
                fallthrough=0x1000 + size,
                taken_bias=0.5,
            ),
        )
        b1 = BasicBlock(index=1, start=0x1000 + size, size_bytes=size, instructions=4,
                        branch=Branch(pc=0x1000 + 2 * size - 4,
                                      kind=BranchKind.UNCOND_DIRECT, target=0x1000))
        b2 = BasicBlock(index=2, start=0x1000 + 2 * size, size_bytes=size, instructions=4,
                        branch=Branch(pc=0x1000 + 3 * size - 4,
                                      kind=BranchKind.UNCOND_DIRECT, target=0x1000))
        wl = make_manual_workload([b0, b1, b2])

        import random

        rng = random.Random(9)
        blocks, takens = [], []
        for _ in range(400):
            blocks.append(0)
            if rng.random() < 0.5:  # unlearnable coin flip
                takens.append(1)
                blocks.append(2)
            else:
                takens.append(0)
                blocks.append(1)
            takens.append(1)
        tr = Trace(blocks, takens,
                   TraceStats(instructions=4 * len(blocks), fetch_units=len(blocks)))
        cfg = SimConfig()
        res = simulate(wl, tr, cfg, BaselineBTBSystem(cfg))
        assert res.cond_mispredicts > 50
        assert res.mispredict_cycles > res.resteer_cycles
