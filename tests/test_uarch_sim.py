"""Timing simulator: counters, limit studies, warmup, sensitivity."""

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.prefetchers.base import BaselineBTBSystem
from repro.uarch.sim import FrontendSimulator, simulate


@pytest.fixture(scope="module")
def base_result(tiny_module_workload, tiny_module_trace):
    cfg = SimConfig()
    return simulate(
        tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg)
    )


@pytest.fixture(scope="module")
def tiny_module_workload():
    from repro.workloads.cfg import build_workload
    from tests.conftest import make_tiny_spec

    return build_workload(make_tiny_spec(), seed=7)


@pytest.fixture(scope="module")
def tiny_module_trace(tiny_module_workload):
    from repro.trace.walker import generate_trace

    return generate_trace(
        tiny_module_workload,
        tiny_module_workload.spec.make_input(0),
        max_instructions=60_000,
    )


class TestBasicRun:
    def test_counts_instructions(self, base_result, tiny_module_trace):
        assert base_result.instructions == tiny_module_trace.stats.instructions

    def test_positive_cycles_and_sane_ipc(self, base_result):
        assert base_result.cycles > 0
        assert 0.05 < base_result.ipc() < 6.0

    def test_btb_accesses_match_direct_branches(self, base_result, tiny_module_trace):
        from repro.isa.branches import BranchKind

        s = tiny_module_trace.stats
        direct = sum(
            s.branches_by_kind.get(k, 0)
            for k in (
                BranchKind.COND_DIRECT,
                BranchKind.UNCOND_DIRECT,
                BranchKind.CALL_DIRECT,
            )
        )
        assert base_result.btb_accesses == direct

    def test_miss_breakdown_sums(self, base_result):
        assert sum(base_result.btb_misses_by_kind.values()) == base_result.btb_misses

    def test_frontend_bound_in_unit_interval(self, base_result):
        assert 0.0 <= base_result.frontend_bound() <= 1.0

    def test_no_prefetches_in_baseline(self, base_result):
        assert base_result.prefetches_issued == 0
        assert base_result.prefetch_ops_executed == 0


class TestLimitStudies:
    def test_ideal_btb_removes_all_misses(self, tiny_module_workload, tiny_module_trace):
        cfg = replace(SimConfig(), ideal_btb=True)
        res = simulate(tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg))
        assert res.btb_misses == 0

    def test_ideal_btb_is_faster(self, tiny_module_workload, tiny_module_trace, base_result):
        cfg = replace(SimConfig(), ideal_btb=True)
        res = simulate(tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg))
        assert res.cycles < base_result.cycles

    def test_ideal_icache_removes_fetch_stalls(self, tiny_module_workload, tiny_module_trace):
        cfg = replace(SimConfig(), ideal_icache=True)
        res = simulate(tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg))
        assert res.fetch_stall_cycles == 0

    def test_both_ideal_fastest(self, tiny_module_workload, tiny_module_trace, base_result):
        cfg = replace(SimConfig(), ideal_btb=True, ideal_icache=True)
        res = simulate(tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg))
        assert res.cycles <= base_result.cycles


class TestWarmup:
    def test_warmup_shrinks_counted_window(self, tiny_module_workload, tiny_module_trace):
        cfg = SimConfig()
        sim = FrontendSimulator(tiny_module_workload, cfg, BaselineBTBSystem(cfg))
        warm = sim.run(tiny_module_trace, warmup_units=len(tiny_module_trace) // 2)
        cold = simulate(
            tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg)
        )
        assert warm.instructions < cold.instructions
        assert warm.cycles < cold.cycles

    def test_warmup_lowers_compulsory_miss_rate(self, tiny_module_workload, tiny_module_trace):
        cfg = SimConfig()
        sim = FrontendSimulator(tiny_module_workload, cfg, BaselineBTBSystem(cfg))
        warm = sim.run(tiny_module_trace, warmup_units=len(tiny_module_trace) // 2)
        cold = simulate(
            tiny_module_workload, tiny_module_trace, cfg, BaselineBTBSystem(cfg)
        )
        assert warm.btb_mpki() <= cold.btb_mpki() + 1e-9

    def test_warmup_longer_than_trace_rejected(self, tiny_module_workload, tiny_module_trace):
        cfg = SimConfig()
        sim = FrontendSimulator(tiny_module_workload, cfg, BaselineBTBSystem(cfg))
        with pytest.raises(SimulationError):
            sim.run(tiny_module_trace, warmup_units=len(tiny_module_trace) + 1)

    @pytest.mark.parametrize("mode", ["serial", "fast"])
    def test_warmup_equal_to_trace_rejected_in_both_modes(
        self, tiny_module_workload, tiny_module_trace, mode
    ):
        # A sanitized simulator runs the serial loop, a plain one the fast.
        cfg = SimConfig(sanitize=mode == "serial")
        sim = FrontendSimulator(tiny_module_workload, cfg, BaselineBTBSystem(cfg))
        assert (sim.fast_block_reason() is None) == (mode == "fast")
        with pytest.raises(SimulationError, match="warmup"):
            sim.run(tiny_module_trace, warmup_units=len(tiny_module_trace))

    def _parity(self, workload, trace, warmup):
        from repro.validate.parity import assert_results_identical

        cfg = SimConfig()
        serial_cfg = SimConfig(sanitize=True)
        serial = FrontendSimulator(
            workload, serial_cfg, BaselineBTBSystem(serial_cfg)
        ).run(trace, warmup_units=warmup)
        fast_sim = FrontendSimulator(workload, cfg, BaselineBTBSystem(cfg))
        assert fast_sim.fast_block_reason() is None
        fast = fast_sim.run(trace, warmup_units=warmup)
        assert_results_identical(serial, fast, context=f"warmup={warmup}")

    def test_warmup_of_all_but_one_unit_matches_serial(
        self, tiny_module_workload, tiny_module_trace
    ):
        self._parity(
            tiny_module_workload, tiny_module_trace, len(tiny_module_trace) - 1
        )

    def test_warmup_straddling_first_miss_matches_serial(
        self, tiny_module_workload, tiny_module_trace
    ):
        # The first taken direct branch is a compulsory BTB miss whose
        # resteer stall spans several cycles; warmup boundaries placed
        # just before, on, and just after it must reset the fast path's
        # counters at exactly the same instant as the serial loop's.
        from repro.isa.branches import BranchKind

        kinds = tiny_module_workload.branch_kind
        direct = (
            BranchKind.COND_DIRECT,
            BranchKind.UNCOND_DIRECT,
            BranchKind.CALL_DIRECT,
        )
        first_miss = next(
            i
            for i, (block, taken) in enumerate(tiny_module_trace)
            if taken and kinds[block] in direct
        )
        for warmup in (first_miss - 1, first_miss, first_miss + 1, first_miss + 2):
            if 0 < warmup < len(tiny_module_trace):
                self._parity(tiny_module_workload, tiny_module_trace, warmup)


class TestSensitivityDirections:
    """Directional checks that back the sweep figures."""

    def _run(self, wl, tr, cfg):
        return simulate(wl, tr, cfg, BaselineBTBSystem(cfg))

    def test_smaller_btb_more_misses(self, tiny_module_workload, tiny_module_trace):
        big = self._run(tiny_module_workload, tiny_module_trace, SimConfig())
        small = self._run(
            tiny_module_workload, tiny_module_trace, SimConfig().with_btb(entries=256)
        )
        assert small.btb_misses >= big.btb_misses

    def test_tiny_ftq_hurts(self, tiny_module_workload, tiny_module_trace):
        normal = self._run(tiny_module_workload, tiny_module_trace, SimConfig())
        narrow = self._run(
            tiny_module_workload, tiny_module_trace, SimConfig().with_ftq(1)
        )
        assert narrow.cycles >= normal.cycles

    def test_resteer_penalty_scales_cycles(self, tiny_module_workload, tiny_module_trace):
        from dataclasses import replace as drep

        cheap_cfg = SimConfig()
        dear_core = drep(cheap_cfg.core, btb_miss_penalty=40)
        dear_cfg = drep(cheap_cfg, core=dear_core)
        cheap = self._run(tiny_module_workload, tiny_module_trace, cheap_cfg)
        dear = self._run(tiny_module_workload, tiny_module_trace, dear_cfg)
        if cheap.btb_misses > 0:
            assert dear.cycles > cheap.cycles

    def test_run_deterministic(self, tiny_module_workload, tiny_module_trace):
        cfg = SimConfig()
        a = self._run(tiny_module_workload, tiny_module_trace, cfg)
        b = self._run(tiny_module_workload, tiny_module_trace, cfg)
        assert a.cycles == b.cycles
        assert a.btb_misses == b.btb_misses


class _RecordingBTBSystem(BaselineBTBSystem):
    """Captures every fill/training call the simulator issues."""

    def __init__(self, config):
        super().__init__(config)
        self.filled = []
        self.trained = []

    def fill(self, pc, target, kind_code, now):
        self.filled.append((pc, target))
        super().fill(pc, target, kind_code, now)

    def on_taken_branch(self, pc, target, kind_code, now):
        self.trained.append((pc, target))


class TestFinalUnitBoundary:
    """A trace ending on a taken BTB-missing branch must not fabricate
    a fill/training target of 0 — the final fetch unit has no successor
    block, so there is no real target to report."""

    def _slice_to_first_taken_direct(self, workload, trace):
        from repro.workloads.cfg import DIRECT_KIND_CODES

        kind_code = workload.kind_code
        for i, (blk, taken) in enumerate(zip(trace.blocks, trace.takens)):
            if taken and kind_code[blk] in DIRECT_KIND_CODES:
                return trace.slice(0, i + 1)
        pytest.skip("trace has no taken direct branch")

    def test_no_fabricated_zero_target_on_final_unit(
        self, tiny_module_workload, tiny_module_trace
    ):
        # End the trace at the *first* taken direct branch: the BTB is
        # still cold for that pc, so the final unit's lookup misses.
        short = self._slice_to_first_taken_direct(
            tiny_module_workload, tiny_module_trace
        )
        cfg = SimConfig()
        sysm = _RecordingBTBSystem(cfg)
        res = FrontendSimulator(
            tiny_module_workload, config=cfg, btb_system=sysm
        ).run(short)

        # The miss was counted ...
        assert res.btb_misses >= 1
        # ... but no fill or training hook ever saw target 0.
        assert all(target != 0 for _, target in sysm.filled)
        assert all(target != 0 for _, target in sysm.trained)

    def test_taken_hook_skips_only_the_final_unit(
        self, tiny_module_workload, tiny_module_trace
    ):
        short = tiny_module_trace.slice(0, 200)
        cfg = SimConfig()
        sysm = _RecordingBTBSystem(cfg)
        FrontendSimulator(
            tiny_module_workload, config=cfg, btb_system=sysm
        ).run(short)
        taken_units = sum(short.takens)
        skipped_final = 1 if short.takens[-1] else 0
        assert len(sysm.trained) == taken_units - skipped_final
