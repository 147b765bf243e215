"""Layer-1 verifier tests: golden plans pass, seeded defects are caught.

Mutation methodology (ISSUE 4): build the real plan for a workload,
assert it verifies clean, then seed exactly one defect per verifier
rule and assert the finding comes back with the right rule id at the
seeded location.
"""

from __future__ import annotations

import asyncio
import copy
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.core.plan import (
    BRCOALESCE_BYTES,
    BRPREFETCH_BYTES,
    InjectionOp,
    OP_COALESCE,
    OP_PREFETCH,
    PrefetchPlan,
)
from repro.core.twig import build_plan
from repro.errors import PlanError
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.profiling.collector import collect_profile
from repro.service.bench import collect_sample_stream
from repro.service.server import PlanService
from repro.staticcheck import (
    BlockGraph,
    gate_plan,
    plan_timeliness,
    verify_plan,
    verify_workload,
)
from repro.staticcheck.findings import Severity, exit_code
from repro.workloads.cfg import KIND_RETURN, build_workload
from repro.workloads.apps import app_names, get_app
from repro.trace.walker import generate_trace


CFG = SimConfig()


@pytest.fixture(scope="module")
def tiny_plan(tiny_workload, tiny_trace):
    profile = collect_profile(tiny_workload, tiny_trace, CFG)
    return build_plan(tiny_workload, profile, CFG)


@pytest.fixture(scope="module")
def graph(tiny_workload):
    return BlockGraph(tiny_workload, fetch_width_bytes=CFG.core.fetch_width_bytes)


def clone(plan: PrefetchPlan) -> PrefetchPlan:
    return copy.deepcopy(plan)


def errors(findings):
    return [f for f in findings if f.severity is Severity.ERROR]


def rules(findings):
    return {f.rule for f in findings}


def inline_prefetch_ops(plan):
    return [
        op
        for ops in plan.ops_by_block.values()
        for op in ops
        if op.kind == OP_PREFETCH and op.bytes_cost == BRPREFETCH_BYTES
    ]


def coalesce_ops(plan):
    return [
        op for ops in plan.ops_by_block.values() for op in ops if op.kind == OP_COALESCE
    ]


class TestGoldenPlansPass:
    def test_tiny_plan_error_free(self, tiny_plan, tiny_workload, graph):
        findings = verify_plan(tiny_plan, tiny_workload, CFG, graph=graph)
        assert errors(findings) == []
        # Timeliness warnings are expected (dynamic LBR leads include
        # stalls the static shortest path cannot see) and never gate.
        assert exit_code(findings) == 0

    def test_tiny_plan_is_nontrivial(self, tiny_plan):
        # The mutation suite below needs both op kinds and a table.
        assert inline_prefetch_ops(tiny_plan)
        assert coalesce_ops(tiny_plan)
        assert len(tiny_plan.table) > CFG.twig.coalesce_bits

    def test_tiny_workload_cfg_clean(self, tiny_workload):
        assert verify_workload(tiny_workload) == []


class TestSeededDefectsCaught:
    def test_p101_oversized_offset(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        pc, target, kcode = op.entries[0]
        bad = replace(op, entries=((pc, target + (1 << 40), kcode),))
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        hits = [f for f in errors(findings) if f.rule == "P101"]
        assert hits and f"block[{op.block}]" in hits[0].location

    def test_p102_unsorted_table(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        mutant.table = tuple(reversed(mutant.table))
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P102" in rules(errors(findings))

    def test_p102_duplicate_table_entry(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        mutant.table = (mutant.table[0],) + mutant.table
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P102" in rules(errors(findings))

    def test_p103_window_exceeds_bitmask(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = coalesce_ops(mutant)[0]
        # Two genuine table entries whose slot span exceeds the mask.
        far = CFG.twig.coalesce_bits + 5
        bad = replace(op, entries=(mutant.table[0], mutant.table[far]))
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        hits = [f for f in errors(findings) if f.rule == "P103"]
        assert hits and f"block[{op.block}]" in hits[0].location

    def test_p103_entry_not_in_table(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = coalesce_ops(mutant)[0]
        pc, target, kcode = op.entries[0]
        bad = replace(op, entries=((pc, target + 2, kcode),) + op.entries[1:])
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P103" in rules(errors(findings))

    def test_p104_bad_bytes_cost(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        bad = replace(op, bytes_cost=5)
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P104" in rules(errors(findings))

    def test_p104_coalesce_overwide_mask(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        block = coalesce_ops(mutant)[0].block
        # More entries than the bitmask has bits (consecutive slots, so
        # the window rule alone would pass them).
        wide = InjectionOp(
            kind=OP_COALESCE,
            block=block,
            entries=mutant.table[: CFG.twig.coalesce_bits + 1],
            bytes_cost=BRCOALESCE_BYTES,
        )
        mutant.ops_by_block[block].append(wide)
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P104" in rules(errors(findings))

    def test_p105_block_out_of_range(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        bad = replace(op, block=tiny_workload.n_blocks + 7)
        mutant.ops_by_block.setdefault(bad.block, []).append(bad)
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P105" in rules(errors(findings))

    def test_p105_unreachable_site(self, tiny_plan, tiny_workload, graph):
        # A return block of a never-called function has no successors:
        # nothing is reachable from it.
        dead = [
            i
            for i in range(tiny_workload.n_blocks)
            if tiny_workload.kind_code[i] == KIND_RETURN and not graph.successors[i]
        ]
        assert dead, "tiny workload should contain never-called functions"
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        bad = replace(op, block=dead[0])
        mutant.ops_by_block.setdefault(dead[0], []).append(bad)
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        hits = [f for f in errors(findings) if f.rule == "P105"]
        assert hits and any(f"block[{dead[0]}]" in f.location for f in hits)

    def test_p105_self_site(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        pc = op.entries[0][0]
        branch_block = tiny_workload.branch_pc.index(pc)
        bad = replace(op, block=branch_block)
        mutant.ops_by_block.setdefault(branch_block, []).append(bad)
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        hits = [f for f in errors(findings) if f.rule == "P105"]
        assert any("own" in f.message for f in hits)

    def test_p106_pc_not_a_terminator(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        pc, target, kcode = op.entries[0]
        bad = replace(op, entries=((pc + 1, target, kcode),))
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P106" in rules(errors(findings))

    def test_p106_wrong_kind(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        pc, target, kcode = op.entries[0]
        bad = replace(op, entries=((pc, target, kcode + 1),))
        ops = mutant.ops_by_block[op.block]
        ops[ops.index(op)] = bad
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P106" in rules(errors(findings))

    def test_p107_too_short_distance(self, tiny_plan, tiny_workload, graph):
        # Seed an op one block before its branch: the static lead is a
        # couple of fetch units, far below prefetch_distance.
        mutant = clone(tiny_plan)
        op = inline_prefetch_ops(mutant)[0]
        pc = op.entries[0][0]
        branch_block = tiny_workload.branch_pc.index(pc)
        preds = [
            b for b in range(tiny_workload.n_blocks)
            if branch_block in graph.successors[b] and b != branch_block
        ]
        assert preds, "branch block should have a predecessor"
        site = preds[0]
        bad = replace(op, block=site)
        mutant.ops_by_block.setdefault(site, []).append(bad)
        findings = plan_timeliness(mutant, tiny_workload, CFG, graph=graph)
        hits = [
            f
            for f in findings
            if f.rule == "P107" and f"block[{site}]->block[{branch_block}]" in f.location
        ]
        assert hits
        assert all(f.severity is Severity.WARNING for f in hits)

    def test_p108_coverage_inversion(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        mutant.misses_with_site = mutant.misses_targeted + 1
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P108" in rules(errors(findings))

    def test_p108_misfiled_op(self, tiny_plan, tiny_workload, graph):
        mutant = clone(tiny_plan)
        blocks = sorted(mutant.ops_by_block)
        op = mutant.ops_by_block[blocks[0]][0]
        # File an op under a key that is not its own block.
        mutant.ops_by_block[blocks[1]].append(op)
        findings = verify_plan(mutant, tiny_workload, CFG, graph=graph)
        assert "P108" in rules(errors(findings))


class TestWorkloadMutations:
    def test_c_rules_on_broken_arrays(self, tiny_workload):
        wl = copy.copy(tiny_workload)
        wl.block_start = list(tiny_workload.block_start)
        wl.branch_pc = list(tiny_workload.branch_pc)
        wl.kind_code = list(tiny_workload.kind_code)
        # C103: a terminator pc outside its block.
        idx = next(i for i, pc in enumerate(wl.branch_pc) if pc >= 0)
        wl.branch_pc[idx] = wl.block_start[idx] + wl.block_size[idx] + 4
        found = {f.rule for f in verify_workload(wl)}
        assert "C103" in found

    def test_c104_kind_code_drift(self, tiny_workload):
        wl = copy.copy(tiny_workload)
        wl.kind_code = list(tiny_workload.kind_code)
        idx = next(i for i, k in enumerate(wl.kind_code) if k != 0)
        wl.kind_code[idx] = 0
        found = {f.rule for f in verify_workload(wl)}
        assert "C104" in found


class TestRunnerIntegration:
    """--check-plans (RunnerSettings.check_plans) wiring in ExperimentRunner."""

    SETTINGS = RunnerSettings(
        trace_instructions=30_000, apps=("wordpress",), sample_rate=1
    )

    def test_golden_plan_passes_verification(self):
        runner = ExperimentRunner(replace(self.SETTINGS, check_plans=True))
        plan = runner.plan("wordpress")
        assert plan.total_ops() > 0

    def test_malformed_plan_is_refused(self, monkeypatch):
        def bad_build(wl, profile, cfg):
            plan = build_plan(wl, profile, cfg)
            mutant = clone(plan)
            mutant.table = tuple(reversed(mutant.table))
            return mutant

        monkeypatch.setattr("repro.experiments.runner.build_plan", bad_build)
        runner = ExperimentRunner(replace(self.SETTINGS, check_plans=True))
        with pytest.raises(PlanError, match="P102"):
            runner.plan("wordpress")

    def test_verification_off_by_default(self):
        assert ExperimentRunner(self.SETTINGS).settings.check_plans is False


class TestNoGateRunsTheLeadSearch:
    """P107 is report-only: neither gate calls ``BlockGraph.min_lead``."""

    @staticmethod
    def refuse_lead_search(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a gate ran the P107 lead search")

        monkeypatch.setattr(BlockGraph, "min_lead", refuse)

    @staticmethod
    def publish(workload, trace):
        """The first plan a PlanService publishes for *trace*'s samples."""
        profile, stream = collect_sample_stream(workload, trace, CFG)

        async def scenario():
            service = PlanService(workload_for=lambda app: workload, sim_config=CFG)
            async with service:
                await service.ingest("tinyapp", profile.input_label, stream)
                return await service.get_plan("tinyapp", profile.input_label)

        return asyncio.run(scenario())

    def test_service_publish(self, tiny_workload, tiny_trace, monkeypatch):
        self.refuse_lead_search(monkeypatch)
        assert self.publish(tiny_workload, tiny_trace).version == 1

    def test_runner_check_plans(self, monkeypatch):
        self.refuse_lead_search(monkeypatch)
        runner = ExperimentRunner(
            replace(TestRunnerIntegration.SETTINGS, check_plans=True)
        )
        assert runner.plan("wordpress").total_ops() > 0

    def test_plan_timeliness_still_reports_p107(
        self, tiny_workload, tiny_trace, monkeypatch
    ):
        self.refuse_lead_search(monkeypatch)
        version = self.publish(tiny_workload, tiny_trace)
        monkeypatch.undo()
        findings = plan_timeliness(version.plan, tiny_workload, CFG)
        assert findings and {f.rule for f in findings} == {"P107"}


def test_concurrent_gates_build_one_graph(tiny_plan, tiny_workload, monkeypatch):
    # A copy is a workload the graph cache has not seen.
    workload = copy.copy(tiny_workload)
    built = []
    init = BlockGraph.__init__

    def counting_init(graph, *args, **kwargs):
        built.append(1)
        init(graph, *args, **kwargs)

    monkeypatch.setattr(BlockGraph, "__init__", counting_init)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(gate_plan, tiny_plan, workload, CFG)
                for _ in range(16)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [None] * 16
    assert len(built) == 1


@pytest.mark.slow
class TestAllAppsGoldenPlansPass:
    """Every paper app's real plan verifies with zero errors."""

    def test_all_nine_apps(self):
        cfg = SimConfig()
        for app in app_names():
            wl = build_workload(get_app(app), seed=0)
            tr = generate_trace(wl, wl.spec.make_input(0), max_instructions=15_000)
            profile = collect_profile(wl, tr, cfg)
            plan = build_plan(wl, profile, cfg)
            assert verify_workload(wl) == [], app
            graph = BlockGraph(wl, fetch_width_bytes=cfg.core.fetch_width_bytes)
            findings = verify_plan(plan, wl, cfg, graph=graph)
            assert errors(findings) == [], (app, errors(findings)[:3])
            # And one seeded defect per app still trips the verifier.
            if plan.table:
                mutant = clone(plan)
                mutant.table = tuple(reversed(mutant.table))
                assert "P102" in rules(
                    errors(verify_plan(mutant, wl, cfg, graph=graph))
                ), app
