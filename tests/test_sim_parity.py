"""Fast-path parity: batched and serial simulation must agree exactly.

The batched run loop (DESIGN.md §12) is only admissible because it is
*provably* the same simulation: every :class:`SimResult` field —
including the float cycle counters — must match the serial reference
counter-for-counter, on every app, system, and warmup split.  The
reference side runs sanitized, which pins it to the serial loop; the
fast side first checks that nothing blocks the fast loop.  These tests
pin that contract, plus the simulator's own choice of loop.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.core.twig import build_plan
from repro.prefetchers.base import BaselineBTBSystem
from repro.prefetchers.confluence import ConfluenceBTBSystem, DEFAULT_LINE_CAPACITY
from repro.prefetchers.shotgun import ShotgunBTBSystem
from repro.profiling.collector import collect_profile
from repro.trace.walker import generate_trace
from repro.uarch.results import SimResult
from repro.uarch.sim import FrontendSimulator
from repro.validate.fuzz import fuzz_config, fuzz_spec
from repro.validate.parity import assert_results_identical, result_diffs
from repro.workloads.apps import app_names, get_app
from repro.workloads.cfg import build_workload
from repro.workloads.rng import make_rng

SYSTEMS = ("baseline", "ideal_btb", "ideal_icache", "shotgun", "confluence", "twig")

# Small-but-real traces: long enough that every system sees BTB misses,
# mispredictions, prefetch ops, and warmup resets on the fast path.
FAST_APPS = ("wordpress", "drupal", "verilator")
FAST_INSTRUCTIONS = 25_000


def _make_system(workload, cfg, system, plan):
    """Mirror ExperimentRunner._simulate's per-system construction."""
    scale = cfg.frontend.btb.entries / 8192
    if system == "shotgun":
        return ShotgunBTBSystem(
            workload,
            cfg,
            ubtb_entries=max(320, int(5120 * scale)),
            cbtb_entries=max(96, int(1536 * scale)),
        )
    if system == "confluence":
        return ConfluenceBTBSystem(
            workload, cfg, line_capacity=max(128, int(DEFAULT_LINE_CAPACITY * scale))
        )
    btb_system = BaselineBTBSystem(cfg)
    if system == "twig":
        btb_system.install_ops(plan.sim_ops())
    return btb_system


def _config_for(system: str) -> SimConfig:
    cfg = SimConfig()
    if system == "ideal_btb":
        return replace(cfg, ideal_btb=True)
    if system == "ideal_icache":
        return replace(cfg, ideal_icache=True)
    return cfg


@functools.lru_cache(maxsize=None)
def _app_fixture(app: str, instructions: int):
    workload = build_workload(get_app(app), seed=0)
    trace = generate_trace(
        workload, workload.spec.make_input(1), max_instructions=instructions
    )
    profile_trace = generate_trace(
        workload, workload.spec.make_input(0), max_instructions=instructions
    )
    cfg = SimConfig()
    plan = build_plan(workload, collect_profile(workload, profile_trace, cfg), cfg)
    return workload, trace, plan


def _fast_sim(workload, cfg, btb_system=None) -> FrontendSimulator:
    """A simulator that will take the fast loop (checked, not assumed)."""
    sim = FrontendSimulator(workload, config=cfg, btb_system=btb_system)
    assert sim.fast_block_reason() is None
    return sim


def _assert_parity(workload, trace, plan, system: str, warmup: int) -> None:
    cfg = _config_for(system)
    serial = FrontendSimulator(
        workload,
        config=replace(cfg, sanitize=True),
        btb_system=_make_system(workload, cfg, system, plan),
    ).run(trace, warmup_units=warmup)
    fast = _fast_sim(
        workload, cfg, _make_system(workload, cfg, system, plan)
    ).run(trace, warmup_units=warmup)
    assert_results_identical(
        serial, fast, context=f"{workload.name}/{system} warmup={warmup}"
    )


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("app", FAST_APPS)
def test_fast_matches_sanitized_serial(app, system):
    workload, trace, plan = _app_fixture(app, FAST_INSTRUCTIONS)
    for warmup in (0, len(trace) // 3):
        _assert_parity(workload, trace, plan, system, warmup)


@pytest.mark.slow
@pytest.mark.parametrize("app", sorted(app_names()))
def test_fast_matches_serial_all_apps(app):
    workload, trace, plan = _app_fixture(app, 60_000)
    for system in SYSTEMS:
        for warmup in (0, len(trace) // 3):
            _assert_parity(workload, trace, plan, system, warmup)


class TestFuzzCorpusParity:
    """Randomized mini-workloads with tiny, eviction-heavy geometries."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_geometry_parity(self, seed):
        rng = make_rng("test-sim-parity", seed)
        spec = fuzz_spec(seed, rng)
        cfg = replace(fuzz_config(rng), sanitize=False)
        workload = build_workload(spec, seed=seed)
        trace = generate_trace(
            workload, spec.make_input(rng.randrange(4)), max_instructions=4000
        )
        for warmup in (0, len(trace) // 3):
            serial = FrontendSimulator(
                workload, config=replace(cfg, sanitize=True)
            ).run(trace, warmup_units=warmup)
            fast = _fast_sim(workload, cfg).run(trace, warmup_units=warmup)
            assert_results_identical(
                serial, fast, context=f"fuzz seed={seed} warmup={warmup}"
            )

    def test_generic_tage_sweep_parity(self):
        """A non-default table count takes the TageLite replay path
        (``direction_batch._replay_outcomes``), not the unrolled sweep."""
        rng = make_rng("test-sim-parity", "generic")
        spec = fuzz_spec(991, rng)
        frontend = replace(SimConfig().frontend, tage_tables=3)
        cfg = replace(SimConfig(), frontend=frontend)
        workload = build_workload(spec, seed=991)
        trace = generate_trace(workload, spec.make_input(0), max_instructions=6000)
        serial = FrontendSimulator(
            workload, config=replace(cfg, sanitize=True)
        ).run(trace)
        fast = _fast_sim(workload, cfg).run(trace)
        assert_results_identical(serial, fast, context="tage_tables=3")


class TestResultDiffs:
    """The parity checker itself must cover every SimResult field."""

    # Field inventory pin: adding a counter to SimResult forces this
    # test (and the mutation sweep below) to acknowledge it, so a new
    # counter can never silently escape the parity guarantee.
    EXPECTED_FIELDS = {
        "label",
        "instructions",
        "cycles",
        "btb_accesses",
        "btb_misses",
        "btb_covered_misses",
        "btb_accesses_by_kind",
        "btb_misses_by_kind",
        "cond_mispredicts",
        "indirect_mispredicts",
        "ras_mispredicts",
        "prefetches_issued",
        "prefetches_used",
        "prefetch_ops_executed",
        "fetch_stall_cycles",
        "resteer_cycles",
        "mispredict_cycles",
        "icache_demand_misses",
        "extra_dynamic_instructions",
    }

    def test_field_inventory_pinned(self):
        assert {f.name for f in dataclasses.fields(SimResult)} == self.EXPECTED_FIELDS

    def test_every_field_mutation_detected(self, tiny_workload, tiny_trace):
        cfg = SimConfig(sanitize=True)
        base = FrontendSimulator(workload=tiny_workload, config=cfg).run(tiny_trace)
        assert result_diffs(base, base) == []
        for field in dataclasses.fields(SimResult):
            value = getattr(base, field.name)
            if isinstance(value, str):
                mutated = value + "-x"
            elif isinstance(value, dict):
                mutated = dict(value)
                mutated["__mutant__"] = 1
            else:
                mutated = value + 1
            perturbed = replace(base, **{field.name: mutated})
            diffs = result_diffs(base, perturbed)
            assert [name for name, _, _ in diffs] == [field.name]


@pytest.fixture()
def loops(monkeypatch):
    """The loop each run() takes: fast, serial, or profile (serial with
    an LBR recorder attached)."""
    taken = []
    real_serial = FrontendSimulator._run_serial
    real_fast = FrontendSimulator._run_fast

    def serial(sim, *args):
        taken.append("profile" if sim.lbr_recorder is not None else "serial")
        return real_serial(sim, *args)

    def fast(sim, *args):
        taken.append("fast")
        return real_fast(sim, *args)

    monkeypatch.setattr(FrontendSimulator, "_run_serial", serial)
    monkeypatch.setattr(FrontendSimulator, "_run_fast", fast)
    return taken


class TestLoopSelection:
    """run() takes the fast loop unless fast_block_reason() names a reason."""

    def test_mode_constant_is_auto(self):
        # Read by the benchmark suite's traced wrapper.
        assert FrontendSimulator.mode == "auto"

    def test_fresh_plain_run_takes_the_fast_loop(self, loops, tiny_workload, tiny_trace):
        FrontendSimulator(tiny_workload, config=SimConfig()).run(tiny_trace)
        assert loops == ["fast"]

    def test_sanitizer_takes_the_serial_loop(self, loops, tiny_workload, tiny_trace):
        sim = FrontendSimulator(tiny_workload, config=SimConfig(sanitize=True))
        assert "sanitiz" in sim.fast_block_reason()
        sim.run(tiny_trace)
        assert loops == ["serial"]

    def test_warm_predictor_takes_the_serial_loop(
        self, loops, tiny_workload, tiny_trace
    ):
        sim = FrontendSimulator(tiny_workload, config=SimConfig())
        sim.run(tiny_trace)
        assert "predictor" in sim.fast_block_reason()
        sim.run(tiny_trace)
        assert loops == ["fast", "serial"]

    def test_lbr_recorder_takes_the_serial_loop(self, loops, tiny_workload, tiny_trace):
        collect_profile(tiny_workload, tiny_trace, SimConfig())
        assert loops == ["profile"]


class TestSweepGoldenMetrics:
    """The default experiment sweep runs on the fast path; the
    runner-level golden metrics (speedups, MPKI reductions) must be
    bit-identical to a sanitized sweep, which runs serial."""

    @staticmethod
    def _runner(sanitize):
        from repro.experiments.runner import ExperimentRunner, RunnerSettings

        settings = RunnerSettings(
            trace_instructions=20_000, apps=("wordpress",), sample_rate=1,
            sanitize=sanitize,
        )
        return ExperimentRunner(settings, cache=None, jobs=1)

    def test_golden_metrics_fast_equals_serial(self):
        metrics = {}
        for mode, sanitize in (("fast", False), ("serial", True)):
            runner = self._runner(sanitize)
            metrics[mode] = {
                "twig_result": runner.run("wordpress", "twig"),
                "speedup": runner.speedup("wordpress", "twig"),
                "miss_reduction": runner.miss_reduction("wordpress", "twig"),
            }
        assert_results_identical(
            metrics["serial"]["twig_result"],
            metrics["fast"]["twig_result"],
            context="wordpress/twig sweep (fast default vs sanitized serial)",
        )
        assert metrics["fast"]["speedup"] == metrics["serial"]["speedup"]
        assert (
            metrics["fast"]["miss_reduction"]
            == metrics["serial"]["miss_reduction"]
        )


class TestSweepStaysOnTheFastLoop:
    """A default figure sweep never runs the serial loop except to
    collect a profile (the LBR recorder needs it)."""

    @pytest.fixture(autouse=True)
    def small_env(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setenv("REPRO_APPS", "wordpress")
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "20000")
        monkeypatch.setattr(runner_mod, "_GLOBAL_RUNNER", None)

    def _main(self, argv, capsys):
        from repro.experiments.__main__ import main

        assert main(["--no-cache", *argv]) == 0
        capsys.readouterr()

    def test_characterization_sweep_never_runs_serial(self, loops, capsys):
        self._main(["fig02", "fig09"], capsys)
        assert loops and set(loops) == {"fast"}

    def test_twig_sweep_runs_serial_only_to_profile(self, loops, capsys):
        self._main(["fig16"], capsys)
        assert set(loops) == {"fast", "profile"}
