"""Sanitizer coverage: pipeline smoke, negative paths, cache-key hygiene.

Three contracts from DESIGN.md §8:

1. with ``sanitize=True`` every registered system runs a small app to
   completion with zero :class:`InvariantViolation`\\ s;
2. deliberately corrupted structures *do* raise, naming the structure
   and the cycle (the sanitizers are not no-ops);
3. the sanitize flag splits the runner's cache key — sanitized and
   plain runs never share memo or disk entries — while sanitize-off
   runs pay nothing for the feature's existence.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import BTBConfig, SimConfig
from repro.errors import InvariantViolation
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    SYSTEMS,
    ExperimentRunner,
    RunnerSettings,
    _config_signature,
)
from repro.frontend.btb import BTB, BTBEntry
from repro.frontend.prefetch_buffer import PrefetchBuffer
from repro.frontend.ras import ReturnAddressStack
from repro.isa.branches import BranchKind
from repro.uarch.results import SimResult
from repro.uarch.sim import FrontendSimulator
from repro.validate.invariants import Sanitizer

SMALL = RunnerSettings(trace_instructions=20_000, apps=("wordpress",), sample_rate=1)


def _sanitizer(cycle: float = 123.0) -> Sanitizer:
    san = Sanitizer()
    san.cycle = cycle
    return san


class TestSanitizedPipeline:
    """Every system in the registry runs clean with sanitizers on."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_system_runs_clean(self, system):
        runner = ExperimentRunner(SMALL)
        result = runner.run("wordpress", system, config=SimConfig(sanitize=True))
        assert result.cycles > 0

    def test_sanitizer_actually_attached_and_exercised(self, tiny_workload, tiny_trace):
        sim = FrontendSimulator(tiny_workload, config=SimConfig(sanitize=True))
        sim.run(tiny_trace)
        assert sim.sanitizer is not None
        # At least one check per fetch unit, or the wiring is dead.
        assert sim.sanitizer.checks > len(tiny_trace)

    def test_plain_run_has_no_sanitizer(self, tiny_workload, tiny_trace):
        sim = FrontendSimulator(tiny_workload)
        sim.run(tiny_trace)
        assert sim.sanitizer is None


class TestNegativePaths:
    """Corrupted structures must raise, naming structure and cycle."""

    def test_btb_over_occupancy(self):
        btb = BTB(BTBConfig(entries=8, ways=2))
        btb.attach_sanitizer(_sanitizer())
        set_index = 0x10 & btb._set_mask
        # Smuggle a third entry into a 2-way set behind the model's back.
        for pc in (0x10, 0x10 + (btb.config.sets << 2), 0x10 + (btb.config.sets << 3)):
            btb._sets[set_index][pc] = BTBEntry(
                pc=pc, target=pc + 4, kind=BranchKind.UNCOND_DIRECT
            )
        with pytest.raises(InvariantViolation) as exc:
            btb.insert(
                0x10 + (btb.config.sets << 4), 0x99, BranchKind.UNCOND_DIRECT
            )
        assert exc.value.structure == "btb"
        assert exc.value.cycle == 123.0
        assert "associativity" in str(exc.value)

    def test_btb_duplicate_tag(self):
        btb = BTB(BTBConfig(entries=8, ways=4))
        btb.attach_sanitizer(_sanitizer())
        btb.insert(0x20, 0x100, BranchKind.UNCOND_DIRECT)
        set_index = 0x20 & btb._set_mask
        # A second live entry under a different key but the same pc tag.
        alias = 0x20 + (btb.config.sets << 2)
        btb._sets[set_index][alias] = BTBEntry(
            pc=0x20, target=0x200, kind=BranchKind.UNCOND_DIRECT
        )
        with pytest.raises(InvariantViolation) as exc:
            btb.lookup(0x20)
            btb.insert(0x20, 0x100, BranchKind.UNCOND_DIRECT)
        assert exc.value.structure == "btb"

    def test_ras_underflow_corruption(self):
        ras = ReturnAddressStack(4)
        ras.attach_sanitizer(_sanitizer())
        ras.push(0x40)
        ras._depth = -1  # corrupt: below empty
        with pytest.raises(InvariantViolation) as exc:
            ras.pop()
        assert exc.value.structure == "ras"
        assert exc.value.cycle == 123.0
        assert "depth" in str(exc.value)

    def test_prefetch_buffer_recency_corruption(self):
        buf = PrefetchBuffer(4)
        buf.attach_sanitizer(_sanitizer())
        for pc in (0x10, 0x20, 0x30):
            buf.insert(pc, pc + 64, BranchKind.UNCOND_DIRECT, ready_cycle=0)
        # Reorder behind the model's back: oldest entry to the MRU slot.
        buf._entries.move_to_end(0x10)
        with pytest.raises(InvariantViolation) as exc:
            buf.insert(0x40, 0x40 + 64, BranchKind.UNCOND_DIRECT, ready_cycle=0)
        assert exc.value.structure == "prefetch_buffer"

    def test_result_accounting_identity(self):
        result = SimResult(label="corrupt")
        result.instructions = 1000
        result.cycles = 100.0
        result.btb_accesses = 10
        result.btb_misses = 11  # more misses than accesses
        with pytest.raises(InvariantViolation) as exc:
            result.validate()
        assert exc.value.structure == "results"

    def test_result_negative_counter(self):
        result = SimResult(label="corrupt")
        result.cycles = -1.0
        with pytest.raises(InvariantViolation):
            result.validate()


class TestConfigPlumbing:
    def test_with_sanitize(self):
        cfg = SimConfig()
        assert cfg.with_sanitize().sanitize is True
        assert cfg.with_sanitize(False).sanitize is False
        assert cfg.sanitize is False  # original untouched


class TestCacheKeyHygiene:
    def test_signature_includes_sanitize(self):
        plain = _config_signature(SimConfig(sanitize=False))
        sanitized = _config_signature(SimConfig(sanitize=True))
        assert plain != sanitized

    def test_signature_knows_every_simconfig_field(self):
        # Guard: adding a SimConfig field forces a visit to
        # _config_signature (the sanitize bug, generalized).
        assert {f.name for f in dataclasses.fields(SimConfig)} == {
            "core",
            "frontend",
            "memory",
            "twig",
            "ideal_icache",
            "ideal_btb",
            "sanitize",
        }, "new SimConfig field: include it in _config_signature and update this set"

    def test_flipping_sanitize_forces_fresh_simulation(self):
        runner = ExperimentRunner(SMALL)
        runner.run("wordpress", "baseline")
        assert runner.stats.simulations == 1
        runner.run("wordpress", "baseline", config=SimConfig(sanitize=True))
        assert runner.stats.simulations == 2  # no memo crosstalk
        runner.run("wordpress", "baseline")
        runner.run("wordpress", "baseline", config=SimConfig(sanitize=True))
        assert runner.stats.simulations == 2  # both populations memoized

    def test_disk_cache_populations_stay_separate(self, tmp_path):
        writer = ExperimentRunner(SMALL, cache=ResultCache(tmp_path / "cache"))
        plain = writer.run("wordpress", "baseline")
        assert writer.stats.simulations == 1
        # A fresh runner sharing the disk cache: the plain entry must not
        # satisfy the sanitized request.
        reader = ExperimentRunner(SMALL, cache=ResultCache(tmp_path / "cache"))
        reader.run("wordpress", "baseline")
        assert reader.stats.simulations == 0
        assert reader.stats.disk_hits == 1
        sanitized = reader.run(
            "wordpress", "baseline", config=SimConfig(sanitize=True)
        )
        assert reader.stats.simulations == 1
        # Same point, so the counters agree — the *entries* are distinct.
        assert sanitized.cycles == plain.cycles

    def test_sanitize_off_adds_no_simulation_work(self):
        # The acceptance bar: plain runs do the same number of
        # simulations/profiles as before the feature existed.
        runner = ExperimentRunner(SMALL)
        runner.run("wordpress", "twig")
        baseline_stats = dataclasses.replace(runner.stats)
        runner.run("wordpress", "twig")  # memo hit
        assert runner.stats == baseline_stats
