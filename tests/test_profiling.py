"""LBR recording, miss sampling, and profile containers."""

import pytest

from repro.config import SimConfig
from repro.errors import ProfileError
from repro.profiling import collector
from repro.profiling.collector import collect_profile
from repro.profiling.lbr import LBRRecorder
from repro.profiling.profile import MissProfile
from repro.service.bench import collect_sample_stream


class TestLBRRecorder:
    def test_snapshot_orders_oldest_first(self):
        prof = MissProfile()
        rec = LBRRecorder(prof, depth=4)
        for i in range(3):
            rec.record(block=i, cycle=float(i * 10))
        window = rec.snapshot(miss_cycle=100.0)
        assert [b for b, _ in window] == [0, 1, 2]
        assert [d for _, d in window] == [100.0, 90.0, 80.0]

    def test_ring_wraps(self):
        prof = MissProfile()
        rec = LBRRecorder(prof, depth=3)
        for i in range(5):
            rec.record(i, float(i))
        window = rec.snapshot(10.0)
        assert [b for b, _ in window] == [2, 3, 4]

    def test_depth_default_32(self):
        rec = LBRRecorder(MissProfile())
        assert rec.depth == 32

    def test_on_miss_stores_sample(self):
        prof = MissProfile()
        rec = LBRRecorder(prof)
        rec.record(1, 1.0)
        rec.on_miss(pc=0x100, block=5, cycle=9.0)
        assert prof.miss_count(0x100) == 1
        sample = prof.samples_for(0x100)[0]
        assert sample.miss_block == 5
        assert sample.window[0] == (1, 8.0)

    def test_sampling_rate(self):
        prof = MissProfile()
        rec = LBRRecorder(prof, sample_rate=3)
        for i in range(9):
            rec.on_miss(0x100, 1, float(i))
        assert prof.miss_count(0x100) == 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LBRRecorder(MissProfile(), sample_rate=0)
        with pytest.raises(ValueError):
            LBRRecorder(MissProfile(), depth=0)


class TestMissProfile:
    def test_heaviest_first(self):
        prof = MissProfile()
        for _ in range(3):
            prof.add_sample(0xA, 1, ((1, 30.0),))
        prof.add_sample(0xB, 2, ((2, 30.0),))
        assert prof.miss_pcs() == [0xA, 0xB]

    def test_block_occurrences(self):
        prof = MissProfile()
        prof.add_sample(0xA, 1, ((7, 30.0), (8, 25.0)))
        prof.add_sample(0xB, 2, ((7, 30.0),))
        assert prof.block_occurrences[7] == 2
        assert prof.block_occurrences[8] == 1

    def test_merge(self):
        a, b = MissProfile("x", "0"), MissProfile("x", "1")
        a.add_sample(0xA, 1, ((1, 30.0),))
        b.add_sample(0xA, 1, ((2, 30.0),))
        b.add_sample(0xB, 2, ((3, 30.0),))
        merged = a.merge(b, allow_mixed_inputs=True)
        assert merged.miss_count(0xA) == 2
        assert merged.total_samples == 3
        assert merged.input_label == "0+1"
        merged.validate()

    def test_merge_same_input_keeps_label(self):
        a, b = MissProfile("x", "0"), MissProfile("x", "0")
        a.add_sample(0xA, 1, ((1, 30.0),))
        b.add_sample(0xB, 2, ((2, 30.0),))
        merged = a.merge(b)
        assert merged.input_label == "0"
        assert merged.total_samples == 2

    def test_merge_rejects_mismatched_app(self):
        a, b = MissProfile("x", "0"), MissProfile("y", "0")
        a.add_sample(0xA, 1, ((1, 30.0),))
        b.add_sample(0xA, 1, ((1, 30.0),))
        with pytest.raises(ProfileError, match="different apps"):
            a.merge(b)
        # Mixed-input permission does not excuse mixed apps.
        with pytest.raises(ProfileError, match="different apps"):
            a.merge(b, allow_mixed_inputs=True)

    def test_merge_rejects_mismatched_input_by_default(self):
        a, b = MissProfile("x", "0"), MissProfile("x", "1")
        a.add_sample(0xA, 1, ((1, 30.0),))
        b.add_sample(0xA, 1, ((1, 30.0),))
        with pytest.raises(ProfileError, match="allow_mixed_inputs"):
            a.merge(b)

    def test_validate_detects_corruption(self):
        prof = MissProfile()
        prof.add_sample(0xA, 1, ((1, 30.0),))
        prof.total_samples = 99
        with pytest.raises(ProfileError):
            prof.validate()

    def test_len(self):
        prof = MissProfile()
        assert len(prof) == 0
        prof.add_sample(0xA, 1, ())
        assert len(prof) == 1

    def test_samples_keep_arrival_order(self):
        a, b = MissProfile("x", "0"), MissProfile("x", "0")
        for pc in (0xB, 0xA, 0xB):
            a.add_sample(pc, 1, ())
        b.add_sample(0xC, 2, ())
        assert [s.miss_pc for s in a.samples] == [0xB, 0xA, 0xB]
        merged = a.merge(b)
        assert [s.miss_pc for s in merged.samples] == [0xB, 0xA, 0xB, 0xC]
        merged.validate()

    def test_validate_detects_lost_arrival_order(self):
        prof = MissProfile()
        prof.add_sample(0xA, 1, ((1, 30.0),))
        prof.samples.clear()
        with pytest.raises(ProfileError):
            prof.validate()


class TestCollector:
    def test_collect_on_tiny_workload(self, tiny_workload, tiny_trace):
        prof = collect_profile(tiny_workload, tiny_trace, SimConfig())
        assert len(prof) > 0
        assert prof.app_name == "tinyapp"
        prof.validate()
        # Every sampled miss PC is a real branch PC.
        pcs = set(tiny_workload.branch_pc)
        for pc in prof.miss_pcs():
            assert pc in pcs

    def test_sampling_reduces_samples(self, tiny_workload, tiny_trace):
        dense = collect_profile(tiny_workload, tiny_trace, SimConfig(), sample_rate=1)
        sparse = collect_profile(tiny_workload, tiny_trace, SimConfig(), sample_rate=4)
        assert len(sparse) < len(dense)
        assert len(sparse) >= len(dense) // 5

    def test_windows_have_positive_leads(self, tiny_workload, tiny_trace):
        prof = collect_profile(tiny_workload, tiny_trace, SimConfig())
        pc = prof.miss_pcs()[0]
        for sample in prof.samples_for(pc)[:5]:
            leads = [lead for _, lead in sample.window]
            assert all(lead >= 0 for lead in leads)
            # Oldest-first: leads decrease monotonically.
            assert all(a >= b for a, b in zip(leads, leads[1:]))

    @pytest.mark.parametrize("sample_rate", [1, 3])
    def test_sample_stream_is_the_order_the_recorder_saw(
        self, monkeypatch, tiny_workload, tiny_trace, sample_rate
    ):
        seen = []

        class SpyRecorder(LBRRecorder):
            def on_miss(self, pc, block, cycle):
                seen.append((pc, block))
                super().on_miss(pc, block, cycle)

        monkeypatch.setattr(collector, "LBRRecorder", SpyRecorder)
        profile, stream = collect_sample_stream(
            tiny_workload, tiny_trace, SimConfig(), sample_rate=sample_rate
        )
        sampled = seen[sample_rate - 1 :: sample_rate]
        assert sampled, "tiny trace must produce BTB misses"
        assert [(s.miss_pc, s.miss_block) for s in stream] == sampled
        assert len(profile) == len(stream)
