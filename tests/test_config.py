"""Configuration validation and sweep helpers."""

import pytest
from dataclasses import FrozenInstanceError

from repro.config import (
    BTBConfig,
    CacheConfig,
    CoreConfig,
    FrontendConfig,
    MemoryConfig,
    SimConfig,
    TwigConfig,
    is_power_of_two,
)
from repro.errors import ConfigError


class TestBTBConfig:
    def test_default_matches_table1(self):
        btb = BTBConfig()
        assert btb.entries == 8192
        assert btb.ways == 4
        assert btb.sets == 2048

    def test_storage_budget_roughly_75kb(self):
        assert 70 <= BTBConfig().storage_kb <= 80

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigError):
            BTBConfig(entries=0)

    def test_rejects_non_divisible_ways(self):
        with pytest.raises(ConfigError):
            BTBConfig(entries=100, ways=3)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            BTBConfig(entries=24, ways=2)  # 12 sets

    def test_fully_associative_geometry(self):
        btb = BTBConfig(entries=64, ways=64)
        assert btb.sets == 1

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            BTBConfig().entries = 1  # type: ignore[misc]


class TestCacheConfig:
    def test_l1i_default_sets(self):
        c = CacheConfig(size_bytes=32 * 1024, ways=8)
        assert c.sets == 64

    def test_rejects_bad_line_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, ways=2, line_bytes=48)

    def test_rejects_size_not_multiple(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=2)


class TestTwigConfig:
    def test_defaults_match_paper(self):
        t = TwigConfig()
        assert t.prefetch_distance == 20
        assert t.offset_bits == 12
        assert t.coalesce_bits == 8

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigError):
            TwigConfig(prefetch_distance=-1)

    def test_rejects_wide_offsets(self):
        with pytest.raises(ConfigError):
            TwigConfig(offset_bits=64)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ConfigError):
            TwigConfig(min_confidence=1.5)


class TestSimConfig:
    def test_with_btb_resizes_only_btb(self):
        cfg = SimConfig().with_btb(entries=2048)
        assert cfg.frontend.btb.entries == 2048
        assert cfg.frontend.btb.ways == 4
        assert cfg.frontend.ftq_size == SimConfig().frontend.ftq_size

    def test_with_btb_changes_ways(self):
        cfg = SimConfig().with_btb(ways=128)
        assert cfg.frontend.btb.ways == 128
        assert cfg.frontend.btb.entries == 8192

    def test_with_ftq(self):
        assert SimConfig().with_ftq(64).frontend.ftq_size == 64

    def test_with_prefetch_buffer(self):
        assert SimConfig().with_prefetch_buffer(8).frontend.prefetch_buffer_entries == 8

    def test_with_twig(self):
        cfg = SimConfig().with_twig(prefetch_distance=35, coalesce_bits=16)
        assert cfg.twig.prefetch_distance == 35
        assert cfg.twig.coalesce_bits == 16

    def test_original_unmodified_by_with_helpers(self):
        base = SimConfig()
        base.with_btb(entries=2048)
        assert base.frontend.btb.entries == 8192

    def test_core_defaults(self):
        core = CoreConfig()
        assert core.width == 6
        assert core.rob_entries == 224

    def test_memory_latencies_ordered(self):
        m = MemoryConfig()
        assert m.l1i.hit_latency < m.l2.hit_latency < m.l3.hit_latency < m.memory_latency


class TestHelpers:
    @pytest.mark.parametrize("v,expected", [(1, True), (2, True), (1024, True),
                                            (0, False), (3, False), (-4, False)])
    def test_is_power_of_two(self, v, expected):
        assert is_power_of_two(v) is expected


class TestComponentDefaults:
    """The service, fleet and canary settings' documented defaults."""

    def test_defaults(self):
        from repro.drift.canary import (
            CANARY_FRACTION,
            CANARY_WINDOWS,
            CanarySettings,
        )
        from repro.service.fleet import FleetConfig
        from repro.service.server import ServiceConfig

        service = ServiceConfig()
        assert (service.queue_depth, service.deadline_ms,
                service.reservoir_capacity) == (64, 2000, 8192)
        assert (service.journal_path, service.fsync, service.snapshot_dir,
                service.snapshot_every) == (None, False, None, 16)
        fleet = FleetConfig()
        assert (fleet.workers, fleet.replicas, fleet.autoscale) == (2, 1, False)
        canary = CanarySettings()
        assert (canary.enabled, CANARY_FRACTION, canary.window,
                CANARY_WINDOWS, canary.threshold) == (False, 0.5, 64, 2, 0.1)
