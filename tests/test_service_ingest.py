"""Streaming ingest layer: reservoir, shard fold."""

import pytest

from repro.errors import ServiceError
from repro.profiling.profile import MissProfile, MissSample
from repro.service.ingest import IngestBuffer, SampleBatch, ShardState
from repro.service.reservoir import ReservoirSampler


def sample(pc: int, block: int = 1) -> MissSample:
    return MissSample(miss_pc=pc, miss_block=block, window=((block, 1.0),))


def batch(pcs, app="tinyapp", label="0", seq=0) -> SampleBatch:
    return SampleBatch(
        app_name=app,
        input_label=label,
        samples=tuple(sample(pc) for pc in pcs),
        seq=seq,
    )


class TestReservoirSampler:
    def test_under_capacity_is_stream_prefix(self):
        res = ReservoirSampler(10, "shard", 0)
        for i in range(7):
            assert res.offer(i) is True
        assert res.items == list(range(7))
        assert res.seen == 7
        assert res.evicted == 0
        assert not res.overflowed

    def test_overflow_stays_bounded(self):
        res = ReservoirSampler(8, "shard", 0)
        for i in range(1000):
            res.offer(i)
        assert len(res) == 8
        assert res.seen == 1000
        assert res.overflowed
        assert set(res.items) <= set(range(1000))

    def test_deterministic_for_same_seed_parts(self):
        a = ReservoirSampler(8, ("app", "0"), 42)
        b = ReservoirSampler(8, ("app", "0"), 42)
        for i in range(500):
            a.offer(i)
            b.offer(i)
        assert a.items == b.items

    def test_seed_parts_change_the_sample(self):
        a = ReservoirSampler(8, ("app", "0"), 1)
        b = ReservoirSampler(8, ("app", "1"), 1)
        for i in range(500):
            a.offer(i)
            b.offer(i)
        assert a.items != b.items

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ServiceError):
            ReservoirSampler(0)


class TestSampleBatch:
    def test_rejects_empty_samples(self):
        with pytest.raises(ServiceError, match="no samples"):
            SampleBatch(app_name="a", input_label="0", samples=())

    def test_rejects_blank_identity(self):
        with pytest.raises(ServiceError, match="app_name"):
            SampleBatch(app_name="", input_label="0", samples=(sample(1),))
        with pytest.raises(ServiceError, match="input_label"):
            SampleBatch(app_name="a", input_label="", samples=(sample(1),))

    def test_key(self):
        assert batch([1]).key == ("tinyapp", "0")


class TestShardState:
    def test_absorb_counts_and_dirty_tracking(self):
        shard = ShardState(("tinyapp", "0"), reservoir_capacity=100)
        assert not shard.dirty
        shard.absorb(batch([1, 2, 3]))
        assert shard.dirty
        assert shard.generation == 1
        c = shard.counters
        assert (c.batches, c.received, c.admitted) == (1, 3, 3)
        assert c.dropped == 0
        shard.built_generation = shard.generation
        assert not shard.dirty

    def test_rejects_misrouted_batch(self):
        shard = ShardState(("tinyapp", "0"), reservoir_capacity=10)
        with pytest.raises(ServiceError, match="routed"):
            shard.absorb(batch([1], label="other"))

    def test_fold_matches_direct_profile(self):
        shard = ShardState(("tinyapp", "0"), reservoir_capacity=100)
        pcs = [5, 9, 5, 11, 9, 5]
        shard.absorb(batch(pcs[:3]))
        shard.absorb(batch(pcs[3:], seq=1))
        direct = MissProfile(app_name="tinyapp", input_label="0")
        for pc in pcs:
            s = sample(pc)
            direct.add_sample(s.miss_pc, s.miss_block, s.window)
        folded = shard.fold()
        assert folded.total_samples == direct.total_samples
        assert folded.miss_pcs() == direct.miss_pcs()
        for pc in set(pcs):
            assert folded.samples_for(pc) == direct.samples_for(pc)

    def test_fold_is_bounded_by_reservoir(self):
        shard = ShardState(("tinyapp", "0"), reservoir_capacity=4)
        shard.absorb(batch(list(range(50))))
        assert shard.counters.admitted + shard.counters.dropped == 50
        assert len(shard.fold()) == 4


class TestIngestBuffer:
    def test_acks_are_per_batch_deltas(self):
        buf = IngestBuffer(reservoir_capacity=100)
        first = buf.ingest(batch([1, 2]))
        second = buf.ingest(batch([3], seq=1))
        assert (first.received, first.admitted) == (2, 2)
        assert (second.received, second.admitted) == (1, 1)
        assert second.generation == 2

    def test_shards_created_on_demand_in_contact_order(self):
        buf = IngestBuffer(reservoir_capacity=10)
        buf.ingest(batch([1], app="b"))
        buf.ingest(batch([1], app="a"))
        buf.ingest(batch([2], app="b"))
        assert buf.keys() == [("b", "0"), ("a", "0")]
        assert buf.dirty_keys() == [("b", "0"), ("a", "0")]

    def test_get_unknown_returns_none(self):
        assert IngestBuffer(reservoir_capacity=10).get(("x", "0")) is None
