"""Property-based tests (hypothesis) for the core data structures."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import BTBConfig, CacheConfig
from repro.core.coalescing import build_table, plan_coalescing
from repro.frontend.btb import BTB, FullyAssociativeBTB
from repro.frontend.prefetch_buffer import PrefetchBuffer
from repro.frontend.ras import ReturnAddressStack
from repro.isa.branches import BranchKind, bits_for_offset, offset_fits
from repro.memory.cache import Cache
from repro.workloads.cfg import KIND_UNCOND

K = BranchKind.UNCOND_DIRECT

pcs = st.integers(min_value=0, max_value=1 << 32)
offsets = st.integers(min_value=-(1 << 47), max_value=(1 << 47) - 1)


class TestOffsetProperties:
    @given(offsets)
    def test_bits_for_offset_is_tight(self, off):
        bits = bits_for_offset(off)
        assert offset_fits(off, bits)
        if bits > 1:
            assert not offset_fits(off, bits - 1)

    @given(offsets, st.integers(min_value=1, max_value=48))
    def test_fits_monotone_in_bits(self, off, bits):
        if offset_fits(off, bits):
            assert offset_fits(off, bits + 1)


class TestBTBProperties:
    @given(st.lists(pcs, min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, stream):
        btb = BTB(BTBConfig(entries=16, ways=4, entry_bytes=8))
        for pc in stream:
            if btb.lookup(pc) is None:
                btb.insert(pc, pc + 4, K)
        assert len(btb) <= 16

    @given(st.lists(pcs, min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_insert_makes_resident(self, stream):
        btb = BTB(BTBConfig(entries=16, ways=4, entry_bytes=8))
        for pc in stream:
            btb.insert(pc, 0, K)
            assert pc in btb  # most-recent insert always resident

    @given(st.lists(pcs, min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_counters_consistent(self, stream):
        btb = BTB(BTBConfig(entries=16, ways=4, entry_bytes=8))
        for pc in stream:
            if btb.lookup(pc) is None:
                btb.insert(pc, 0, K)
        assert btb.hits + btb.misses == btb.lookups == len(stream)

    @given(st.lists(pcs, min_size=16, max_size=16, unique=True).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=300).map(
            lambda rereferences: pool + rereferences)))
    @settings(max_examples=50)
    def test_fully_associative_dominates_equal_capacity(self, stream):
        """A stream of 16 distinct PCs fills the 16-entry FA-LRU BTB without
        an eviction, so it misses only on first touches and hits every
        re-reference the 2-way BTB of equal capacity hits (the premise of
        conflict-miss classification).

        Past capacity LRU promises no such dominance: ``[1, 0, 2, 3, ...,
        16, 1]`` (17 distinct PCs) hits once in the 2-way BTB and never in
        the fully-associative one.
        """
        sa = BTB(BTBConfig(entries=16, ways=2, entry_bytes=8))
        fa = FullyAssociativeBTB(16)
        sa_hits = fa_hits = 0
        seen = set()
        for pc in stream:
            sa_hit = sa.lookup(pc) is not None
            if sa_hit:
                sa_hits += 1
            else:
                sa.insert(pc, 0, K)
            fa_hit = fa.access(pc)
            if fa_hit:
                fa_hits += 1
            assert fa_hit == (pc in seen)
            assert fa_hit or not sa_hit
            seen.add(pc)
        assert fa_hits >= sa_hits


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_capacity_invariant(self, lines):
        cache = Cache(CacheConfig(size_bytes=512, ways=2))  # 8 lines
        for line in lines:
            if not cache.access(line):
                cache.fill(line)
        assert len(cache) <= 8

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=2, max_size=300))
    @settings(max_examples=50)
    def test_immediate_rereference_hits(self, lines):
        cache = Cache(CacheConfig(size_bytes=512, ways=2))
        for line in lines:
            if not cache.access(line):
                cache.fill(line)
            assert cache.contains(line)


class TestRASProperties:
    @given(st.lists(st.integers(min_value=1, max_value=1 << 30),
                    min_size=1, max_size=31))
    @settings(max_examples=50)
    def test_lifo_within_capacity(self, addrs):
        ras = ReturnAddressStack(32)
        for a in addrs:
            ras.push(a)
        for a in reversed(addrs):
            assert ras.pop() == a

    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=100)),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_depth_bounds(self, ops):
        ras = ReturnAddressStack(8)
        for is_push, val in ops:
            if is_push:
                ras.push(val)
            else:
                ras.pop()
            assert 0 <= ras.depth <= 8


class TestPrefetchBufferProperties:
    @given(st.lists(st.tuples(pcs, st.integers(min_value=0, max_value=100)),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_capacity_and_take_semantics(self, inserts):
        buf = PrefetchBuffer(8)
        for pc, ready in inserts:
            buf.insert(pc, pc + 4, K, ready)
            assert len(buf) <= 8
        for pc, _ in inserts:
            taken = buf.take(pc, now=1000)
            if taken is not None:
                # A taken entry is gone.
                assert buf.take(pc, now=1000) is None


class TestCoalescingProperties:
    entries = st.lists(
        st.integers(min_value=0, max_value=1 << 20).map(
            lambda pc: (pc * 4, pc * 4 + 64, KIND_UNCOND)
        ),
        min_size=1,
        max_size=60,
        unique_by=lambda e: e[0],
    )

    @given(entries, st.integers(min_value=1, max_value=64))
    @settings(max_examples=50)
    def test_every_entry_covered_exactly_once_per_block(self, ents, bits):
        per_block = {1: list(ents)}
        table, ops = plan_coalescing(per_block, coalesce_bits=bits)
        covered = [e for op in ops for e in op.entries]
        assert sorted(covered) == sorted(set(ents))

    @given(entries, st.integers(min_value=1, max_value=64))
    @settings(max_examples=50)
    def test_windows_respect_bitmask_width(self, ents, bits):
        per_block = {1: list(ents)}
        table, ops = plan_coalescing(per_block, coalesce_bits=bits)
        for op in ops:
            indices = [table.index_of(e[0]) for e in op.entries]
            assert max(indices) - min(indices) < bits

    @given(entries)
    @settings(max_examples=50)
    def test_table_sorted_unique(self, ents):
        table = build_table(ents)
        pcs_list = [e[0] for e in table.entries]
        assert pcs_list == sorted(set(pcs_list))
