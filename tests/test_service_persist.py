"""Snapshot persistence: shard state round-trips, the on-disk store,
and the config gate (repro.service.persist)."""

from __future__ import annotations

import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import SimConfig
from repro.core.plan import OP_PREFETCH, InjectionOp, PrefetchPlan
from repro.errors import SnapshotError
from repro.profiling.profile import MissSample
from repro.service.bench import collect_sample_stream
from repro.service.build import (
    IncrementalPlanBuilder,
    PlanDiff,
    PlanVersion,
    plans_equivalent,
)
from repro.service.ingest import IngestBuffer, SampleBatch
from repro.service.persist import (
    PERSIST_SCHEMA_VERSION,
    SnapshotStore,
    apply_snapshot,
    capture_snapshot,
    plan_version_from_dict,
    plan_version_to_dict,
    shard_from_dict,
    shard_to_dict,
)
from repro.service.server import PlanService, ServiceConfig
from tests.test_serialize import V1_PLAN, pcs, plans

CFG = SimConfig().with_btb(entries=512)
APP = "tinyapp"

sites = st.lists(st.tuples(pcs, pcs), max_size=10).map(tuple)


@pytest.fixture(scope="module")
def stream_artifacts(tiny_workload, tiny_trace):
    profile, stream = collect_sample_stream(tiny_workload, tiny_trace, CFG)
    assert stream, "tiny trace must produce BTB miss samples"
    return profile, stream


def make_buffer(**overrides) -> IngestBuffer:
    defaults = dict(reservoir_capacity=16, hot_threshold=1, seed=3)
    defaults.update(overrides)
    return IngestBuffer(**defaults)


def feed(buffer, stream, label, upto=None, start=0, size=8):
    chunks = [stream[i : i + size] for i in range(0, len(stream), size)]
    total = len(chunks)
    if upto is not None:
        chunks = chunks[:upto]
    for seq, chunk in enumerate(chunks[start:], start=start):
        buffer.ingest(
            SampleBatch(
                app_name=APP, input_label=label, samples=tuple(chunk), seq=seq
            )
        )
    return total


class _NoPlans:
    def latest(self, key):
        return None

    def restore_version(self, version):
        raise AssertionError("no plan restore expected in this test")


class Holder:
    """The slice of PlanService that persist.py actually touches."""

    def __init__(self, buffer, builder=None):
        self.buffer = buffer
        self.builder = builder if builder is not None else _NoPlans()


class TestShardRoundTrip:
    def test_restored_shard_folds_identically(self, stream_artifacts):
        """The convergence kernel: a restored shard must fold future
        batches exactly like the original — including reservoir
        evictions, which depend on the captured RNG state."""
        profile, stream = stream_artifacts
        label = profile.input_label
        # Capacity far below the stream size so the reservoir is
        # overflowing and every further fold consults the RNG.
        original = make_buffer(reservoir_capacity=16)
        total = feed(original, stream, label, upto=6)
        assert total > 8, "need batches left over to fold post-restore"
        shard = original.get((APP, label))
        assert shard.reservoir.evicted > 0, "reservoir must be overflowing"

        data = json.loads(json.dumps(shard_to_dict(shard)))  # disk round-trip
        restored_buffer = make_buffer(reservoir_capacity=16)
        restored = shard_from_dict(data, restored_buffer)

        assert restored.generation == shard.generation
        assert restored.reservoir.items == shard.reservoir.items
        assert restored.sketch._rows == shard.sketch._rows

        feed(original, stream, label, start=6, upto=None)
        feed(restored_buffer, stream, label, start=6, upto=None)
        assert restored.reservoir.items == shard.reservoir.items
        assert restored.reservoir.seen == shard.reservoir.seen
        assert restored.reservoir.evicted == shard.reservoir.evicted
        assert restored.sketch._rows == shard.sketch._rows
        assert restored.counters == shard.counters

    def test_sketch_geometry_mismatch_rejected(self, stream_artifacts):
        profile, stream = stream_artifacts
        buffer = make_buffer(sketch_width=256)
        feed(buffer, stream, profile.input_label, upto=2)
        data = shard_to_dict(buffer.get((APP, profile.input_label)))
        with pytest.raises(SnapshotError, match="sketch geometry"):
            shard_from_dict(data, make_buffer(sketch_width=512))

    def test_reservoir_capacity_mismatch_rejected(self, stream_artifacts):
        profile, stream = stream_artifacts
        buffer = make_buffer(reservoir_capacity=64)
        feed(buffer, stream, profile.input_label, upto=6)
        data = shard_to_dict(buffer.get((APP, profile.input_label)))
        with pytest.raises(SnapshotError, match="capacity"):
            shard_from_dict(data, make_buffer(reservoir_capacity=8))

    def test_malformed_shard_rejected(self):
        with pytest.raises(SnapshotError, match="malformed shard snapshot"):
            shard_from_dict({"app": "a"}, make_buffer())


class TestPlanVersionRoundTrip:
    def test_roundtrip_preserves_lineage_fields(
        self, tiny_workload, stream_artifacts
    ):
        profile, stream = stream_artifacts
        buffer = make_buffer(reservoir_capacity=1 << 20)
        feed(buffer, stream, profile.input_label)
        builder = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload,
            config=CFG,
            check_plans=False,
        )
        version = builder.build(buffer.get((APP, profile.input_label)))
        data = json.loads(json.dumps(plan_version_to_dict(version)))
        loaded = plan_version_from_dict(data)
        assert loaded.key == version.key
        assert loaded.version == version.version
        assert loaded.generation == version.generation
        assert loaded.samples == version.samples
        assert loaded.diff == version.diff
        assert plans_equivalent(loaded.plan, version.plan)

    def test_restore_version_continues_lineage(
        self, tiny_workload, stream_artifacts
    ):
        profile, stream = stream_artifacts
        label = profile.input_label
        buffer = make_buffer(reservoir_capacity=1 << 20)
        feed(buffer, stream, label, upto=4)
        builder = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload,
            config=CFG,
            check_plans=False,
        )
        v1 = builder.build(buffer.get((APP, label)))

        reloaded = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload,
            config=CFG,
            check_plans=False,
        )
        reloaded.restore_version(
            plan_version_from_dict(
                json.loads(json.dumps(plan_version_to_dict(v1)))
            )
        )
        feed(buffer, stream, label, start=4)
        v2 = reloaded.build(buffer.get((APP, label)))
        assert v2.version == v1.version + 1
        # The diff is taken against the restored plan, not from empty.
        assert v2.diff != v1.diff or not v1.diff.added

    def test_malformed_plan_version_rejected(self):
        with pytest.raises(SnapshotError, match="malformed plan-version"):
            plan_version_from_dict({"app": "a", "input": "b"})

    @given(plans(), sites.filter(bool), sites, sites)
    @settings(max_examples=50)
    def test_json_round_trip_is_exact(self, plan, added, dropped, retargeted):
        version = PlanVersion(
            key=(APP, "0"),
            version=3,
            generation=7,
            samples=11,
            plan=plan,
            diff=PlanDiff(added=added, dropped=dropped, retargeted=retargeted),
            checked=True,
        )
        text = json.dumps(plan_version_to_dict(version))
        assert plan_version_from_dict(json.loads(text)) == version

    def test_diff_is_written_as_flat_pairs(self):
        diff = PlanDiff(added=((3, 64), (4, 96)), dropped=(), retargeted=((5, 7),))
        assert plan_version_to_dict(small_version(diff))["diff"] == {
            "added": [3, 64, 4, 96],
            "dropped": [],
            "retargeted": [5, 7],
        }

    @pytest.mark.parametrize(
        "diff, message",
        [
            ({"added": [3], "dropped": [], "retargeted": []}, "not a multiple of 2"),
            ({"added": [[3, 64]], "dropped": [], "retargeted": []}, "list of ints"),
            ({"added": [], "dropped": []}, "retargeted"),
        ],
        ids=["odd-pairs", "nested-pairs", "missing-column"],
    )
    def test_diff_faults_are_snapshot_errors(self, diff, message):
        data = plan_version_to_dict(small_version())
        data["diff"] = diff
        with pytest.raises(SnapshotError, match=message):
            plan_version_from_dict(data)

    def test_v1_layout_plan_is_a_snapshot_error(self):
        data = plan_version_to_dict(small_version())
        data["plan"] = V1_PLAN
        with pytest.raises(SnapshotError, match="version 1"):
            plan_version_from_dict(data)


def small_version(diff: PlanDiff = PlanDiff((), (), ())) -> PlanVersion:
    plan = PrefetchPlan(app_name=APP)
    plan.add_op(InjectionOp(OP_PREFETCH, 3, ((64, 128, 1),), 6))
    return PlanVersion(
        key=(APP, "0"), version=1, generation=1, samples=1,
        plan=plan, diff=diff, checked=False,
    )


class TestCaptureApply:
    def test_capture_apply_roundtrip(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts
        label = profile.input_label
        buffer = make_buffer()
        feed(buffer, stream, label, upto=5)
        builder = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload,
            config=CFG,
            check_plans=False,
        )
        built = builder.build(buffer.get((APP, label)))
        source = Holder(buffer, builder)
        data = json.loads(
            json.dumps(capture_snapshot(source, 1, {(APP, label): 5}))
        )
        assert data["schema_version"] == PERSIST_SCHEMA_VERSION
        assert data["kind"] == "service_snapshot"

        target_builder = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload,
            config=CFG,
            check_plans=False,
        )
        target = Holder(make_buffer(), target_builder)
        shards, plans, counts = apply_snapshot(target, data)
        assert shards == 1
        assert plans == 1
        assert counts == {(APP, label): 5}
        restored = target_builder.latest((APP, label))
        assert restored.version == built.version
        assert plans_equivalent(restored.plan, built.plan)

    def test_config_mismatch_is_a_hard_gate(self, stream_artifacts):
        profile, stream = stream_artifacts
        buffer = make_buffer(seed=3)
        feed(buffer, stream, profile.input_label, upto=2)
        data = capture_snapshot(Holder(buffer), 1, {})
        with pytest.raises(SnapshotError, match="seed"):
            apply_snapshot(Holder(make_buffer(seed=4)), data)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SnapshotError, match="not a serialized"):
            apply_snapshot(Holder(make_buffer()), {"kind": "profile"})

    def test_unknown_schema_version_rejected(self, stream_artifacts):
        profile, stream = stream_artifacts
        buffer = make_buffer()
        feed(buffer, stream, profile.input_label, upto=1)
        data = capture_snapshot(Holder(buffer), 1, {})
        data["schema_version"] = 999
        with pytest.raises(SnapshotError, match="schema"):
            apply_snapshot(Holder(make_buffer()), data)


class TestSnapshotStore:
    def payload(self, seq: int) -> dict:
        return {
            "format": PERSIST_SCHEMA_VERSION,
            "schema_version": PERSIST_SCHEMA_VERSION,
            "kind": "service_snapshot",
            "seq": seq,
        }

    def test_latest_returns_newest(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=3)
        for seq in (1, 2, 3):
            store.write(self.payload(seq))
        assert store.latest()["seq"] == 3

    def test_latest_skips_torn_file(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=3)
        store.write(self.payload(1))
        store.write(self.payload(2))
        # Tear the newest snapshot on disk; latest() must fall back.
        torn = os.path.join(str(tmp_path), "snapshot-00000002.json")
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write('{"schema_version": 1, "kind": "service_snap')
        assert store.latest()["seq"] == 1

    def test_latest_empty_dir_is_none(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).latest() is None

    def test_unknown_schema_version_raises(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        bad = self.payload(1)
        bad["schema_version"] = 999
        bad["format"] = 999
        store.write(bad)
        with pytest.raises(SnapshotError, match="schema"):
            store.latest()

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=2)
        for seq in range(1, 6):
            store.write(self.payload(seq))
        names = sorted(os.listdir(str(tmp_path)))
        assert names == ["snapshot-00000004.json", "snapshot-00000005.json"]

    def test_write_without_seq_rejected(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        with pytest.raises(SnapshotError, match="seq"):
            store.write({"kind": "service_snapshot"})

    def test_bad_keep_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="keep"):
            SnapshotStore(str(tmp_path), keep=0)

    def test_unwritable_directory_rejected(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not dir")
        with pytest.raises(SnapshotError, match="cannot create"):
            SnapshotStore(str(blocker / "snaps"))

    def test_written_bytes_equal_json_dumps(
        self, tmp_path, tiny_workload, stream_artifacts
    ):
        # Two shards and their plans, so the writer streams list
        # elements of both top-level lists it splits.
        _, stream = stream_artifacts
        buffer = make_buffer()
        builder = IncrementalPlanBuilder(
            workload_for=lambda app: tiny_workload, config=CFG, check_plans=False
        )
        for label in ("0", "1"):
            feed(buffer, stream, label, upto=4)
            builder.build(buffer.get((APP, label)))
        data = capture_snapshot(Holder(buffer, builder), 7, {(APP, "0"): 4})
        assert len(data["shards"]) == 2 and len(data["plans"]) == 2
        path = SnapshotStore(str(tmp_path)).write(data)
        with open(path, "rb") as fh:
            assert fh.read() == json.dumps(data).encode()

    def test_write_failure_is_a_snapshot_error(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snaps"))
        os.rmdir(store.directory)
        with pytest.raises(SnapshotError, match="could not write snapshot"):
            store.write(self.payload(1))

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.write(self.payload(1))
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


class TestVersionOneState:
    """A state directory written before the columnar plan layout."""

    @pytest.mark.parametrize(
        "stamp", [1, PERSIST_SCHEMA_VERSION], ids=["v1-snapshot", "v1-plan-inside"]
    )
    def test_restore_refuses_it_as_a_snapshot_error(
        self, tmp_path, tiny_workload, stamp
    ):
        state = str(tmp_path / "snapshots")

        def service() -> PlanService:
            return PlanService(
                workload_for=lambda app: tiny_workload,
                config=ServiceConfig(snapshot_dir=state),
                sim_config=CFG,
            )

        data = capture_snapshot(service(), 1, {})
        data.update(
            format=stamp,
            schema_version=stamp,
            plans=[
                {
                    "app": APP,
                    "input": "0",
                    "version": 1,
                    "generation": 1,
                    "samples": 2,
                    "checked": True,
                    "plan": V1_PLAN,
                    "diff": {"added": [[3, 64]], "dropped": [], "retargeted": []},
                }
            ],
        )
        SnapshotStore(state).write(data)
        with pytest.raises(SnapshotError, match="version 1"):
            service().restore()
