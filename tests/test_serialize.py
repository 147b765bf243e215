"""Profile/plan JSON serialization round-trips."""

import io
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.config import SimConfig
from repro.core.plan import OP_COALESCE, OP_PREFETCH, InjectionOp, PrefetchPlan
from repro.core.twig import build_plan, run_with_plan
from repro.errors import PlanError, ProfileError
from repro.profiling.collector import collect_profile
from repro.profiling.profile import MissProfile
from repro.profiling.serialize import (
    PLAN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    load_plan,
    load_profile,
    plan_from_dict,
    plan_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_plan,
    save_profile,
    write_json,
)


# PCs up to 2**48 and a few blocks, so that several ops share a block.
pcs = st.integers(min_value=0, max_value=1 << 48)
rows = st.tuples(pcs, pcs, st.integers(min_value=0, max_value=7))
blocks = st.integers(min_value=0, max_value=5)
counts = st.integers(min_value=0, max_value=1 << 20)
injection_ops = st.one_of(
    st.builds(
        lambda block, row, cost: InjectionOp(OP_PREFETCH, block, (row,), cost),
        blocks, rows, st.integers(min_value=0, max_value=64),
    ),
    st.builds(
        lambda block, entries, cost: InjectionOp(
            OP_COALESCE, block, tuple(entries), cost
        ),
        blocks, st.lists(rows, min_size=1, max_size=6),
        st.integers(min_value=0, max_value=64),
    ),
)


@st.composite
def plans(draw) -> PrefetchPlan:
    """Random plans: both op kinds, any table (often empty)."""
    plan = PrefetchPlan(
        app_name=draw(st.text(max_size=8)),
        table=tuple(draw(st.lists(rows, max_size=12))),
        misses_targeted=draw(counts),
        misses_with_site=draw(counts),
    )
    for op in draw(st.lists(injection_ops, max_size=24)):
        plan.add_op(op)
    return plan


# A plan exactly as schema version 1 wrote it: a list of rows for the
# table, and one dict per op.
V1_PLAN = {
    "format": 1,
    "schema_version": 1,
    "kind": "prefetch_plan",
    "app_name": "x",
    "misses_targeted": 2,
    "misses_with_site": 2,
    "table": [[64, 128, 1]],
    "ops": [
        {"kind": "brprefetch", "block": 3, "entries": [[64, 128, 1]],
         "bytes_cost": 6},
    ],
}


@pytest.fixture(scope="module")
def artifacts(request):
    from repro.trace.walker import generate_trace
    from repro.workloads.cfg import build_workload
    from tests.conftest import make_tiny_spec

    spec = make_tiny_spec(name="serial", functions=150)
    wl = build_workload(spec, seed=5)
    tr = generate_trace(wl, spec.make_input(0), max_instructions=80_000)
    cfg = SimConfig().with_btb(entries=512)
    profile = collect_profile(wl, tr, cfg)
    plan = build_plan(wl, profile, cfg)
    return wl, tr, cfg, profile, plan


class TestProfileRoundTrip:
    def test_dict_roundtrip_preserves_samples(self, artifacts):
        _, _, _, profile, _ = artifacts
        clone = profile_from_dict(profile_to_dict(profile))
        assert clone.total_samples == profile.total_samples
        assert clone.miss_pcs() == profile.miss_pcs()
        assert clone.block_occurrences == profile.block_occurrences

    def test_file_roundtrip(self, artifacts, tmp_path):
        _, _, _, profile, _ = artifacts
        path = str(tmp_path / "profile.json")
        save_profile(profile, path)
        clone = load_profile(path)
        assert clone.app_name == profile.app_name
        assert len(clone) == len(profile)

    def test_stream_roundtrip(self):
        prof = MissProfile("x", "0")
        prof.add_sample(0xA, 1, ((2, 30.0), (3, 25.0)))
        buf = io.StringIO()
        save_profile(prof, buf)
        buf.seek(0)
        clone = load_profile(buf)
        assert clone.samples_for(0xA)[0].window == ((2, 30.0), (3, 25.0))

    def test_rejects_wrong_kind(self):
        with pytest.raises(ProfileError):
            profile_from_dict({"kind": "prefetch_plan", "format": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(ProfileError):
            profile_from_dict({"kind": "miss_profile", "format": 99})

    def test_output_is_plain_json(self, artifacts):
        _, _, _, profile, _ = artifacts
        text = json.dumps(profile_to_dict(profile))
        assert json.loads(text)["kind"] == "miss_profile"


class TestSchemaVersion:
    """The ``schema_version`` field and its failure modes."""

    def test_writers_stamp_schema_version(self, artifacts):
        _, _, _, profile, plan = artifacts
        assert profile_to_dict(profile)["schema_version"] == SCHEMA_VERSION
        assert plan_to_dict(plan)["schema_version"] == PLAN_SCHEMA_VERSION

    def test_legacy_format_only_files_still_load(self, artifacts):
        _, _, _, profile, plan = artifacts
        legacy = profile_to_dict(profile)
        del legacy["schema_version"]
        clone = profile_from_dict(legacy)
        assert clone.total_samples == profile.total_samples
        legacy_plan = plan_to_dict(plan)
        del legacy_plan["schema_version"]
        assert plan_from_dict(legacy_plan).total_ops() == plan.total_ops()

    def test_missing_version_is_a_clear_error(self, artifacts):
        _, _, _, profile, plan = artifacts
        data = profile_to_dict(profile)
        del data["schema_version"]
        del data["format"]
        with pytest.raises(ProfileError, match="schema_version"):
            profile_from_dict(data)
        plan_data = plan_to_dict(plan)
        del plan_data["schema_version"]
        del plan_data["format"]
        with pytest.raises(PlanError, match="schema_version"):
            plan_from_dict(plan_data)

    def test_unknown_version_is_a_clear_error(self, artifacts):
        _, _, _, profile, _ = artifacts
        data = profile_to_dict(profile)
        data["schema_version"] = 99
        with pytest.raises(ProfileError, match="version 99"):
            profile_from_dict(data)

    def test_missing_payload_is_typed_not_keyerror(self):
        with pytest.raises(ProfileError, match="samples"):
            profile_from_dict(
                {"kind": "miss_profile", "format": 1, "app": "x", "input": "0"}
            )
        with pytest.raises(PlanError, match="ops"):
            plan_from_dict(
                {"kind": "prefetch_plan", "format": PLAN_SCHEMA_VERSION, "app": "x"}
            )


class TestFileBoundaryErrors:
    """A malformed file raises the artifact's typed error, cause chained."""

    def test_plan_that_is_not_json(self):
        with pytest.raises(PlanError, match="not valid JSON") as info:
            load_plan(io.StringIO("{not json"))
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_profile_sample_without_a_window(self):
        data = {"kind": "miss_profile", "format": 1, "samples": [{"miss_pc": "x"}]}
        with pytest.raises(ProfileError, match="sample 0") as info:
            load_profile(io.StringIO(json.dumps(data)))
        assert isinstance(info.value.__cause__, KeyError)

    def test_profile_that_is_a_json_list(self):
        with pytest.raises(ProfileError, match="not a serialized miss profile"):
            load_profile(io.StringIO("[1, 2]"))


class TestPlanRoundTrip:
    def test_dict_roundtrip_equivalent_plan(self, artifacts):
        _, _, _, _, plan = artifacts
        clone = plan_from_dict(plan_to_dict(plan))
        assert clone.total_ops() == plan.total_ops()
        assert clone.total_prefetch_entries() == plan.total_prefetch_entries()
        assert clone.static_bytes() == plan.static_bytes()
        assert clone.table == plan.table
        assert clone.sim_ops().keys() == plan.sim_ops().keys()

    def test_file_roundtrip_simulates_identically(self, artifacts, tmp_path):
        wl, tr, cfg, _, plan = artifacts
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        clone = load_plan(path)
        a = run_with_plan(wl, tr, plan, cfg)
        b = run_with_plan(wl, tr, clone, cfg)
        assert a.cycles == b.cycles
        assert a.btb_covered_misses == b.btb_covered_misses

    def test_rejects_wrong_kind(self):
        with pytest.raises(PlanError):
            plan_from_dict({"kind": "miss_profile", "format": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(PlanError):
            plan_from_dict({"kind": "prefetch_plan", "format": 0})

    def test_v1_layout_is_refused_by_version(self):
        with pytest.raises(PlanError, match="version 1"):
            plan_from_dict(V1_PLAN)


class TestColumnarLayout:
    """Version 2 plans: flat int rows and equal-length op columns."""

    @given(plans())
    @settings(max_examples=50)
    @example(PrefetchPlan(app_name="empty"))
    def test_json_round_trip_is_exact(self, plan):
        text = json.dumps(plan_to_dict(plan))
        assert plan_from_dict(json.loads(text)) == plan

    def test_layout(self):
        plan = PrefetchPlan(app_name="x", table=((64, 128, 1), (96, 160, 2)))
        plan.add_op(InjectionOp(OP_COALESCE, 3, ((64, 128, 1), (96, 160, 2)), 8))
        plan.add_op(InjectionOp(OP_PREFETCH, 3, ((32, 48, 0),), 6))
        data = plan_to_dict(plan)
        assert data["table"] == [64, 128, 1, 96, 160, 2]
        assert data["ops"] == {
            "kind": [1, 0],
            "block": [3, 3],
            "bytes_cost": [8, 6],
            "entry_count": [2, 1],
        }
        assert data["entries"] == [64, 128, 1, 96, 160, 2, 32, 48, 0]

    @pytest.mark.parametrize(
        "column, values, message",
        [
            ("kind", [1, 7], "unknown op kind 7"),
            ("kind", [-1, 0], "unknown op kind -1"),
            ("kind", [1, True], "ops.kind must be a list of ints"),
            ("block", [3, "3"], "ops.block must be a list of ints"),
            ("bytes_cost", [8], "differ in length"),
            ("entry_count", [3, 0], "at least one entry"),
            ("entry_count", [4, -1], "entry counts do not split"),
            ("entry_count", [2, 2], "entry counts do not split"),
            ("entries", [64, 128, 1, 96, 160, 2, 32, 48], "not a multiple of 3"),
            ("table", [64, 128], "not a multiple of 3"),
            ("table", None, "table must be a list of ints"),
            ("misses_targeted", "many", "plan counters"),
        ],
        ids=[
            "unknown-kind",
            "negative-kind",
            "bool-in-column",
            "str-in-column",
            "length-mismatch",
            "zero-entry-op",
            "negative-count",
            "counts-overrun-entries",
            "entries-not-triples",
            "table-not-triples",
            "no-table",
            "str-counter",
        ],
    )
    def test_column_faults_are_plan_errors(self, column, values, message):
        plan = PrefetchPlan(app_name="x")
        plan.add_op(InjectionOp(OP_COALESCE, 3, ((64, 128, 1), (96, 160, 2)), 8))
        plan.add_op(InjectionOp(OP_PREFETCH, 3, ((32, 48, 0),), 6))
        data = json.loads(json.dumps(plan_to_dict(plan)))
        if column in data["ops"]:
            data["ops"][column] = values
        else:
            data[column] = values
        with pytest.raises(PlanError, match=message):
            plan_from_dict(data)


class TestAtomicSaves:
    """Torn-write regression: an interrupted save must never clobber
    the artifact already on disk, and must clean up its tmp file."""

    class Boom(BaseException):
        """Out-of-band interrupt, like SIGKILL landing mid-dump."""

    def crashing_dump(self, monkeypatch, after_chars: int):
        """Make the JSON writer die once it has emitted *after_chars*
        characters: the writer encodes piece by piece with json.dumps,
        so the earlier pieces are already in the tmp file."""
        import repro.profiling.serialize as serialize

        real_dumps = json.dumps
        emitted = [0]

        def dumps(obj, **kwargs):
            if emitted[0] >= after_chars:
                raise self.Boom()
            text = real_dumps(obj, **kwargs)
            emitted[0] += len(text)
            return text

        monkeypatch.setattr(serialize.json, "dumps", dumps)

    def test_interrupted_save_profile_keeps_old_file(
        self, artifacts, tmp_path, monkeypatch
    ):
        _, _, _, profile, _ = artifacts
        path = str(tmp_path / "profile.json")
        save_profile(profile, path)
        before = Path(path).read_text(encoding="utf-8")

        replacement = MissProfile("other", "1")
        replacement.add_sample(0xA, 1, ((2, 30.0), (3, 25.0)))
        self.crashing_dump(monkeypatch, after_chars=40)
        with pytest.raises(self.Boom):
            save_profile(replacement, path)
        monkeypatch.undo()

        assert Path(path).read_text(encoding="utf-8") == before
        clone = load_profile(path)  # still loads, not torn
        assert clone.total_samples == profile.total_samples
        assert not list(tmp_path.glob("*.tmp")), "tmp file left behind"

    def test_interrupted_save_plan_keeps_old_file(
        self, artifacts, tmp_path, monkeypatch
    ):
        _, _, _, _, plan = artifacts
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        before = Path(path).read_text(encoding="utf-8")

        self.crashing_dump(monkeypatch, after_chars=25)
        with pytest.raises(self.Boom):
            save_plan(plan, path)
        monkeypatch.undo()

        assert Path(path).read_text(encoding="utf-8") == before
        assert load_plan(path).table == plan.table
        assert not list(tmp_path.glob("*.tmp")), "tmp file left behind"

    def test_stream_saves_still_write_through(self, artifacts):
        """File-object saves are the caller's transaction, not ours."""
        _, _, _, profile, _ = artifacts
        buf = io.StringIO()
        save_profile(profile, buf)
        assert json.loads(buf.getvalue())["kind"] == "miss_profile"


class TestJsonWriter:
    """The shared artifact writer emits exactly ``json.dumps(data)``."""

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"a": [], "b": {}, "c": [1, [2, 3], {"d": None}], "e": 1.5},
            {"nan": float("nan"), "uni": "caf\u00e9 \u2603", "t": (1, 2)},
            {1: "int key", "s": [True, False]},
            [{"x": 1}, [2]],
            "scalar",
        ],
    )
    def test_bytes_equal_json_dumps(self, data):
        buf = io.StringIO()
        write_json(data, buf)
        assert buf.getvalue() == json.dumps(data)
        # ...which is also what the json.dump writers it replaced wrote.
        old = io.StringIO()
        json.dump(data, old)
        assert buf.getvalue() == old.getvalue()

    @pytest.mark.parametrize(
        "data, pieces",
        [
            ({"rows": [1, 2, 3], "n": 4}, 4),
            ({"shards": [{"a": 1}, [2]], "n": 4}, 5),
        ],
        ids=["flat-column-whole", "containers-one-by-one"],
    )
    def test_only_lists_of_containers_are_split(self, data, pieces, monkeypatch):
        import repro.profiling.serialize as serialize

        real_dumps = json.dumps
        calls = []

        def dumps(obj, **kwargs):
            calls.append(obj)
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(serialize.json, "dumps", dumps)
        buf = io.StringIO()
        write_json(data, buf)
        monkeypatch.undo()
        assert buf.getvalue() == json.dumps(data)
        assert len(calls) == pieces

    def test_profile_bytes_equal_json_dumps(self, artifacts, tmp_path):
        _, _, _, profile, plan = artifacts
        path = tmp_path / "profile.json"
        save_profile(profile, str(path))
        assert path.read_bytes() == json.dumps(profile_to_dict(profile)).encode()
        buf = io.StringIO()
        save_profile(profile, buf)
        assert buf.getvalue() == json.dumps(profile_to_dict(profile))
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        assert path.read_bytes() == json.dumps(plan_to_dict(plan)).encode()
