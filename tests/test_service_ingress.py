"""Malformed samples are refused where they enter the plan service.

Every entry point checks sample values before a batch is queued or
journaled: the HTTP decoder answers 400 (``TransportError``), as it
does for a ``seq`` or ``deadline_ms`` that is not an integer and an
``app`` or ``input`` that is not a non-empty string, and
``PlanService.ingest``/``feedback`` raise ``ServiceError`` for raw rows.
``PlanService.ingest`` also refuses, with ``ServiceError``, a
well-typed sample that names no block of the app's workload.  A
refused batch leaves every worker task running and nothing in the WAL.
The restore path decodes with the same checks, so a damaged WAL line or
snapshot is a typed error.  (``FleetRouter.ingest`` is covered in
``test_service_fleet.py``.)
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.config import SimConfig
from repro.errors import (
    JournalError,
    ServiceError,
    SnapshotError,
    TransportError,
    WorkloadError,
)
from repro.profiling.profile import MissSample
from repro.service.bench import collect_sample_stream
from repro.service.http import WIRE_SCHEMA_VERSION, HttpPlanServer, PlanClient
from repro.service.ingest import decode_samples, encode_samples
from repro.service.journal import read_journal
from repro.service.persist import shard_from_dict, shard_to_dict
from repro.service.server import PlanService, ServiceConfig
from tests.test_service_http import raw_request, request_bytes

CFG = SimConfig().with_btb(entries=512)
APP = "tinyapp"
LABEL = "x"

# One malformed row per kind; every other value in the row is valid.
MALFORMED = {
    "str-pc": ["abc", 3, [[1, 12.0]]],
    "bool-pc": [True, 3, [[1, 12.0]]],
    "float-pc": [4096.0, 3, [[1, 12.0]]],
    "negative-pc": [-4, 3, [[1, 12.0]]],
    "null-block": [4096, None, [[1, 12.0]]],
    "negative-block": [4096, -3, [[1, 12.0]]],
    "window-not-a-list": [4096, 3, 7],
    "entry-not-a-pair": [4096, 3, [[1, 12.0, 5]]],
    "null-window-block": [4096, 3, [[None, "x"]]],
    "bool-window-block": [4096, 3, [[True, 12.0]]],
    "str-lead": [4096, 3, [[1, "x"]]],
    "bool-lead": [4096, 3, [[1, False]]],
    "inf-lead": [4096, 3, [[1, math.inf]]],
    "nan-lead": [4096, 3, [[1, math.nan]]],
    "short-row": [4096, 3],
    "row-not-a-list": 4096,
}
KINDS = sorted(MALFORMED)

# Well-typed rows the plan build could not attribute to the workload.
OUT_OF_RANGE = ["miss-block-past-end", "window-block-past-end", "pc-not-ending-block"]


@pytest.fixture(scope="module")
def good_rows(tiny_workload, tiny_trace):
    _profile, stream = collect_sample_stream(tiny_workload, tiny_trace, CFG)
    return encode_samples(stream[:4])


def out_of_range_row(kind, good_rows, n_blocks):
    pc, block, window = good_rows[0]
    if kind == "miss-block-past-end":
        return [pc, n_blocks, window]
    if kind == "window-block-past-end":
        return [pc, block, window + [[n_blocks, 1.0]]]
    return [pc + 1, block, window]


def make_service(tiny_workload, tmp_path) -> PlanService:
    return PlanService(
        workload_for=lambda app: tiny_workload,
        config=ServiceConfig(
            deadline_ms=30_000,
            debounce_s=30.0,
            journal_path=str(tmp_path / "wal.jsonl"),
        ),
        sim_config=CFG,
    )


def workers_alive(service: PlanService) -> bool:
    tasks = service._workers
    return len(tasks) == service.config.workers and not any(
        t.done() for t in tasks
    )


def journaled(tmp_path):
    """The samples of every batch in the WAL, as rows."""
    journal = read_journal(str(tmp_path / "wal.jsonl"))
    return [
        encode_samples(b.samples) for k in journal.keys() for b in journal.entries(k)
    ]


# ----------------------------------------------------------------------
class TestDecodeSamples:
    def test_valid_rows_and_samples_decode(self, good_rows):
        decoded = decode_samples(good_rows, ServiceError)
        assert encode_samples(decoded) == good_rows
        assert decode_samples(decoded, ServiceError) == decoded
        assert all(isinstance(s.window, tuple) for s in decoded)

    def test_int_leads_are_finite_numbers(self):
        (sample,) = decode_samples([[8, 0, [[0, 3], [2, 0.5]]]], ServiceError)
        assert sample == MissSample(8, 0, ((0, 3), (2, 0.5)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_malformed_kind_raises_the_given_error(self, kind, good_rows):
        rows = good_rows[:1] + [MALFORMED[kind]]
        with pytest.raises(TransportError, match="malformed samples"):
            decode_samples(rows, TransportError)


# ----------------------------------------------------------------------
class TestRestoreDecode:
    def test_damaged_wal_sample_is_a_journal_error(
        self, tiny_workload, tmp_path, good_rows
    ):
        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            await service.ingest(APP, LABEL, good_rows, seq=0)
            await service.stop()

        asyncio.run(scenario())
        path = tmp_path / "wal.jsonl"
        text = path.read_text()
        pc = good_rows[0][0]
        assert f"[[{pc}, " in text
        path.write_text(text.replace(f"[[{pc}, ", '[["abc", ', 1))
        with pytest.raises(JournalError, match="malformed samples"):
            read_journal(str(path))
        with pytest.raises(JournalError, match="malformed samples"):
            make_service(tiny_workload, tmp_path).restore()

    def test_damaged_snapshot_sample_is_a_snapshot_error(
        self, tiny_workload, tmp_path, good_rows
    ):
        service = make_service(tiny_workload, tmp_path)
        shard = service.buffer.shard((APP, LABEL))
        for sample in decode_samples(good_rows, ServiceError):
            shard.reservoir.offer(sample)
        data = shard_to_dict(shard)
        data["reservoir"]["items"][0][2][0][1] = math.inf
        fresh = make_service(tiny_workload, tmp_path / "fresh")
        with pytest.raises(SnapshotError, match="malformed samples"):
            shard_from_dict(data, fresh.buffer)


# ----------------------------------------------------------------------
class TestPlanServiceIngress:
    @pytest.mark.parametrize("kind", KINDS)
    def test_raw_rows_are_refused_before_the_queue(
        self, kind, tiny_workload, tmp_path, good_rows
    ):
        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            bad = good_rows[:1] + [MALFORMED[kind]]
            with pytest.raises(ServiceError, match="malformed samples"):
                await service.ingest(APP, LABEL, bad, seq=0)
            with pytest.raises(ServiceError, match="malformed samples"):
                await service.feedback(APP, LABEL, bad, seq=0)
            assert workers_alive(service)
            ack = await service.ingest(APP, LABEL, good_rows, seq=1)
            await service.stop()
            return ack

        ack = asyncio.run(scenario())
        assert ack.received == len(good_rows)
        assert journaled(tmp_path) == [good_rows]

    @pytest.mark.parametrize("app, label", [(5, LABEL), (APP, ("x",))])
    def test_non_string_shard_identity_is_refused(
        self, app, label, tiny_workload, tmp_path, good_rows
    ):
        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            with pytest.raises(ServiceError, match="non-empty"):
                await service.ingest(app, label, good_rows, seq=0)
            with pytest.raises(ServiceError, match="non-empty"):
                await service.feedback(app, label, good_rows, seq=0)
            assert workers_alive(service)
            await service.stop()

        asyncio.run(scenario())
        assert journaled(tmp_path) == []


    @pytest.mark.parametrize("kind", OUT_OF_RANGE)
    def test_samples_outside_the_workload_are_refused_before_the_queue(
        self, kind, tiny_workload, tmp_path, good_rows
    ):
        bad = good_rows[:1] + [
            out_of_range_row(kind, good_rows, tiny_workload.n_blocks)
        ]

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            with pytest.raises(ServiceError, match="of the app|app's"):
                await service.ingest(APP, LABEL, bad, seq=0)
            # Feedback may name blocks no current layout holds (a
            # relocated branch is what the canary's stale class counts).
            reply = await service.feedback(APP, LABEL, bad, seq=0)
            alive = workers_alive(service)
            ack = await service.ingest(APP, LABEL, good_rows, seq=1)
            plan = await service.get_plan(APP, LABEL)
            await service.stop()
            return reply, alive, ack, plan

        reply, alive, ack, plan = asyncio.run(scenario())
        assert reply["scored"] == len(bad)
        assert alive
        assert ack.received == len(good_rows)
        assert plan.samples == len(good_rows)
        assert journaled(tmp_path) == [good_rows]

    def test_a_mistyped_sample_object_is_refused(self, tiny_workload, tmp_path):
        # MissSample objects skip the row decoder's value checks.
        bad = [MissSample(miss_pc=4096, miss_block="3", window=())]

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            with pytest.raises(ServiceError, match="malformed samples"):
                await service.ingest(APP, LABEL, bad, seq=0)
            alive = workers_alive(service)
            await service.stop()
            return alive

        assert asyncio.run(scenario())
        assert journaled(tmp_path) == []

    def test_a_failed_workload_resolution_is_retried(
        self, tiny_workload, tmp_path, good_rows
    ):
        calls = []

        def resolve(app):
            calls.append(app)
            if len(calls) == 1:
                raise WorkloadError(f"unknown application {app!r}")
            return tiny_workload

        async def scenario():
            service = PlanService(
                workload_for=resolve,
                config=ServiceConfig(journal_path=str(tmp_path / "wal.jsonl")),
                sim_config=CFG,
            )
            await service.start()
            with pytest.raises(WorkloadError, match="unknown application"):
                await service.ingest(APP, LABEL, good_rows, seq=0)
            alive = workers_alive(service)
            ack = await service.ingest(APP, LABEL, good_rows, seq=1)
            await service.stop()
            return alive, ack

        alive, ack = asyncio.run(scenario())
        assert alive
        assert ack.received == len(good_rows)
        assert journaled(tmp_path) == [good_rows]


# ----------------------------------------------------------------------
class TestHttpIngress:
    @pytest.mark.parametrize("kind", KINDS)
    def test_malformed_sample_is_a_400_and_the_service_keeps_serving(
        self, kind, tiny_workload, tmp_path, good_rows
    ):
        def ingest_bytes(rows, seq):
            payload = {
                "schema_version": WIRE_SCHEMA_VERSION,
                "app": APP,
                "input": LABEL,
                "seq": seq,
                "samples": rows,
            }
            return request_bytes("POST", "/v1/ingest", payload=payload)

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    ingest_bytes(good_rows[:1] + [MALFORMED[kind]], 0),
                )
                alive = workers_alive(service)
                ack = await PlanClient("127.0.0.1", server.port).ingest(
                    APP, LABEL, good_rows, seq=1
                )
            await service.stop()
            return status, data, alive, ack

        status, data, alive, ack = asyncio.run(scenario())
        assert status == 400
        assert data["error"]["type"] == "TransportError"
        assert "malformed samples" in data["error"]["message"]
        assert alive
        assert ack.received == len(good_rows)
        assert journaled(tmp_path) == [good_rows]

    @pytest.mark.parametrize("kind", OUT_OF_RANGE)
    def test_samples_outside_the_workload_are_a_typed_error(
        self, kind, tiny_workload, tmp_path, good_rows
    ):
        bad = good_rows[:1] + [
            out_of_range_row(kind, good_rows, tiny_workload.n_blocks)
        ]

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                with pytest.raises(ServiceError, match="of the app|app's") as info:
                    await client.ingest(APP, LABEL, bad, seq=0)
                alive = workers_alive(service)
                ack = await client.ingest(APP, LABEL, good_rows, seq=1)
            await service.stop()
            return info.type, alive, ack

        error_type, alive, ack = asyncio.run(scenario())
        assert error_type is ServiceError
        assert alive
        assert ack.received == len(good_rows)
        assert journaled(tmp_path) == [good_rows]

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"seq": "abc"}, "must be an integer"),
            ({"seq": 1.5}, "must be an integer"),
            ({"deadline_ms": "abc"}, "must be an integer"),
            ({"app": 5}, "non-empty strings"),
            ({"app": [1]}, "non-empty strings"),
            ({"input": ""}, "non-empty strings"),
        ],
        ids=[
            "str-seq", "float-seq", "str-deadline", "int-app", "list-app", "empty-input"
        ],
    )
    def test_malformed_ingest_field_is_a_400_and_nothing_is_queued(
        self, field, message, tiny_workload, tmp_path, good_rows
    ):
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "app": APP,
            "input": LABEL,
            "samples": good_rows,
        }
        payload.update(field)

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes("POST", "/v1/ingest", payload=payload),
                )
                alive = workers_alive(service)
            await service.stop()
            return status, data, alive

        status, data, alive = asyncio.run(scenario())
        assert status == 400
        assert data["error"]["type"] == "TransportError"
        assert message in data["error"]["message"]
        assert alive
        assert journaled(tmp_path) == []

    def test_plan_request_for_a_list_app_is_a_400(self, tiny_workload, tmp_path):
        payload = {"schema_version": WIRE_SCHEMA_VERSION, "app": [1], "input": LABEL}

        async def scenario():
            service = make_service(tiny_workload, tmp_path)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes("POST", "/v1/plan", payload=payload),
                )
                alive = workers_alive(service)
            await service.stop()
            return status, data, alive

        status, data, alive = asyncio.run(scenario())
        assert status == 400
        assert "non-empty strings" in data["error"]["message"]
        assert alive

    def test_client_refuses_a_malformed_row_before_sending(self):
        async def scenario():
            client = PlanClient("127.0.0.1", 1)  # never contacted
            with pytest.raises(TransportError, match="malformed samples"):
                await client.ingest(APP, LABEL, [MALFORMED["str-pc"]])

        asyncio.run(scenario())
