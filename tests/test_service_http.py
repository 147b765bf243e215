"""HTTP transport round-trips, wire versioning, typed errors
(repro.service.http) over real localhost sockets."""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json

import pytest

from repro.config import SimConfig
from repro.core.plan import OP_COALESCE, OP_PREFETCH, InjectionOp, PrefetchPlan
from repro.core.twig import build_plan
from repro.errors import (
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    SnapshotError,
    TransportError,
)
import repro.service.http as http_mod
from repro.service.bench import collect_sample_stream
from repro.service.build import PlanDiff, PlanVersion, plans_equivalent
from repro.service.http import (
    WIRE_SCHEMA_VERSION,
    HttpPlanServer,
    PlanClient,
)
from repro.service.persist import plan_version_to_dict
from repro.service.server import PlanService, ServiceConfig

CFG = SimConfig().with_btb(entries=512)
APP = "tinyapp"


@pytest.fixture(scope="module")
def stream_artifacts(tiny_workload, tiny_trace):
    profile, stream = collect_sample_stream(tiny_workload, tiny_trace, CFG)
    assert stream, "tiny trace must produce BTB miss samples"
    return profile, stream


def make_service(tiny_workload, **overrides) -> PlanService:
    defaults = dict(
        queue_depth=64,
        deadline_ms=30_000,
        reservoir_capacity=1 << 20,
        workers=2,
        debounce_s=30.0,
    )
    defaults.update(overrides)
    return PlanService(
        workload_for=lambda app: tiny_workload,
        config=ServiceConfig(**defaults),
        sim_config=CFG,
    )


async def raw_request(host: str, port: int, text: bytes):
    """Send raw bytes, return (status, parsed JSON body)."""
    status, body = await raw_response(host, port, text)
    return status, (json.loads(body) if body else {})


async def raw_response(host: str, port: int, text: bytes):
    """Send raw bytes, return (status, body bytes exactly as served)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(text)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = hline.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await reader.readexactly(length) if length else b""
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def ingest_in_batches(ingest, label, samples, first_seq=0) -> int:
    """Feed *samples* to *ingest* 64 at a time; returns the next seq."""
    seq = first_seq
    for start in range(0, len(samples), 64):
        await ingest(APP, label, samples[start : start + 64], seq=seq)
        seq += 1
    return seq


def request_bytes(method, path, payload=None, schema=WIRE_SCHEMA_VERSION):
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        + (f"X-Repro-Schema: {schema}\r\n" if schema is not None else "")
        + "Connection: close\r\n\r\n"
    ).encode()
    return head + body


class TestRoundTrip:
    def test_ingest_plan_stats_health_drain(
        self, tiny_workload, stream_artifacts
    ):
        profile, stream = stream_artifacts
        label = profile.input_label

        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                health = await client.health()
                assert health == {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "status": "ok",
                    "started": True,
                }
                for seq, start in enumerate(range(0, len(stream), 64)):
                    chunk = stream[start : start + 64]
                    ack = await client.ingest(APP, label, chunk, seq=seq)
                    assert ack.key == (APP, label)
                    assert ack.received == len(chunk)
                version = await client.get_plan(APP, label)
                stats = await client.stats()
                drained = await client.drain()
                return version, stats, drained

        version, stats, drained = asyncio.run(scenario())
        offline = build_plan(tiny_workload, profile, CFG)
        assert plans_equivalent(version.plan, offline)
        assert version.checked
        shard = stats["shards"][f"{APP}/{profile.input_label}"]
        assert shard["generation"] > 0
        assert drained["closed"] is True or drained.get("shards")

    def test_get_plan_via_query_string(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts
        label = profile.input_label

        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                await client.ingest(APP, label, stream[:64], seq=0)
                from urllib.parse import quote

                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes(
                        "GET",
                        f"/v1/plan?app={quote(APP)}&input={quote(label)}",
                    ),
                )
            await service.stop()
            return status, data

        status, data = asyncio.run(scenario())
        assert status == 200
        assert data["schema_version"] == WIRE_SCHEMA_VERSION
        assert data["plan_version"]["app"] == APP


class TestWireVersioning:
    def test_future_header_version_refused(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes("GET", "/v1/health", schema=999),
                )
            await service.stop()
            return status, data

        status, data = asyncio.run(scenario())
        assert status == 400
        assert data["error"]["type"] == "TransportError"
        assert "unsupported wire schema version 999" in data["error"]["message"]

    def test_future_body_version_refused(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes(
                        "POST",
                        "/v1/plan",
                        payload={
                            "schema_version": 999,
                            "app": APP,
                            "input": "x",
                        },
                        schema=None,  # no header: body stamp must gate
                    ),
                )
            await service.stop()
            return status, data

        status, data = asyncio.run(scenario())
        assert status == 400
        assert data["error"]["type"] == "TransportError"

    def test_client_refuses_future_response_version(self, tiny_workload):
        """Version negotiation is two-sided: a client must refuse a
        response stamped with a schema it does not speak."""

        async def fake_server(reader, writer):
            await reader.read(200)
            body = json.dumps({"schema_version": 999}).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\nX-Repro-Schema: 999\r\n\r\n"
                + body
            )
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = PlanClient("127.0.0.1", port)
            with pytest.raises(TransportError, match="unsupported wire"):
                await client.health()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_unknown_endpoint_rejected(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                status, data = await raw_request(
                    "127.0.0.1",
                    server.port,
                    request_bytes("GET", "/v2/everything"),
                )
            await service.stop()
            return status, data

        status, data = asyncio.run(scenario())
        assert status == 400
        assert "no endpoint" in data["error"]["message"]


class TestTypedErrors:
    def test_overload_crosses_the_wire_as_itself(self, tiny_workload):
        """A shed must stay distinguishable (503 + ServiceOverload):
        the client's retry logic depends on the class."""

        async def scenario():
            service = make_service(
                tiny_workload, queue_depth=1, workers=1,
                synthetic_delay_s=0.2,
            )
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                tasks = [
                    asyncio.ensure_future(client.stats()) for _ in range(12)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
            await service.stop()
            return results

        results = asyncio.run(scenario())
        sheds = [r for r in results if isinstance(r, ServiceOverload)]
        served = [r for r in results if isinstance(r, dict)]
        assert sheds, "an over-capacity burst must shed over the wire too"
        assert served, "in-capacity requests must still be served"

    def test_draining_service_is_closed_over_the_wire(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                service._closed = True  # what stop() sets while draining
                health = await client.health()
                with pytest.raises(ServiceClosed):
                    await client.stats()
                service._closed = False
            await service.stop()
            return health

        health = asyncio.run(scenario())
        # Health stays answerable while the queue path is refusing.
        assert health["status"] == "draining"

    def test_unknown_shard_is_a_service_error(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                with pytest.raises(ServiceError, match="no samples"):
                    await client.get_plan(APP, "never-ingested")
            await service.stop()

        asyncio.run(scenario())

    def test_unreachable_server_is_a_transport_error(self):
        async def scenario():
            client = PlanClient("127.0.0.1", 1)  # nothing listens there
            with pytest.raises(TransportError, match="cannot reach"):
                await client.health()

        asyncio.run(scenario())


def plan_request(label: str) -> bytes:
    return request_bytes(
        "POST",
        "/v1/plan",
        payload={"schema_version": WIRE_SCHEMA_VERSION, "app": APP, "input": label},
    )


def encoded_plan_body(version) -> bytes:
    """The plan response body exactly as a fresh encode produces it."""
    return json.dumps(
        {
            "schema_version": WIRE_SCHEMA_VERSION,
            "plan_version": plan_version_to_dict(version),
        }
    ).encode()


@pytest.fixture()
def encodes(monkeypatch):
    """Versions the server encoded, via the module global it calls."""
    seen = []

    def counting(version):
        seen.append(version)
        return plan_version_to_dict(version)

    monkeypatch.setattr(http_mod, "plan_version_to_dict", counting)
    return seen


class ScriptedService:
    """Stands in for PlanService: each get_plan returns the next object."""

    def __init__(self, versions):
        self._versions = iter(versions)

    async def get_plan(self, app_name, input_label, deadline_ms=None):
        return next(self._versions)


class TestPlanBodyReuse:
    def test_served_bytes_equal_a_fresh_encode(
        self, tiny_workload, stream_artifacts
    ):
        profile, stream = stream_artifacts
        label = profile.input_label

        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                await ingest_in_batches(client.ingest, label, stream)
                first = await raw_response(
                    "127.0.0.1", server.port, plan_request(label)
                )
                again = await raw_response(
                    "127.0.0.1", server.port, plan_request(label)
                )
                health = await raw_response(
                    "127.0.0.1", server.port, request_bytes("GET", "/v1/health")
                )
                missing = await raw_response(
                    "127.0.0.1",
                    server.port,
                    request_bytes("GET", "/v2/everything"),
                )
                version = await service.get_plan(APP, label)
            await service.stop()
            return first, again, health, missing, version

        first, again, health, missing, version = asyncio.run(scenario())
        assert first == (200, encoded_plan_body(version))
        assert again == first
        assert health == (
            200,
            json.dumps(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "status": "ok",
                    "started": True,
                }
            ).encode(),
        )
        assert missing == (
            400,
            json.dumps(
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "error": {
                        "type": "TransportError",
                        "message": "no endpoint for GET /v2/everything",
                    },
                }
            ).encode(),
        )

    def test_unchanged_shard_is_encoded_once(
        self, tiny_workload, stream_artifacts, encodes
    ):
        profile, stream = stream_artifacts
        label = profile.input_label

        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                await ingest_in_batches(client.ingest, label, stream)
                fetched = [await client.get_plan(APP, label) for _ in range(20)]
            await service.stop()
            return fetched

        fetched = asyncio.run(scenario())
        assert len(encodes) == 1
        assert {v.version for v in fetched} == {encodes[0].version}
        assert all(plans_equivalent(v.plan, encodes[0].plan) for v in fetched)

    def test_rebuild_serves_the_new_version(
        self, tiny_workload, stream_artifacts, encodes
    ):
        profile, stream = stream_artifacts
        label = profile.input_label
        half = len(stream) // 2

        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            async with HttpPlanServer(service) as server:
                client = PlanClient("127.0.0.1", server.port)
                seq = await ingest_in_batches(client.ingest, label, stream[:half])
                before = await client.get_plan(APP, label)
                await ingest_in_batches(
                    client.ingest, label, stream[half:], first_seq=seq
                )
                _status, body = await raw_response(
                    "127.0.0.1", server.port, plan_request(label)
                )
                latest = await service.get_plan(APP, label)
            await service.stop()
            return before, body, latest

        before, body, latest = asyncio.run(scenario())
        assert latest.version == before.version + 1
        assert body == encoded_plan_body(latest)
        assert [v.version for v in encodes] == [before.version, latest.version]

    def test_body_follows_the_object_not_the_version_number(
        self, tiny_workload, stream_artifacts, encodes
    ):
        """Numbers repeat (a forgotten shard restarts at 1) and a
        rollback serves an older object: identity decides reuse."""
        profile, stream = stream_artifacts
        label = profile.input_label

        async def publish():
            service = make_service(tiny_workload)
            await service.start()
            await ingest_in_batches(service.ingest, label, stream)
            version = await service.get_plan(APP, label)
            await service.stop()
            return version

        older = asyncio.run(publish())
        newer = dataclasses.replace(
            older, plan=PrefetchPlan(app_name=older.plan.app_name)
        )
        assert (newer.key, newer.version) == (older.key, older.version)
        script = [older, newer, older]

        async def scenario():
            async with HttpPlanServer(ScriptedService(script)) as server:
                return [
                    await raw_response(
                        "127.0.0.1", server.port, plan_request(label)
                    )
                    for _ in script
                ]

        served = asyncio.run(scenario())
        assert served == [(200, encoded_plan_body(v)) for v in script]
        assert served[0] != served[1]
        assert [v is older for v in encodes] == [True, False, True]


OVERLONG = b"a" * (70 * 1024)  # past asyncio's 64 KiB stream line limit


class TestMalformedFraming:
    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"GARBAGE\r\n\r\n", "malformed request line"),
            (
                b"GET /v1/health HTTP/1.1\r\nno colon here\r\n\r\n",
                "malformed header line",
            ),
            (
                b"POST /v1/plan HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"GET /v1/health HTTP/1.1\r\nX-Pad: " + OVERLONG + b"\r\n\r\n",
                "line too long",
            ),
        ],
        ids=["request-line", "header-line", "content-length", "overlong-line"],
    )
    def test_malformed_request_is_a_typed_400(self, raw, message):
        unhandled = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
            async with HttpPlanServer(ScriptedService(())) as server:
                result = await raw_request("127.0.0.1", server.port, raw)
            gc.collect()  # an unretrieved handler task reports when collected
            return result

        status, data = asyncio.run(scenario())
        assert status == 400
        assert data["schema_version"] == WIRE_SCHEMA_VERSION
        assert data["error"]["type"] == "TransportError"
        assert message in data["error"]["message"]
        assert unhandled == []

    @pytest.mark.parametrize(
        "response, message",
        [
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"HTTP/1.1 200 OK\r\nX-Pad: " + OVERLONG + b"\r\n\r\n",
                "line too long",
            ),
            (b"HTTP/1.1 200 " + OVERLONG + b"\r\n\r\n", "line too long"),
        ],
        ids=["content-length", "overlong-header", "overlong-status"],
    )
    def test_client_framing_errors_are_typed(self, response, message):
        with pytest.raises(TransportError, match=message):
            fetch_from(response)

    def test_fake_server_plan_decodes(self):
        assert fetch_from(plan_response(plan_version_to_dict(SMALL))) == SMALL

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda pv: pv.pop("diff"), "malformed plan-version snapshot: 'diff'"),
            (lambda pv: pv["plan"].update(ops=[1, 2]), "'ops' must be an object"),
            (lambda pv: pv["plan"]["ops"].update(kind=[0, 7]), "unknown op kind 7"),
            (lambda pv: pv["plan"]["ops"].update(kind=[-1, 1]), "unknown op kind -1"),
            (lambda pv: pv["plan"]["ops"].update(block=[3]), "differ in length"),
            (
                lambda pv: pv["plan"]["ops"].update(bytes_cost=[6, True]),
                "ops.bytes_cost must be a list of ints",
            ),
            (
                lambda pv: pv["plan"].update(entries=["64"] + pv["plan"]["entries"][1:]),
                "entries must be a list of ints",
            ),
            (
                lambda pv: pv["plan"]["ops"].update(entry_count=[0, 3]),
                "at least one entry",
            ),
            (
                lambda pv: pv["plan"]["entries"].pop(),
                "not a multiple of 3",
            ),
        ],
        ids=[
            "no-diff",
            "ops-not-columns",
            "unknown-kind",
            "negative-kind",
            "length-mismatch",
            "bool-in-column",
            "str-in-column",
            "zero-entry-op",
            "entries-not-triples",
        ],
    )
    def test_malformed_plan_response_is_a_transport_error(self, mutate, message):
        payload = plan_version_to_dict(SMALL)
        mutate(payload)
        with pytest.raises(TransportError, match=message) as info:
            fetch_from(plan_response(payload))
        assert isinstance(info.value.__cause__, SnapshotError)

    def test_plan_version_sent_as_a_list_is_a_transport_error(self):
        with pytest.raises(TransportError, match="malformed plan-version") as info:
            fetch_from(plan_response([plan_version_to_dict(SMALL)]))
        assert isinstance(info.value.__cause__, SnapshotError)


def _small_version() -> PlanVersion:
    plan = PrefetchPlan(app_name=APP)
    plan.add_op(InjectionOp(OP_PREFETCH, 3, ((64, 128, 1),), 6))
    plan.add_op(InjectionOp(OP_COALESCE, 3, ((64, 128, 1), (96, 160, 2)), 8))
    return PlanVersion(
        key=(APP, "x"),
        version=1,
        generation=1,
        samples=3,
        plan=plan,
        diff=PlanDiff(added=((3, 64), (3, 96)), dropped=(), retargeted=()),
        checked=True,
    )


SMALL = _small_version()


def plan_response(plan_version) -> bytes:
    """A well-framed 200 whose body carries *plan_version* as given."""
    body = json.dumps(
        {"schema_version": WIRE_SCHEMA_VERSION, "plan_version": plan_version}
    ).encode()
    head = (
        f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
        f"X-Repro-Schema: {WIRE_SCHEMA_VERSION}\r\n\r\n"
    )
    return head.encode() + body


def fetch_from(response: bytes):
    """``PlanClient.get_plan`` against a server that answers *response*."""

    async def fake_server(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split()[0])
        await reader.readexactly(length)
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            pass  # the client may hang up before reading it all
        writer.close()

    async def scenario():
        server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await PlanClient("127.0.0.1", port).get_plan(APP, "x")
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(scenario())
