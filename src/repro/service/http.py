"""HTTP transport for the plan service (stdlib-only asyncio).

The in-process :class:`~repro.service.server.PlanService` queue is the
serving *discipline*; this module is the *wire*.  A minimal HTTP/1.1
endpoint built on :func:`asyncio.start_server` exposes the service to
real sockets, and :class:`PlanClient` is the matching typed client.

Endpoints (all JSON bodies)::

    POST /v1/ingest   {"app", "input", "seq", "samples", ["deadline_ms"]}
    POST /v1/plan     {"app", "input", ["deadline_ms"]}
    GET  /v1/plan?app=...&input=...
    GET  /v1/stats    (served through the request queue)
    GET  /v1/health   (synchronous; works even when the queue is jammed)
    POST /v1/drain    (graceful stop; returns the final stats snapshot)

Wire-format versioning rides the existing ``schema_version`` machinery:
every payload — request and response, success and error — is stamped
with :data:`WIRE_SCHEMA_VERSION` (mirrored in the ``X-Repro-Schema``
header), and both ends refuse unknown versions with a typed
:class:`~repro.errors.TransportError` rather than misparsing.

The ingest decoder checks every sample value
(:func:`~repro.service.ingest.decode_samples`): a malformed sample is a
400 ``TransportError`` before the batch reaches the service's queue or
its journal.

Service errors cross the wire as ``{"error": {"type", "message"}}``
with a faithful status code; the client reconstructs the original
typed exception, so ``ServiceOverload`` (shed, safe to resend) stays
distinguishable from everything else exactly as it is in-process.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    DeadlineExceeded,
    FleetError,
    JournalError,
    PlanError,
    ReproError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    SnapshotError,
    TransportError,
    WorkerCrashed,
)
from ..profiling.serialize import check_schema_version
from .build import PlanVersion
from .ingest import IngestAck, decode_samples, encode_samples
from .persist import plan_version_from_dict, plan_version_to_dict

# Wire-format schema version (independent of artifact/journal schemas).
# Version 2 sends plan versions in the columnar plan layout; version 3
# drops the ingest ack's ``filtered`` count; version 4 drops the plan
# version's ``checked`` flag.
WIRE_SCHEMA_VERSION = 4

_SCHEMA_HEADER = "X-Repro-Schema"

# Typed errors that may cross the wire, by class name.  The client
# resurrects the exact class; an unknown name degrades to ServiceError
# (still a ReproError, still carries the message).
_WIRE_ERRORS = {
    cls.__name__: cls
    for cls in (
        ServiceError,
        ServiceOverload,
        ServiceClosed,
        DeadlineExceeded,
        TransportError,
        SnapshotError,
        FleetError,
        WorkerCrashed,
        JournalError,
        PlanError,
    )
}

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _status_for(exc: ReproError) -> int:
    """Map a service exception to the HTTP status that tells the truth."""
    if isinstance(exc, (ServiceOverload, ServiceClosed)):
        return 503  # back off and retry (overload) or stop (draining)
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, TransportError):
        return 400
    return 500


def _check_wire_version(data: dict) -> None:
    check_schema_version(
        data, "wire payload", TransportError, expected=WIRE_SCHEMA_VERSION
    )


def _shard_key(data: dict, kind: str) -> Tuple[str, str]:
    """The request's ``(app, input)``; anything but two non-empty
    strings is a 400, not a crash in a service worker."""
    app, label = data.get("app"), data.get("input")
    if not (isinstance(app, str) and app and isinstance(label, str) and label):
        raise TransportError(
            f"{kind} request needs both 'app' and 'input' as non-empty strings"
        )
    return app, label


def _int_field(data: dict, name: str, default: Optional[int] = None):
    """An integer request field; another type is a 400, not a crash."""
    value = data.get(name, default)
    if value is not None and type(value) is not int:
        raise TransportError(f"{name} must be an integer, got {value!r}")
    return value


def _ack_to_wire(ack: IngestAck) -> dict:
    return {
        "app": ack.key[0],
        "input": ack.key[1],
        "generation": ack.generation,
        "received": ack.received,
        "admitted": ack.admitted,
        "dropped": ack.dropped,
    }


def _ack_from_wire(data: dict) -> IngestAck:
    try:
        return IngestAck(
            key=(data["app"], data["input"]),
            generation=int(data["generation"]),
            received=int(data["received"]),
            admitted=int(data["admitted"]),
            dropped=int(data["dropped"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed ingest ack: {exc}") from exc


def _wire_body(payload: dict) -> bytes:
    """Stamp *payload* with the wire schema version and encode it."""
    stamped = {"schema_version": WIRE_SCHEMA_VERSION}
    stamped.update(payload)
    return json.dumps(stamped).encode("utf-8")


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request/status/header line; an over-long line is malformed."""
    try:
        return await reader.readline()
    except ValueError as exc:  # line longer than the stream limit (64 KiB)
        raise TransportError(f"HTTP line too long: {exc}") from None


async def _read_headers_and_body(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, str], bytes]:
    """The header block after the first line, then a Content-Length body."""
    headers: Dict[str, str] = {}
    while True:
        hline = await _read_line(reader)
        if hline in (b"\r\n", b"\n", b""):
            break
        name, sep, value = hline.decode("latin-1").partition(":")
        if not sep:
            raise TransportError(f"malformed header line {hline!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not raw_length.isdecimal():
        raise TransportError(f"malformed Content-Length {raw_length!r}")
    return headers, await reader.readexactly(int(raw_length))


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------

class HttpPlanServer:
    """Asyncio HTTP front end over one :class:`PlanService`.

    A plan response is encoded once per published :class:`PlanVersion`
    object and its bytes are reused until the service hands out a
    different object for that shard (see :meth:`_plan_body`).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port at start
        self._server: Optional[asyncio.AbstractServer] = None
        # shard key -> (last PlanVersion served, its full response body)
        self._plan_bodies: Dict[Tuple[str, str], Tuple[PlanVersion, bytes]] = {}

    # ------------------------------------------------------------------
    async def start(self) -> "HttpPlanServer":
        if self._server is not None:
            raise TransportError("HTTP server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "HttpPlanServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one request: parse, dispatch, respond, close."""
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, headers, body = request
                self._check_header_version(headers)
                status, response = await self._dispatch(method, target, body)
            except ReproError as exc:
                status = _status_for(exc)
                response = _wire_body(
                    {"error": {"type": type(exc).__name__, "message": str(exc)}}
                )
            await self._respond(writer, status, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader) -> Optional[Tuple[str, str, Dict, bytes]]:
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise TransportError(f"malformed request line {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers, body = await _read_headers_and_body(reader)
        return method, target, headers, body

    def _check_header_version(self, headers: Dict[str, str]) -> None:
        raw = headers.get(_SCHEMA_HEADER.lower())
        if raw is None:
            return  # body stamp still applies for payload-bearing requests
        try:
            version = int(raw)
        except ValueError:
            raise TransportError(
                f"malformed {_SCHEMA_HEADER} header {raw!r}"
            ) from None
        if version != WIRE_SCHEMA_VERSION:
            raise TransportError(
                f"unsupported wire schema version {version}; this server "
                f"speaks version {WIRE_SCHEMA_VERSION}"
            )

    def _parse_body(self, body: bytes) -> dict:
        if not body:
            raise TransportError("request carries no JSON body")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise TransportError("request body must be a JSON object")
        _check_wire_version(data)
        return data

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, bytes]:
        split = urlsplit(target)
        path = split.path
        if path == "/v1/ingest" and method == "POST":
            data = self._parse_body(body)
            app, label = _shard_key(data, "ingest")
            if "samples" not in data:
                raise TransportError("ingest payload missing 'samples'")
            ack = await self.service.ingest(
                app,
                label,
                decode_samples(data["samples"], TransportError),
                seq=_int_field(data, "seq", 0),
                deadline_ms=_int_field(data, "deadline_ms"),
            )
            return 200, _wire_body({"ack": _ack_to_wire(ack)})
        if path == "/v1/plan" and method in ("GET", "POST"):
            if method == "POST":
                data = self._parse_body(body)
            else:
                query = parse_qs(split.query)
                data = {
                    "app": (query.get("app") or [None])[0],
                    "input": (query.get("input") or [None])[0],
                }
            app, label = _shard_key(data, "plan")
            version = await self.service.get_plan(
                app, label, deadline_ms=_int_field(data, "deadline_ms")
            )
            return 200, self._plan_body(version)
        if path == "/v1/stats" and method == "GET":
            return 200, _wire_body({"stats": await self.service.stats()})
        if path == "/v1/health" and method == "GET":
            return 200, _wire_body(
                {
                    "status": "draining" if self.service._closed else "ok",
                    "started": self.service._started,
                }
            )
        if path == "/v1/drain" and method == "POST":
            return 200, _wire_body({"stats": await self.service.stop()})
        raise TransportError(f"no endpoint for {method} {path}")

    def _plan_body(self, version: PlanVersion) -> bytes:
        """The response body for *version*, encoded once per object.

        Reuse is keyed on object identity, not on the version number:
        a published ``PlanVersion`` is frozen and its plan is never
        mutated after the publish gate, but numbers repeat (a forgotten
        shard restarts at 1) and a canary rollback serves an older
        object again.  The entry holds the version itself, so its id
        cannot be recycled while the entry lives.  Memory is one body
        per shard key this server has answered; a forgotten shard's
        entry lives until that key is fetched again or the server stops.
        """
        entry = self._plan_bodies.get(version.key)
        if entry is not None and entry[0] is version:
            return entry[1]
        body = _wire_body({"plan_version": plan_version_to_dict(version)})
        self._plan_bodies[version.key] = (version, body)
        return body

    async def _respond(self, writer, status: int, body: bytes) -> None:
        reason = _STATUS_REASONS.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_SCHEMA_HEADER}: {WIRE_SCHEMA_VERSION}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

class PlanClient:
    """Typed asyncio client for :class:`HttpPlanServer`.

    One connection per request — simple and stateless, which is what a
    load generator simulating many independent clients wants anyway.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    # ------------------------------------------------------------------
    async def ingest(
        self,
        app_name: str,
        input_label: str,
        samples,
        seq: int = 0,
        deadline_ms: Optional[int] = None,
    ) -> IngestAck:
        payload = {
            "app": app_name,
            "input": input_label,
            "seq": seq,
            "samples": encode_samples(decode_samples(samples, TransportError)),
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        data = await self._request("POST", "/v1/ingest", payload)
        return _ack_from_wire(data["ack"])

    async def get_plan(
        self, app_name: str, input_label: str, deadline_ms: Optional[int] = None
    ) -> PlanVersion:
        payload = {"app": app_name, "input": input_label}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        data = await self._request("POST", "/v1/plan", payload)
        try:
            raw = data["plan_version"]
        except KeyError:
            raise TransportError("plan response carries no plan_version") from None
        try:
            return plan_version_from_dict(raw)
        except SnapshotError as exc:
            # A 200 whose plan does not decode is a malformed response.
            raise TransportError(str(exc)) from exc

    async def stats(self) -> Dict:
        data = await self._request("GET", "/v1/stats")
        return data.get("stats", {})

    async def health(self) -> Dict:
        return await self._request("GET", "/v1/health")

    async def drain(self) -> Dict:
        data = await self._request("POST", "/v1/drain", {})
        return data.get("stats", {})

    # ------------------------------------------------------------------
    async def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        body = _wire_body(payload) if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_SCHEMA_HEADER}: {WIRE_SCHEMA_VERSION}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except OSError as exc:
            raise TransportError(
                f"cannot reach plan server at {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            writer.write(head + body)
            await writer.drain()
            status, data = await self._read_response(reader)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            raise TransportError(
                f"connection to {self.host}:{self.port} dropped mid-request: "
                f"{exc}"
            ) from exc
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if status != 200:
            error = data.get("error")
            if not isinstance(error, dict):
                raise TransportError(
                    f"server answered {status} without an error payload"
                )
            cls = _WIRE_ERRORS.get(error.get("type"), ServiceError)
            raise cls(error.get("message", f"server answered {status}"))
        return data

    async def _read_response(self, reader) -> Tuple[int, dict]:
        line = await _read_line(reader)
        if not line:
            raise TransportError("empty response from server")
        parts = line.decode("latin-1").strip().split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise TransportError(f"malformed status line {line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise TransportError(f"malformed status code {parts[1]!r}") from None
        headers, body = await _read_headers_and_body(reader)
        raw = headers.get(_SCHEMA_HEADER.lower())
        if raw is not None and raw != str(WIRE_SCHEMA_VERSION):
            raise TransportError(
                f"unsupported wire schema version {raw!r} in response; this "
                f"client speaks version {WIRE_SCHEMA_VERSION}"
            )
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError(f"response body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise TransportError("response body must be a JSON object")
        _check_wire_version(data)
        return status, data
