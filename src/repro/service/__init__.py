"""repro.service — continuous-profiling plan server.

The online half of the Twig pipeline: streaming LBR miss-sample
ingestion (:mod:`.ingest` over :mod:`.sketch` + :mod:`.reservoir`),
incremental verified plan builds (:mod:`.build`), and the asyncio
serving layer with bounded queues, deadlines, shedding, and graceful
drain (:mod:`.server`).

The scale-out layer (DESIGN.md §13) shards the service across worker
*processes*: a seeded consistent-hash ring (:mod:`.ring`) places each
``(app, input)`` shard, a per-shard ingest journal (:mod:`.journal`)
makes acceptance durable, and the :class:`~repro.service.fleet.FleetRouter`
(:mod:`.fleet`) routes, heals crashes by replay, rebalances under
skew, and autoscales the pool from live telemetry.

The durability layer (DESIGN.md §14) makes restarts survivable:
periodic schema-versioned state snapshots (:mod:`.persist`) layered
over the journal-as-WAL give ``PlanService.restore()`` a bounded
replay, and the stdlib HTTP transport (:mod:`.http`) exposes
ingest/serve/drain/health over a version-negotiated wire format.

:mod:`.bench` holds the drivers behind ``python -m repro.service
{run,fleet,drift}`` (:mod:`.__main__`): they replay profiled sample
streams against the in-process service or the fleet and check
online==offline plan parity.  This package imports none of its
modules, so a process that needs only the server loads only the
server.
"""
