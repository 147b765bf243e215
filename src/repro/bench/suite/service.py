"""Plan-service workloads: ``service_ingest`` and ``service_fetch``.

Both drive the bench-owned server (:mod:`repro.bench.suite.server`)
over HTTP from two lanes, one per shard, each with at most one request
in flight, and time every paced request from the moment it was due, so
a stall in the server shows up in the requests queued behind it.

A *session* starts a server on an empty state directory and warms it
up, streams every lane's samples in and fetches the fresh plans (the
fetch workload then runs its rate ladder), then repeatedly kills the
server with SIGKILL, restarts it on the same state directory and
fetches the plans again.  Every served plan must equal ``build_plan``
on the same samples offline, and the recovered plans must be the ones
served before the kill, version for version.
"""

from __future__ import annotations

import asyncio
import gc
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...core.plan import PrefetchPlan
from ...errors import ReproError
from ...service.build import PlanVersion, plan_sites
from ...service.http import PlanClient
from ...service.server import default_workload_resolver
from ..clock import now
from . import procs
from .inputs import Lane, arrival_offsets, service_inputs
from .layers import CLIENT_PATCHES, layer_metrics
from .metrics import (
    END_TO_END,
    PER_LAYER,
    SETUP_STARTS,
    Tally,
    median,
    ordered,
    percentile,
    tail,
)
from .spans import Shim, read_spans

HOST = "127.0.0.1"
# Long enough that overload shows as latency, not as failed requests.
DEADLINE_MS = 30_000
# A fetch ladder step meets the service level when its p90 does.
CAPACITY_P90_S = 0.250
Key = Tuple[str, str]


@dataclass
class Session:
    # Measured requests, done - due; and every paced request's sent - due.
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    fresh_s: float = 0.0
    recover_s: List[float] = field(default_factory=list)
    capacity_rps: float = 0.0
    layers: Optional[Dict[str, float]] = None


class _Service:
    def __init__(self, workload: str, seed: int, preset: str, ws: procs.Workspace):
        resolve = default_workload_resolver()
        self.workload = workload
        self.seed = seed
        self.inputs = service_inputs(workload, seed, preset, resolve)
        offline = self.inputs.offline_plans(resolve)
        self.expected = {
            key: (plan_sites(plan), plan.table) for key, plan in offline.items()
        }
        self.ws = ws
        self.env = procs.child_env(ws.path)
        self.errlog = os.path.join(ws.path, "stderr.log")
        self.tally = Tally()
        self.servers: List[procs.Server] = []
        # Per session: plan versions fetched, and a checked copy of each.
        self.fetched: Set[Tuple[Key, int]] = set()
        self.verified: Dict[Tuple[Key, int], PrefetchPlan] = {}

    # ------------------------------------------------------------------
    def server(self, state: str, spans: Optional[str]) -> procs.Server:
        server = procs.Server(state, self.env, self.errlog, spans)
        self.servers.append(server)
        return server

    def close(self) -> float:
        """Kill anything still running; returns the peak RSS seen (MB)."""
        for server in self.servers:
            server.kill()
        return max((s.maxrss_mb for s in self.servers), default=0.0)

    def setup(self) -> List[float]:
        """Start the server to readiness on an empty state directory."""
        walls = []
        for _ in range(SETUP_STARTS):
            server = self.server(self.ws.fresh("state"), None)
            walls.append(server.start())
            server.stop()
        return walls

    def plan_ok(self, version: Optional[PlanVersion], lane: Lane,
                want: Optional[PlanVersion] = None) -> bool:
        if version is None:
            return False
        vkey = (lane.key, version.version)
        self.fetched.add(vkey)
        ok = version.key == lane.key and version.samples == len(lane.samples)
        if want is not None:
            ok = ok and (version.version, version.generation) == (
                want.version, want.generation
            )
        # The check runs on the load generator's event loop between
        # requests, so a copy of a version already checked against the
        # offline plan is compared to that copy (about 1 ms for a 250 KB
        # plan, where rebuilding the site table takes 5-20 ms).
        checked = self.verified.get(vkey)
        if checked is not None:
            return ok and version.plan == checked
        sites, table = self.expected[lane.key]
        ok = ok and plan_sites(version.plan) == sites and version.plan.table == table
        if ok:
            self.verified[vkey] = version.plan
        return ok

    async def fetch(self, client: PlanClient, lane: Lane) -> Optional[PlanVersion]:
        try:
            return await client.get_plan(
                lane.app, lane.label, deadline_ms=DEADLINE_MS
            )
        except ReproError:
            return None

    # ------------------------------------------------------------------
    async def warm_up(self, client: PlanClient) -> None:
        """Build each app's workload in a fresh server before timing.

        A long-running service builds them once, on first use; one small
        batch and plan per app on a separate shard pays that here.
        """
        sizing = self.inputs.sizing
        for lane in self.inputs.lanes:
            label = f"{lane.label}/warm-up"
            try:
                await client.ingest(lane.app, label, lane.samples[: sizing.batch_size],
                                    deadline_ms=DEADLINE_MS)
                version = await client.get_plan(lane.app, label,
                                                deadline_ms=DEADLINE_MS)
                self.fetched.add(((lane.app, label), version.version))
                ok = True
            except ReproError:
                ok = False
            self.tally.check(ok, f"warm-up of {lane.app}")

    async def ingest(self, client: PlanClient, session: Session, paced: bool
                     ) -> Dict[Key, PlanVersion]:
        """Stream every lane, then fetch each shard's fresh plan."""
        sizing = self.inputs.sizing
        lanes = self.inputs.lanes
        rate = sizing.ingest_rate if paced else 0.0
        t0 = now() + 0.01
        schedules = [
            arrival_offsets(self.workload, self.seed, 0, i, len(lanes),
                            sizing.batches_per_lane, rate)
            for i in range(len(lanes))
        ]

        async def stream(i: int, lane: Lane):
            for k, batch in enumerate(lane.batches(sizing.batch_size)):
                due = t0 + schedules[i][k]
                await _sleep_until(due)
                sent = now()
                try:
                    ack = await client.ingest(
                        lane.app, lane.label, batch, seq=k,
                        deadline_ms=DEADLINE_MS,
                    )
                    ok = ack.received == ack.admitted == len(batch)
                except ReproError:
                    ok = False
                self.tally.check(ok, f"ingest {lane.key} batch {k}")
                if paced:
                    session.latencies.append(now() - due)
                    session.lags.append(sent - due)
            version = await self.fetch(client, lane)
            self.tally.check(self.plan_ok(version, lane),
                             f"fresh plan for {lane.key} differs from offline")
            return now(), version

        if paced:
            results = await asyncio.gather(
                *(stream(i, lane) for i, lane in enumerate(lanes))
            )
        else:
            # A burst primes one shard after the other, faster than the
            # rebuild debounce, so each shard's plan is built once.
            results = [await stream(i, lane) for i, lane in enumerate(lanes)]
        first_due = t0 + min(s[0] for s in schedules)
        session.fresh_s = max(served for served, _ in results) - first_due
        return {lane.key: version for lane, (_, version) in zip(lanes, results)}

    async def recover(self, server: procs.Server, before: Dict[Key, PlanVersion],
                      session: Session) -> None:
        """SIGKILL, restart on the same state, fetch identical plans."""
        lanes = self.inputs.lanes
        for _ in range(self.inputs.sizing.restarts):
            killed = now()
            server.kill()
            server = self.server(server.state_dir, server.spans_dir)
            server.start()
            client = PlanClient(HOST, server.port)
            after = await asyncio.gather(*(self.fetch(client, lane) for lane in lanes))
            session.recover_s.append(now() - killed)
            for lane, version in zip(lanes, after):
                self.tally.check(
                    self.plan_ok(version, lane, want=before[lane.key]),
                    f"recovered plan for {lane.key} differs from the one before the kill",
                )
        server.kill()

    async def ladder(self, client: PlanClient, before: Dict[Key, PlanVersion],
                     session: Session, seconds: float) -> None:
        """Open-loop clean-plan fetches at each ladder rate in turn.

        The base rate gets half of *seconds*, the other steps share the
        rest.  A lane stops sending when its step's time is up, so an
        overloaded step shows as latency and lag, not as a longer step.
        """
        rates = self.inputs.sizing.fetch_ladder
        lanes = self.inputs.lanes
        for step, rps in enumerate(rates):
            step_s = seconds / 2 if step == 0 else seconds / 2 / (len(rates) - 1)
            lane_rate = rps / len(lanes)
            count = max(1, round(step_s * lane_rate))
            t0 = now() + 0.01
            end = t0 + step_s
            latencies: List[float] = []

            async def lane_fetches(i: int, lane: Lane):
                offsets = arrival_offsets(self.workload, self.seed, step, i,
                                          len(lanes), count, lane_rate)
                for offset in offsets:
                    due = t0 + offset
                    if now() > end:
                        break
                    await _sleep_until(due)
                    sent = now()
                    version = await self.fetch(client, lane)
                    latencies.append(now() - due)
                    session.lags.append(sent - due)
                    if step == 0:
                        session.latencies.append(latencies[-1])
                    self.tally.check(
                        self.plan_ok(version, lane, want=before[lane.key]),
                        f"fetched plan for {lane.key} differs from the primed one",
                    )

            await asyncio.gather(*(lane_fetches(i, l) for i, l in enumerate(lanes)))
            if percentile(latencies, 90) <= CAPACITY_P90_S:
                session.capacity_rps = rps

    # ------------------------------------------------------------------
    def session(self, seconds: float, traced: bool) -> Session:
        """One server lifetime: load, then crash and recover."""
        session = Session()
        state = self.ws.fresh("state")
        spans = self.ws.fresh("spans") if traced else None
        server = self.server(state, spans)
        server.start()
        client = PlanClient(HOST, server.port)
        shim = Shim(CLIENT_PATCHES, spans).install() if traced else None
        self.fetched = set()
        self.verified = {}
        try:
            asyncio.run(self.warm_up(client))
            if self.inputs.sizing.fetch_ladder:
                before = asyncio.run(self.ingest(client, session, paced=False))
                asyncio.run(self.ladder(client, before, session, seconds))
            else:
                before = asyncio.run(self.ingest(client, session, paced=True))
            journal_bytes = os.path.getsize(os.path.join(state, "wal.jsonl"))
            asyncio.run(self.recover(server, before, session))
        finally:
            if shim is not None:
                shim.remove()
        if traced:
            m = layer_metrics(read_spans(spans))
            m["journal.bytes"] = float(journal_bytes)
            m["client.lag_p90_ms"] = 1e3 * percentile(session.lags, 90)
            m["client.capacity_rps"] = session.capacity_rps
            if m["build.versions"]:
                m["build.useful_frac"] = len(self.fetched) / m["build.versions"]
            session.layers = m
        return session


async def _sleep_until(due: float) -> None:
    delay = due - now()
    if delay > 0:
        await asyncio.sleep(delay)


def run_service(workload: str, seed: int, seconds: int, trace: bool,
                preset: str) -> Tuple[Dict[str, float], Tally]:
    """Run sessions for *seconds*; returns (metrics, tally)."""
    ws = procs.Workspace(workload)
    svc = None
    try:
        svc = _Service(workload, seed, preset, ws)
        # The load generator's inputs and the modules it imported live
        # for the whole run; moving them out of the collector's reach
        # keeps its full collections (100 ms and more) out of the
        # latency of the requests it is timing.
        gc.collect()
        gc.freeze()
        return _run(svc, seconds, trace)
    finally:
        gc.unfreeze()
        if svc is not None:
            svc.close()
        ws.close()


def _run(svc: _Service, seconds: int, trace: bool):
    setups = svc.setup()
    ladder = bool(svc.inputs.sizing.fetch_ladder)
    # A fetch session's ladder fills the run; an ingest session has a
    # fixed length, so sessions repeat until the time is up.
    sessions: List[Session] = []
    start = now()
    while not sessions or not ladder and now() - start < seconds:
        sessions.append(svc.session(seconds, traced=False))
    # The traced session repeats the load of an untraced one.
    traced = svc.session(seconds, traced=True) if trace else None
    rss = svc.close()
    latencies = [x for s in sessions for x in s.latencies]

    if traced is not None:
        out = dict(traced.layers)
        # Per untraced session, so the percentile (fixed by a session's
        # request count) does not change with how many sessions fit.
        out["client.tail_ms"] = 1e3 * median([tail(s.latencies) for s in sessions])
        out["bench.trace_overhead_frac"] = (
            median(traced.latencies) / median(latencies) - 1.0
        )
        return ordered(out, PER_LAYER), svc.tally
    metrics = {
        "setup_s": median(setups),
        "latency_ms": 1e3 * median(latencies),
        "fresh_s": median([s.fresh_s for s in sessions]),
        "recover_s": median([r for s in sessions for r in s.recover_s]),
        "peak_rss_mb": rss,
    }
    return ordered(metrics, END_TO_END), svc.tally
