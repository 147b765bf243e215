"""Asyncio plan server: serving discipline + incremental builds.

pytest-asyncio is not available in this environment, so every test
drives its own event loop with ``asyncio.run`` from a synchronous
test function.
"""

import asyncio
import os
import subprocess
import sys

import pytest

import repro
from repro.config import SimConfig
from repro.core.plan import BRPREFETCH_BYTES, OP_PREFETCH, InjectionOp
from repro.core.twig import build_plan
from repro.errors import (
    DeadlineExceeded,
    PlanError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    TransientBuildError,
)
from repro.service.bench import collect_sample_stream
from repro.service.build import diff_plans, plans_equivalent
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
        debounce_s=0.01,
    )
    defaults.update(overrides)
    return PlanService(
        workload_for=lambda app: tiny_workload,
        config=ServiceConfig(**defaults),
        sim_config=CFG,
    )


def batches(stream, size=64):
    return [stream[i : i + size] for i in range(0, len(stream), size)]


class TestServeFlow:
    def test_ingest_then_get_plan_matches_offline(
        self, tiny_workload, stream_artifacts
    ):
        profile, stream = stream_artifacts

        async def scenario():
            async with make_service(tiny_workload) as service:
                for seq, chunk in enumerate(batches(stream)):
                    ack = await service.ingest(APP, profile.input_label, chunk, seq=seq)
                    assert ack.received == len(chunk)
                    assert ack.admitted == len(chunk)
                return await service.get_plan(APP, profile.input_label)

        version = asyncio.run(scenario())
        offline = build_plan(tiny_workload, profile, CFG)
        assert plans_equivalent(version.plan, offline)
        assert version.checked
        assert version.samples == len(stream)

    def test_plan_for_unknown_shard_fails(self, tiny_workload):
        async def scenario():
            async with make_service(tiny_workload) as service:
                with pytest.raises(ServiceError, match="no samples"):
                    await service.get_plan(APP, "nope")

        asyncio.run(scenario())

    def test_request_before_start_fails(self, tiny_workload):
        service = make_service(tiny_workload)

        async def scenario():
            with pytest.raises(ServiceError, match="not started"):
                await service.stats()

        asyncio.run(scenario())

    def test_request_while_draining_is_refused(self, tiny_workload):
        async def scenario():
            service = make_service(tiny_workload)
            await service.start()
            service._closed = True  # what stop() sets before draining
            with pytest.raises(ServiceClosed):
                await service.stats()
            service._closed = False
            await service.stop()

        asyncio.run(scenario())


class TestOverload:
    def test_queue_full_sheds(self, tiny_workload):
        async def scenario():
            service = make_service(
                tiny_workload,
                queue_depth=2,
                workers=1,
                synthetic_delay_s=0.1,
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.stats(deadline_ms=5_000))
                for _ in range(10)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            stats = await service.stop()
            return results, stats, service.max_queue_depth

        results, stats, max_depth = asyncio.run(scenario())
        sheds = [r for r in results if isinstance(r, ServiceOverload)]
        served = [r for r in results if isinstance(r, dict)]
        assert sheds, "an over-capacity burst must shed"
        assert served, "requests that fit the queue must still be served"
        assert max_depth <= 2
        assert stats["counters"]["service.shed"] == len(sheds)

    def test_deadline_expiry(self, tiny_workload):
        async def scenario():
            service = make_service(
                tiny_workload, workers=1, synthetic_delay_s=0.2
            )
            await service.start()
            with pytest.raises(DeadlineExceeded):
                await service.stats(deadline_ms=10)
            stats = await service.stop()
            return stats

        stats = asyncio.run(scenario())
        assert stats["counters"]["service.deadline_expired"] == 1

    def test_expired_request_is_skipped_not_processed(self, tiny_workload):
        async def scenario():
            service = make_service(
                tiny_workload,
                queue_depth=8,
                workers=1,
                synthetic_delay_s=0.15,
            )
            await service.start()
            slow = asyncio.ensure_future(service.stats(deadline_ms=5_000))
            await asyncio.sleep(0)  # let it enter the queue
            doomed = asyncio.ensure_future(service.stats(deadline_ms=10))
            results = await asyncio.gather(slow, doomed, return_exceptions=True)
            stats = await service.stop()
            return results, stats

        (slow_res, doomed_res), stats = asyncio.run(scenario())
        assert isinstance(slow_res, dict)
        assert isinstance(doomed_res, DeadlineExceeded)
        assert stats["counters"]["service.expired_in_queue"] == 1


class TestDrain:
    def test_stop_publishes_dirty_shards(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts

        async def scenario():
            # Huge debounce: no background build can run before stop().
            service = make_service(tiny_workload, debounce_s=60.0)
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            stats = await service.stop()
            return service, stats

        service, stats = asyncio.run(scenario())
        assert stats["counters"]["service.drain_builds"] == 1
        assert stats["queue_depth"] == 0
        assert stats["closed"] is True
        shard = stats["shards"][f"{APP}/{profile.input_label}"]
        assert shard["dirty"] is False
        assert shard["plan_version"] == 1
        offline = build_plan(tiny_workload, profile, CFG)
        version = service.builder.latest((APP, profile.input_label))
        assert plans_equivalent(version.plan, offline)

    def test_stop_waits_for_inflight_build(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts

        async def scenario():
            # Eager background builds: stop() races an in-flight one.
            service = make_service(tiny_workload, debounce_s=0.0)
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            stats = await service.stop()
            return stats

        stats = asyncio.run(scenario())
        shard = stats["shards"][f"{APP}/{profile.input_label}"]
        assert shard["dirty"] is False
        assert shard["plan_version"] >= 1
        assert stats["counters"]["service.builds"] == shard["plan_version"]


class TestPublishGate:
    def test_corrupted_plan_is_rejected(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts

        def corrupt(plan):
            entry = next(
                op.entries[0] for ops in plan.ops_by_block.values() for op in ops
            )
            bad = InjectionOp(
                kind=OP_PREFETCH,
                block=tiny_workload.n_blocks + 7,  # out of range: P105
                entries=(entry,),
                bytes_cost=BRPREFETCH_BYTES,
            )
            plan.ops_by_block.setdefault(bad.block, []).append(bad)

        async def scenario():
            service = make_service(tiny_workload, debounce_s=60.0)
            service.builder.post_build_hook = corrupt
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            with pytest.raises(PlanError, match="publish gate"):
                await service.get_plan(APP, profile.input_label)
            # The rejected candidate must not have been published.
            assert service.builder.latest((APP, profile.input_label)) is None
            service.builder.post_build_hook = None
            version = await service.get_plan(APP, profile.input_label)
            stats = await service.stop()
            return version, stats

        version, stats = asyncio.run(scenario())
        assert version.version == 1
        shard = stats["shards"][f"{APP}/{profile.input_label}"]
        assert shard["last_build_error"] is None

    def test_gate_can_be_disabled(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts

        async def scenario():
            service = PlanService(
                workload_for=lambda app: tiny_workload,
                config=ServiceConfig(debounce_s=60.0),
                sim_config=CFG,
                check_plans=False,
            )
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            version = await service.get_plan(APP, profile.input_label)
            await service.stop()
            return version

        assert asyncio.run(scenario()).checked is False


class TestRetries:
    def test_transient_failures_are_retried(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts
        failures = {"left": 2}

        def flaky(plan):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise TransientBuildError("simulated flake")

        async def scenario():
            service = make_service(
                tiny_workload,
                debounce_s=60.0,
                build_retries=2,
                backoff_base_s=0.001,
            )
            service.builder.post_build_hook = flaky
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            version = await service.get_plan(APP, profile.input_label)
            stats = await service.stop()
            return version, stats

        version, stats = asyncio.run(scenario())
        assert version.version == 1
        assert stats["counters"]["service.build_retries"] == 2

    def test_retry_budget_exhausts(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts

        def always_flaky(plan):
            raise TransientBuildError("permanent flake")

        async def scenario():
            service = make_service(
                tiny_workload,
                debounce_s=60.0,
                build_retries=1,
                backoff_base_s=0.001,
            )
            service.builder.post_build_hook = always_flaky
            await service.start()
            await service.ingest(APP, profile.input_label, stream)
            with pytest.raises(TransientBuildError):
                await service.get_plan(APP, profile.input_label)
            service.builder.post_build_hook = None
            await service.stop()

        asyncio.run(scenario())


class TestVersioning:
    def test_versions_and_diffs_accumulate(self, tiny_workload, stream_artifacts):
        profile, stream = stream_artifacts
        half = len(stream) // 2
        assert half > 0

        async def scenario():
            service = make_service(tiny_workload, debounce_s=60.0)
            await service.start()
            await service.ingest(APP, profile.input_label, stream[:half])
            v1 = await service.get_plan(APP, profile.input_label)
            await service.ingest(APP, profile.input_label, stream[half:], seq=1)
            v2 = await service.get_plan(APP, profile.input_label)
            # A clean shard serves the cached version, no rebuild.
            v2_again = await service.get_plan(APP, profile.input_label)
            await service.stop()
            return v1, v2, v2_again

        v1, v2, v2_again = asyncio.run(scenario())
        assert (v1.version, v2.version) == (1, 2)
        assert v2_again is v2
        assert v2.generation > v1.generation
        # v1's diff is against the empty plan: everything is an add.
        assert not v1.diff.dropped and not v1.diff.retargeted
        assert v1.diff.added
        assert v2.diff.churn == len(diff_plans(v1.plan, v2.plan).added) + len(
            diff_plans(v1.plan, v2.plan).dropped
        ) + len(diff_plans(v1.plan, v2.plan).retargeted)
        offline = build_plan(tiny_workload, profile, CFG)
        assert plans_equivalent(v2.plan, offline)


def test_plan_server_imports_no_bench_fleet_or_ring():
    # The package inits import nothing, so a process that only serves
    # plans never pays for service.bench, the fleet or the ring.
    probe = (
        "import sys\n"
        "import repro.bench.suite.server, repro.service.server, "
        "repro.service.http\n"
        "unwanted = ('repro.service.bench', 'repro.service.fleet', "
        "'repro.service.ring')\n"
        "print(sorted(m for m in unwanted if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
