"""Timing shim: exact install/remove, span nesting, self-time math."""

from __future__ import annotations

import asyncio
import os
import sys
import types

import pytest

from repro.bench.suite.layers import (
    CLI_PATCHES,
    CLIENT_PATCHES,
    SERVER_PATCHES,
    covered_time,
    layer_metrics,
)
from repro.bench.suite.spans import Patch, Shim, _resolve, read_spans, self_times

PROBE = "bench_shim_probe"


@pytest.fixture
def probe():
    """A throwaway module with sync, async and method entry points."""
    mod = types.ModuleType(PROBE)

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    async def leaf():
        await asyncio.sleep(0)
        return 1

    async def fan_out():
        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(mod.leaf()) for _ in range(3)]
        threaded = await loop.run_in_executor(None, mod.inner, 1)
        return sum([await t for t in tasks]) + threaded

    class Box:
        def get(self):
            return 7

    mod.inner, mod.outer, mod.leaf, mod.fan_out, mod.Box = inner, outer, leaf, fan_out, Box
    sys.modules[PROBE] = mod
    yield mod
    del sys.modules[PROBE]


def _probe_patches():
    return [
        Patch(f"{PROBE}:inner", "probe.inner", after=lambda r: {"result": r}),
        Patch(f"{PROBE}:outer", "probe.outer", before=lambda x: {"arg": x}),
        Patch(f"{PROBE}:leaf", "probe.leaf"),
        Patch(f"{PROBE}:fan_out", "probe.fan_out"),
        Patch(f"{PROBE}:Box.get", "probe.get"),
    ]


@pytest.mark.parametrize(
    "patches", [CLI_PATCHES, SERVER_PATCHES, CLIENT_PATCHES], ids=["cli", "server", "client"]
)
def test_install_remove_restores_originals_exactly(patches, tmp_path):
    import asyncio.base_events as base_events

    targets = [_resolve(p.target) for p in patches]
    before = [vars(owner)[attr] for owner, attr in targets]
    executor = vars(base_events.BaseEventLoop)["run_in_executor"]
    shim = Shim(patches, str(tmp_path)).install()
    try:
        for (owner, attr), original in zip(targets, before):
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        shim.remove()
    for (owner, attr), original in zip(targets, before):
        assert vars(owner)[attr] is original
    assert vars(base_events.BaseEventLoop)["run_in_executor"] is executor


def test_inherited_attribute_is_deleted_not_left_behind(probe, tmp_path):
    class Sub(probe.Box):
        pass

    probe.Sub = Sub
    with Shim([Patch(f"{PROBE}:Sub.get", "probe.sub_get")], str(tmp_path)):
        assert "get" in vars(Sub)
        assert Sub().get() == 7
    assert "get" not in vars(Sub)


def test_spans_nest_through_calls_methods_tasks_and_threads(probe, tmp_path):
    with Shim(_probe_patches(), str(tmp_path)):
        assert probe.outer(1) == 4
        assert probe.Box().get() == 7
        assert asyncio.run(probe.fan_out()) == 5
    spans = {s["name"]: s for s in read_spans(str(tmp_path))}
    by_id = {s["id"]: s for s in read_spans(str(tmp_path))}
    assert spans["probe.outer"]["arg"] == 1
    assert spans["probe.get"]["parent"] is None
    leaves = [s for s in by_id.values() if s["name"] == "probe.leaf"]
    assert len(leaves) == 3
    fan = spans["probe.fan_out"]
    assert all(s["parent"] == fan["id"] for s in leaves)
    inners = [s for s in by_id.values() if s["name"] == "probe.inner"]
    parents = sorted(by_id[s["parent"]]["name"] for s in inners)
    # One call from outer(), one from the executor thread under fan_out().
    assert parents == ["probe.fan_out", "probe.outer"]
    assert all(s["result"] == 2 for s in inners)


def test_forked_child_keeps_its_spans_as_roots(probe, tmp_path):
    def fork_and_call():
        pid = os.fork()
        if pid == 0:
            probe.inner(1)
            os._exit(0)
        os.waitpid(pid, 0)
        return pid

    probe.fork = fork_and_call
    patches = _probe_patches() + [Patch(f"{PROBE}:fork", "probe.fork")]
    with Shim(patches, str(tmp_path)):
        child = probe.fork()
    spans = read_spans(str(tmp_path))
    [in_child] = [s for s in spans if s["pid"] == child]
    assert in_child["name"] == "probe.inner"
    assert in_child["parent"] is None
    [fork] = [s for s in spans if s["name"] == "probe.fork"]
    assert fork["pid"] == os.getpid()


def test_failed_call_still_records_its_span(probe, tmp_path):
    def boom():
        raise KeyError("x")

    probe.boom = boom
    with Shim([Patch(f"{PROBE}:boom", "probe.boom")], str(tmp_path)):
        with pytest.raises(KeyError):
            probe.boom()
    [span] = read_spans(str(tmp_path))
    assert span["error"] == "KeyError"


def _span(sid, pid, start, end, parent=None, name="x", **fields):
    return dict(id=sid, pid=pid, start=start, end=end, parent=parent, name=name, **fields)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("1:1", 1, 0.0, 10.0),
        # Two concurrent children (asyncio tasks) overlap on [2, 4).
        _span("1:2", 1, 1.0, 4.0, parent="1:1"),
        _span("1:3", 1, 2.0, 5.0, parent="1:1"),
        # A grandchild only reduces its own parent.
        _span("1:4", 1, 2.5, 3.0, parent="1:3"),
        # A thread child that outlives its parent counts only inside it.
        _span("1:5", 1, 9.0, 12.0, parent="1:1"),
        # Another process: its own root, no link to pid 1.
        _span("2:1", 2, 0.0, 6.0),
        _span("2:2", 2, 1.0, 2.0, parent="2:1"),
    ]
    selfs = self_times(spans)
    assert selfs["1:1"] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 9.0))
    assert selfs["1:2"] == pytest.approx(3.0)
    assert selfs["1:3"] == pytest.approx(3.0 - 0.5)
    assert selfs["1:5"] == pytest.approx(3.0)
    assert selfs["2:1"] == pytest.approx(5.0)
    # Per process, self times tile the covered time exactly once.
    assert covered_time(spans, 2) == pytest.approx(6.0)


def test_layer_metrics_from_a_synthetic_trace():
    spans = [
        _span("1:1", 1, 0.0, 1.0, name="experiments.fanout", jobs=2),
        _span("2:1", 2, 0.0, 0.8, name="experiments.worker"),
        _span("2:2", 2, 0.1, 0.5, parent="2:1", name="workloads.build", app="a"),
        _span("3:1", 3, 0.0, 0.6, name="experiments.worker"),
        _span("3:2", 3, 0.0, 0.4, parent="3:1", name="workloads.build", app="a"),
        _span("3:3", 3, 0.4, 0.6, parent="3:1", name="uarch.run", units=4000, serial=0),
    ]
    m = layer_metrics(spans)
    assert m["workloads.builds"] == 2
    assert m["workloads.build_useful_frac"] == pytest.approx(0.5)
    assert m["workloads.build_s"] == pytest.approx(0.8)
    assert m["experiments.pool_busy_frac"] == pytest.approx(1.4 / 2.0)
    assert m["uarch.kunits_per_s"] == pytest.approx(4000 / 0.2 / 1e3)
    assert m["uarch.serial_runs"] == 0
