"""Shared fixtures: a tiny synthetic app that keeps tests fast."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.trace.walker import generate_trace
from repro.workloads.spec import AppSpec
from repro.workloads.cfg import (
    KIND_CODE,
    KIND_NONE,
    BlockColumns,
    Workload,
    build_workload,
)


def make_tiny_spec(name: str = "tinyapp", **overrides) -> AppSpec:
    """A small application spec (~100 functions) for unit tests."""
    params = dict(
        name=name,
        footprint_mb_target=0.1,
        btb_mpki_target=10.0,
        frontend_bound_target=0.5,
        functions=120,
        handler_fraction=0.10,
        mean_blocks_per_function=8,
        popularity_exponent=0.4,
    )
    params.update(overrides)
    return AppSpec(**params)


def workload_from_blocks(blocks, spec: AppSpec) -> Workload:
    """A Workload over hand-built ``BasicBlock``/``Branch`` objects.

    The inverse of ``Workload.binary``: each block becomes one row of
    the columns, in address order, with alternate targets turned into
    block indices.  One handler (block 0) and no function records.
    """
    blocks = sorted(blocks, key=lambda b: b.start)
    index_of = {b.start: i for i, b in enumerate(blocks)}
    rows = []
    for b in blocks:
        br = b.branch
        rows.append(
            (b.start, b.size_bytes, b.instructions)
            + (
                (-1, KIND_NONE, -1, 0.0, ())
                if br is None
                else (
                    br.pc,
                    KIND_CODE[br.kind],
                    br.target,
                    br.taken_bias,
                    tuple(index_of[t] for t in br.alt_targets),
                )
            )
        )
    return Workload(
        spec=spec,
        columns=BlockColumns(*map(list, zip(*rows))),
        functions=(),
        handler_indices=(0,),
        handler_weights=(1.0,),
        root_function=0,
        build_seed=0,
    )


@pytest.fixture(scope="session")
def tiny_spec() -> AppSpec:
    return make_tiny_spec()


@pytest.fixture(scope="session")
def tiny_workload(tiny_spec) -> Workload:
    return build_workload(tiny_spec, seed=7)


@pytest.fixture(scope="session")
def tiny_trace(tiny_workload):
    inp = tiny_workload.spec.make_input(0)
    return generate_trace(tiny_workload, inp, max_instructions=60_000)


@pytest.fixture(scope="session")
def tiny_trace_alt(tiny_workload):
    inp = tiny_workload.spec.make_input(1)
    return generate_trace(tiny_workload, inp, max_instructions=60_000)


@pytest.fixture()
def config() -> SimConfig:
    return SimConfig()
