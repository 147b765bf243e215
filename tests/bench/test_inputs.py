"""Seeded inputs: the same seed gives the same inputs and schedules."""

from __future__ import annotations

import pytest

from repro.bench.suite.inputs import (
    REGEN_WORKLOADS,
    arrival_offsets,
    regen_inputs,
    service_inputs,
    service_sizing,
)


@pytest.mark.parametrize("workload", REGEN_WORKLOADS)
def test_regen_inputs_are_a_function_of_the_seed(workload):
    canonical = regen_inputs(workload, 0)
    assert regen_inputs(workload, 0) == canonical
    lengths = {regen_inputs(workload, seed).instructions for seed in range(1, 11)}
    assert len(lengths) > 1
    for seed in range(1, 11):
        inputs = regen_inputs(workload, seed)
        assert inputs == regen_inputs(workload, seed)
        assert inputs.apps == canonical.apps
        assert abs(inputs.instructions - canonical.instructions) <= 0.02 * canonical.instructions


def test_service_streams_are_a_function_of_the_seed():
    sizing = service_sizing("service_ingest", "smoke")
    labels = set()
    for seed in range(4):
        a = service_inputs("service_ingest", seed, "smoke")
        assert a == service_inputs("service_ingest", seed, "smoke")
        assert [lane.app for lane in a.lanes] == list(sizing.apps)
        for lane in a.lanes:
            assert len(lane.samples) == sizing.batches_per_lane * sizing.batch_size
            assert [len(b) for b in lane.batches(sizing.batch_size)] == (
                [sizing.batch_size] * sizing.batches_per_lane
            )
        labels.add(tuple(lane.label for lane in a.lanes))
    # The seed picks each lane's input.
    assert len(labels) > 1


def test_arrival_schedules_repeat_per_seed_and_interleave_lanes():
    def lane(seed, i):
        return arrival_offsets("service_ingest", seed, 0, i, 2, 40, 5.0)

    for seed in range(5):
        first, second = lane(seed, 0), lane(seed, 1)
        assert first == lane(seed, 0)
        assert all(b > a for a, b in zip(first, first[1:]))
        assert first[0] >= 0.0
        # Mean rate stays the nominal one, and the lanes alternate.
        assert first[-1] - first[0] == pytest.approx(39 / 5.0, abs=0.05)
        merged = sorted([(t, 0) for t in first] + [(t, 1) for t in second])
        assert [i for _, i in merged] == [0, 1] * 40
    assert lane(0, 0) != lane(1, 0)
    assert arrival_offsets("service_ingest", 0, 0, 0, 2, 3, 0.0) == [0.0, 0.0, 0.0]
