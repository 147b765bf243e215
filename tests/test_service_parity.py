"""Online == offline plan parity across the full app catalog.

The acceptance property of the plan service: with lossless ingest
defaults (hot_threshold=1, reservoir at least the stream size), the
plan served after streaming an app's miss samples is site-for-site
identical to the offline ``collect_profile`` → ``build_plan`` result —
the online path adds transport, not analysis.
"""

from dataclasses import replace

from repro.service.bench import LOSSLESS, Scenario, run_service
from repro.workloads.apps import app_names


def test_fleet_parity_all_apps():
    report = run_service(
        Scenario(apps=app_names(), trace_instructions=12_000, batch_size=64),
        replace(
            LOSSLESS,
            workers=2,
            # Coalesce background rebuilds: one verified build per shard
            # (the get_plan read-your-writes build) keeps the test fast.
            debounce_s=30.0,
        ),
    )
    assert sorted(report.apps) == sorted(app_names())
    for app, result in sorted(report.apps.items()):
        assert result.stream_samples > 0, f"{app}: no miss samples streamed"
        assert result.parity is True, (
            f"{app}: served plan diverged from the offline pipeline"
        )
        assert result.served_version >= 1
    assert report.parity_ok is True
    assert report.drained_clean
    assert report.sheds == 0
    assert report.deadline_expired == 0


def test_fleet_parity_survives_batch_size_choice():
    """Batching is transport framing; it must not affect the plan."""
    base = dict(apps=("wordpress",), trace_instructions=12_000)
    config = replace(LOSSLESS, workers=1, debounce_s=30.0)
    small = run_service(Scenario(batch_size=7, **base), config)
    large = run_service(Scenario(batch_size=512, **base), config)
    assert small.apps["wordpress"].parity is True
    assert large.apps["wordpress"].parity is True
