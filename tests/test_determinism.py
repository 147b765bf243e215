"""Bit-identical repeatability of the simulator.

The on-disk cache key assumes that (settings, app, system, config)
fully determine a simulation's output.  These tests pin that guarantee:
two independent runners — and serial vs. parallel execution — must
produce identical metrics, counter for counter.
"""

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.profiling.serialize import result_to_dict

APPS = ("wordpress", "drupal", "mediawiki")
SYSTEMS = ("baseline", "twig")
SETTINGS = RunnerSettings(trace_instructions=30_000, apps=APPS, sample_rate=1)


def _all_results(runner):
    return {
        (app, system): result_to_dict(runner.run(app, system))
        for app in APPS
        for system in SYSTEMS
    }


class TestDeterminism:
    def test_independent_runners_identical(self):
        first = _all_results(ExperimentRunner(SETTINGS))
        second = _all_results(ExperimentRunner(SETTINGS))
        assert first == second

    def test_rerun_within_one_runner_identical(self):
        # One app suffices here: unlike the independent-runner test this
        # exercises re-simulation over the *same* workload/trace objects.
        settings = RunnerSettings(
            trace_instructions=30_000, apps=("wordpress",), sample_rate=1
        )
        runner = ExperimentRunner(settings)
        first = {s: result_to_dict(runner.run("wordpress", s)) for s in SYSTEMS}
        # Drop the memo so the second pass really re-simulates.
        runner._results.clear()
        runner._profiles.clear()
        runner._plans.clear()
        second = {s: result_to_dict(runner.run("wordpress", s)) for s in SYSTEMS}
        assert first == second

    def test_sanitized_runs_match_plain_goldens(self):
        # The sanitizers (repro.validate) only *observe*: a sanitize=True
        # run must reproduce the plain golden counter for counter, while
        # also passing every invariant check along the way.
        settings = RunnerSettings(
            trace_instructions=30_000, apps=("wordpress",), sample_rate=1
        )
        plain = ExperimentRunner(settings)
        sanitized = ExperimentRunner(settings)
        cfg = SimConfig(sanitize=True)
        for system in SYSTEMS:
            golden = result_to_dict(plain.run("wordpress", system))
            checked = result_to_dict(
                sanitized.run("wordpress", system, config=cfg)
            )
            assert checked == golden

    def test_telemetry_runs_match_plain_goldens(self, tmp_path):
        # Telemetry only *observes* (spans, counters, JSONL events): a
        # telemetry-on run must reproduce the plain golden counter for
        # counter — the zero-overhead contract of DESIGN.md §9.
        from repro.telemetry import read_events

        settings = RunnerSettings(
            trace_instructions=30_000, apps=("wordpress",), sample_rate=1
        )
        plain = ExperimentRunner(settings)
        instrumented = ExperimentRunner(
            replace(settings, telemetry_path=str(tmp_path / "tel.jsonl"))
        )
        sink = instrumented.telemetry
        for system in SYSTEMS:
            golden = result_to_dict(plain.run("wordpress", system))
            observed = result_to_dict(instrumented.run("wordpress", system))
            assert observed == golden
        sink.close()
        # The instrumented runner really was instrumented.
        assert any(e["event"] == "span" for e in read_events(sink.path))

    @pytest.mark.slow
    def test_serial_vs_parallel_identical(self):
        serial = ExperimentRunner(SETTINGS)
        expected = _all_results(serial)

        parallel = ExperimentRunner(SETTINGS, jobs=4)
        results = parallel.warm(
            [(app, system) for app in APPS for system in SYSTEMS], jobs=4
        )
        assert len(results) == len(expected)
        assert _all_results(parallel) == expected
        # The runs actually came from the pool (or its serial fallback
        # in restricted environments) — never silently skipped.
        assert parallel.stats.parallel_runs + parallel.stats.simulations == len(
            expected
        )
