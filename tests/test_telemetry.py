"""Telemetry subsystem: registry math, JSONL sink, report aggregation.

Pins the three contracts of ``repro.telemetry``:

* the metrics registry snapshot/diff/merge round trip used to ship
  per-worker deltas across the process pool;
* the JSONL sink's event format (whole appended lines, schema fields,
  span timing) and its zero-cost-when-off wiring in the runner;
* the report: per-phase wall time, pool-wide cache hit-rate math, and
  per-process request counts, on both synthetic and real logs.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.telemetry import (
    PHASES,
    MetricsRegistry,
    TelemetrySink,
    format_report,
    read_events,
    render_report,
    summarize,
)

SETTINGS = RunnerSettings(trace_instructions=30_000, apps=("wordpress",), sample_rate=1)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.counters["x"] == 5

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 1)
        assert reg.gauges["depth"] == 1

    def test_timer_records_total_and_count(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        total, count = reg.timers["t"]
        assert count == 2 and total >= 0.0

    def test_snapshot_is_decoupled(self):
        reg = MetricsRegistry()
        reg.inc("x")
        snap = reg.snapshot()
        reg.inc("x")
        assert snap["counters"]["x"] == 1
        # And JSON-serializable (it crosses the process boundary).
        json.dumps(snap)

    def test_diff_reports_only_the_delta(self):
        reg = MetricsRegistry()
        reg.inc("x", 3)
        reg.add_time("t", 1.0)
        before = reg.snapshot()
        reg.inc("x", 2)
        reg.inc("y")
        reg.add_time("t", 0.5)
        delta = reg.diff(before)
        assert delta["counters"] == {"x": 2, "y": 1}
        assert delta["timers"]["t"]["count"] == 1
        assert delta["timers"]["t"]["total_s"] == pytest.approx(0.5)

    def test_diff_without_baseline_is_full_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("x")
        assert reg.diff(None)["counters"] == {"x": 1}

    def test_merge_adds_counters_and_timers(self):
        a = MetricsRegistry()
        a.inc("x", 1)
        a.add_time("t", 1.0)
        b = MetricsRegistry()
        b.inc("x", 2)
        b.inc("y", 7)
        b.add_time("t", 0.25)
        b.set_gauge("g", 9)
        a.merge(b.snapshot())
        assert a.counters == {"x": 3, "y": 7}
        assert a.timers["t"] == [1.25, 2]
        assert a.gauges["g"] == 9

    def test_merge_none_is_a_noop(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.merge(None)
        assert reg.counters == {"x": 1}

    def test_pool_roundtrip(self):
        """snapshot -> work -> diff -> merge reproduces the worker's delta."""
        worker = MetricsRegistry()
        worker.inc("sim.runs", 5)  # pre-existing state from earlier requests
        before = worker.snapshot()
        worker.inc("sim.runs")
        worker.inc("cache.hits", 2)
        parent = MetricsRegistry()
        parent.merge(worker.diff(before))
        assert parent.counters == {"sim.runs": 1, "cache.hits": 2}


class TestTelemetrySink:
    def _sink(self, tmp_path):
        return TelemetrySink(str(tmp_path / "tel.jsonl"))

    def test_empty_path_rejected(self):
        with pytest.raises(ReproError):
            TelemetrySink("")

    def test_emit_writes_schema_fields(self, tmp_path):
        sink = self._sink(tmp_path)
        sink.emit("probe", answer=42)
        sink.close()
        (ev,) = read_events(sink.path)
        assert ev["event"] == "probe" and ev["answer"] == 42
        assert ev["v"] == 1 and ev["pid"] == os.getpid() and "ts" in ev

    def test_span_times_phase_and_emits_event(self, tmp_path):
        sink = self._sink(tmp_path)
        with sink.span("simulate", app="wordpress", system="twig"):
            pass
        sink.close()
        (ev,) = read_events(sink.path)
        assert ev["event"] == "span" and ev["phase"] == "simulate"
        assert ev["app"] == "wordpress" and ev["duration_s"] >= 0.0
        assert sink.registry.timers["phase.simulate"][1] == 1

    def test_record_worker_counts_and_merges(self, tmp_path):
        sink = self._sink(tmp_path)
        sink.record_worker(1234, {"counters": {"sim.runs": 3}})
        sink.record_worker(1234, None)
        assert sink.registry.counters["worker.1234.requests"] == 2
        assert sink.registry.counters["sim.runs"] == 3

    def test_emit_summary_carries_cache_stats(self, tmp_path):
        sink = self._sink(tmp_path)
        sink.registry.inc("sim.runs")
        cache = ResultCache(str(tmp_path / "cache"))
        cache.stats.hits = 3
        sink.emit_summary(cache_stats=cache.stats)
        sink.close()
        (ev,) = read_events(sink.path)
        assert ev["event"] == "summary"
        assert ev["metrics"]["counters"]["sim.runs"] == 1
        assert ev["cache"]["hits"] == 3


def _span(phase, pid=100, duration=1.0, **fields):
    ev = {"v": 1, "event": "span", "phase": phase, "duration_s": duration,
          "ts": 0.0, "pid": pid}
    ev.update(fields)
    return ev


class TestReport:
    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(ReproError):
            read_events(str(tmp_path / "absent.jsonl"))

    def test_malformed_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        path.write_text(
            json.dumps(_span("simulate")) + "\n"
            + '{"torn line\n'
            + "[1, 2, 3]\n"
        )
        events = read_events(str(path))
        assert sum(1 for e in events if e["event"] == "span") == 1
        assert {"event": "_malformed", "count": 2} in events
        report = format_report(summarize(events))
        assert "2 malformed log line(s)" in report

    def test_phase_and_group_aggregation(self):
        events = [
            _span("simulate", duration=2.0, app="wordpress", system="twig"),
            _span("simulate", duration=1.0, app="wordpress", system="twig"),
            _span("trace_gen", duration=0.5, app="wordpress"),
        ]
        s = summarize(events)
        assert s["phases"]["simulate"] == {"count": 2, "total_s": 3.0}
        assert s["by_group"]["wordpress/twig"]["simulate"] == 3.0
        assert s["by_group"]["wordpress/-"]["trace_gen"] == 0.5

    def test_cache_hit_rate_from_events(self):
        events = (
            [{"event": "cache_load", "outcome": "hit"}] * 3
            + [{"event": "cache_load", "outcome": "miss"}]
            + [{"event": "cache_load", "outcome": "corrupt"}]
            + [{"event": "cache_store"}] * 2
            + [{"event": "cache_quarantine", "deleted": False}]
            + [{"event": "cache_quarantine", "deleted": True}]
        )
        cache = summarize(events)["cache"]
        assert cache["hits"] == 3 and cache["misses"] == 2
        assert cache["hit_rate"] == pytest.approx(0.6)
        assert cache["stores"] == 2
        assert cache["quarantined"] == 1 and cache["quarantine_deleted"] == 1

    def test_summary_cache_is_only_a_fallback(self):
        # With per-op events present, the (parent-only) summary stats
        # must not override the pool-wide event counts.
        events = [
            {"event": "cache_load", "outcome": "hit"},
            {"event": "summary", "pid": 1,
             "metrics": {"counters": {}},
             "cache": {"hits": 0, "misses": 0, "stores": 0, "quarantined": 0}},
        ]
        assert summarize(events)["cache"]["hits"] == 1
        # Without events, the summary stats are used.
        only_summary = [events[1]]
        assert summarize(only_summary)["cache"]["hits"] == 0

    def test_worker_requests_sum_across_processes_not_runs(self):
        # Two summaries from the same pid (two runs appending to one
        # log): the registry is cumulative per process, so the *last*
        # one wins; distinct pids add.
        events = [
            {"event": "summary", "pid": 1,
             "metrics": {"counters": {"worker.50.requests": 2}}},
            {"event": "summary", "pid": 1,
             "metrics": {"counters": {"worker.50.requests": 5}}},
            {"event": "summary", "pid": 2,
             "metrics": {"counters": {"worker.60.requests": 1,
                                      "parallel.retries": 1}}},
        ]
        s = summarize(events)
        assert s["workers"][50]["requests"] == 5
        assert s["workers"][60]["requests"] == 1
        assert s["parallel"]["retries"] == 1

    def test_format_report_sections(self):
        events = [
            _span("simulate", duration=1.0, app="wordpress", system="baseline"),
            {"event": "cache_load", "outcome": "hit"},
        ]
        report = format_report(summarize(events))
        assert "per-phase wall time" in report
        assert "simulate" in report
        assert "hit rate 100.0%" in report
        assert "pool: 0 retried request(s), 0 serial fallback(s)" in report

    def test_per_pid_serving_pressure_rows(self):
        # Pin the worker-row schema from both sources: a fleet worker's
        # own summary (service.shed counter + service.max_queue_depth
        # gauge) and the router's outside view shipped as
        # fleet.worker.<pid>.* counters/gauges.  Every row must carry
        # the full schema even when a pid saw no queue pressure.
        events = [
            {"event": "summary", "pid": 71,
             "metrics": {"counters": {"service.shed": 4},
                         "gauges": {"service.max_queue_depth": 9}}},
            {"event": "summary", "pid": 1,
             "metrics": {"counters": {"fleet.worker.71.shed": 2,
                                      "fleet.worker.71.requests": 30,
                                      "fleet.worker.72.shed": 1,
                                      "fleet.worker.72.requests": 11},
                         "gauges": {"fleet.worker.72.max_queue_depth": 5}}},
            {"event": "summary", "pid": 2,
             "metrics": {"counters": {"worker.80.requests": 3}}},
        ]
        workers = summarize(events)["workers"]
        # Both views of pid 71 merge: sheds add, depth is a high-water.
        assert workers[71] == {
            "requests": 30, "busy_s": 0.0, "shed": 6, "max_queue_depth": 9,
        }
        assert workers[72] == {
            "requests": 11, "busy_s": 0.0, "shed": 1, "max_queue_depth": 5,
        }
        # A pid with no serving pressure still has the full row schema.
        assert workers[80] == {
            "requests": 3, "busy_s": 0.0, "shed": 0, "max_queue_depth": 0,
        }
        report = format_report(summarize(events))
        assert "shed=6" in report
        assert "maxq=9" in report
        assert "shed/maxq = serving pressure" in report


class TestRunnerIntegration:
    def test_disabled_by_default(self):
        assert ExperimentRunner(SETTINGS).telemetry is None

    def test_serial_run_emits_all_five_phases(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        cache = ResultCache(str(tmp_path / "cache"))
        runner = ExperimentRunner(replace(SETTINGS, telemetry_path=path), cache=cache)
        # baseline covers build/trace/simulate; twig adds profile+plan.
        runner.run("wordpress", "baseline")
        runner.run("wordpress", "twig")
        runner.telemetry.emit_summary(
            cache_stats=cache.stats, runner_stats=runner.stats
        )
        runner.telemetry.close()

        summary = summarize(read_events(path))
        for phase in PHASES:
            assert phase in summary["phases"], f"missing span for {phase}"
        # Cold cache: every load missed, every artifact was stored.
        assert summary["cache"]["misses"] > 0
        assert summary["cache"]["stores"] > 0
        assert summary["cache"]["hits"] == 0
        report = format_report(summary)
        assert "wordpress/twig" in report

    def test_warm_cache_hits_show_up_in_report(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        cache_dir = str(tmp_path / "cache")
        cold = ExperimentRunner(SETTINGS, cache=ResultCache(cache_dir))
        cold.run("wordpress", "baseline")
        warm = ExperimentRunner(
            replace(SETTINGS, telemetry_path=path),
            cache=ResultCache(cache_dir),
        )
        warm.run("wordpress", "baseline")
        warm.telemetry.close()
        cache = summarize(read_events(path))["cache"]
        assert cache["hits"] > 0
        assert cache["hit_rate"] > 0.0

    def test_sim_counters_recorded_once_per_run(self, tmp_path):
        runner = ExperimentRunner(
            replace(SETTINGS, telemetry_path=str(tmp_path / "tel.jsonl"))
        )
        result = runner.run("wordpress", "baseline")
        counters = runner.telemetry.registry.counters
        runner.telemetry.close()
        assert counters["sim.runs"] == 1
        assert counters["sim.instructions"] == result.instructions
        assert counters["sim.btb_misses"] == result.btb_misses

    @pytest.mark.slow
    def test_pool_workers_feed_one_log(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        # Via the settings, as --telemetry does: workers receive them.
        runner = ExperimentRunner(replace(SETTINGS, telemetry_path=path), jobs=2)
        assert runner.telemetry is not None
        runner.warm(
            [("wordpress", "baseline"), ("wordpress", "ideal_btb")], jobs=2
        )
        runner.telemetry.emit_summary(runner_stats=runner.stats)
        runner.telemetry.close()

        summary = summarize(read_events(path))
        # Every pool request was recorded against some worker pid.
        total_requests = sum(w["requests"] for w in summary["workers"].values())
        assert total_requests == 2
        # Worker-side spans landed in the shared log.
        assert summary["phases"].get("simulate", {}).get("count", 0) >= 2


class TestCLI:
    @pytest.fixture()
    def small_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_APPS", "wordpress")
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "60000")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_GLOBAL_RUNNER", None)
        return tmp_path

    def test_telemetry_flag_then_report(self, capsys, small_env):
        from repro.experiments.__main__ import main

        log = str(small_env / "run.jsonl")
        assert main(["fig03", "--telemetry", log]) == 0
        out = capsys.readouterr().out
        assert f"telemetry: {log}" in out
        assert os.path.isfile(log)

        assert main(["telemetry-report", log]) == 0
        report = capsys.readouterr().out
        assert "per-phase wall time" in report
        assert "simulate" in report
        assert "cache:" in report

    def test_report_without_path_is_a_clean_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["telemetry-report"]) == 2
        assert "needs a log path" in capsys.readouterr().err

    def test_report_missing_file_is_a_clean_error(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["telemetry-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestZeroOverheadContract:
    def test_render_report_roundtrip(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "tel.jsonl"))
        with sink.span("plan_build", app="wordpress", input=0):
            pass
        sink.close()
        assert "plan_build" in render_report(sink.path)

    def test_config_rejects_directory_path(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            replace(SETTINGS, telemetry_path=str(tmp_path))
