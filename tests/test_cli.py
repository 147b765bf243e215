"""The `python -m repro.experiments` and `python -m repro.service` CLIs."""

import argparse
import inspect
import json

import pytest

from repro.drift import bench as drift_bench
from repro.experiments.__main__ import main
from repro.service import __main__ as service_cli
from repro.service import bench as service_bench
from repro.telemetry.events import TelemetrySink


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "table3" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig01" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_settings_do_not_outlive_main(self, tmp_path):
        # The flags set RunnerSettings fields for this invocation only:
        # nothing lands in os.environ, so later configs and runners in
        # the same process are plain.
        import os

        from repro.config import SimConfig
        from repro.experiments.runner import ExperimentRunner, RunnerSettings

        log = tmp_path / "run.jsonl"
        before = dict(os.environ)
        assert main(["--sanitize", "--check-plans", "--telemetry", str(log),
                     "--list"]) == 0
        assert dict(os.environ) == before
        assert SimConfig().sanitize is False
        runner = ExperimentRunner(
            RunnerSettings(trace_instructions=1000, apps=("wordpress",),
                           sample_rate=1)
        )
        assert runner.settings.check_plans is False
        assert runner.telemetry is None
        assert not log.exists()

    @pytest.fixture()
    def small_env(self, monkeypatch, tmp_path):
        # Constrain the global runner to something affordable, and keep
        # the on-disk cache inside the test's tmp dir.
        monkeypatch.setenv("REPRO_APPS", "wordpress")
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "80000")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_GLOBAL_RUNNER", None)
        return tmp_path

    def test_runs_small_experiment(self, capsys, small_env):
        assert main(["fig03", "--save"]) == 0
        out = capsys.readouterr().out
        assert "wordpress" in out
        assert "saved:" in out
        assert (small_env / "fig03.json").exists()

    def test_cache_dir_flag_populates_cache(self, capsys, small_env):
        cache_dir = small_env / "explicit-cache"
        assert main(["fig03", "--cache-dir", str(cache_dir)]) == 0
        assert any(cache_dir.glob("*.json"))

    def test_no_cache_flag_writes_nothing(self, capsys, small_env):
        assert main(["fig03", "--no-cache"]) == 0
        assert not (small_env / "cache").exists()

    def test_jobs_flag_matches_serial(self, capsys, small_env):
        assert main(["fig03", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        import repro.experiments.runner as runner_mod

        runner_mod.set_runner(None)
        assert main(["fig03", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert parallel_out.splitlines()[:3] == serial_out.splitlines()[:3]

    def test_invalid_jobs_rejected(self, capsys, small_env):
        assert main(["fig03", "--jobs", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_telemetry_directory_is_a_clean_error(self, capsys, small_env):
        assert main(["fig03", "--telemetry", str(small_env)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_env_knob_rejected(self, capsys, small_env, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "not-a-number")
        assert main(["fig03"]) == 2
        assert "REPRO_TRACE_INSTRUCTIONS" in capsys.readouterr().err


class TestServiceCLI:
    """`python -m repro.service run / fleet / drift`, end to end."""

    def test_serve_smoke(self, capsys):
        assert service_cli.main(["run", "--apps", "wordpress",
                                 "--trace-instructions", "6000"]) == 0
        out = capsys.readouterr().out
        assert "parity=OK" in out
        assert "drain clean" in out

    def test_service_bench_overload_sheds_and_drains(self, capsys, tmp_path):
        log = tmp_path / "service.jsonl"
        assert service_cli.main([
            "run", "--apps", "wordpress",
            "--trace-instructions", "6000",
            "--overload", "--expect-sheds",
            "--telemetry", str(log),
        ]) == 0
        out = capsys.readouterr().out
        assert "parity=OK" in out
        assert "drain clean" in out
        assert log.exists() and log.stat().st_size > 0

    def test_service_bench_rejects_unknown_app(self, capsys):
        assert service_cli.main(["run", "--apps", "nosuchapp"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_fleet_smoke(self, capsys):
        assert service_cli.main(["fleet", "--apps", "wordpress",
                                 "--trace-instructions", "6000",
                                 "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "parity=OK" in out
        assert "drain: clean" in out

    def test_drift_smoke_report_file(self, capsys, tmp_path):
        path = tmp_path / "BENCH_drift.json"
        assert service_cli.main(["drift", "--smoke", "--out", str(path)]) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["kind"] == "drift_bench"
        assert data["schema_version"] == drift_bench.DRIFT_BENCH_SCHEMA_VERSION
        assert [(c["app"], c["scenario"]) for c in data["cases"]] == [
            ("wordpress", "deploy"), ("wordpress", "steady"),
        ]
        for case in data["cases"]:
            assert set(case) == {
                "app", "scenario", "input", "stream_samples",
                "baseline_version", "stale_sites", "stale_typed",
                "detection_latency_samples", "epoch", "verdict", "expected",
                "verdict_correct", "samples_to_verdict", "baseline_score",
                "candidate_score", "active_version", "history",
                "rollback_correct",
            }
            assert case["verdict_correct"] is True
            assert case["rollback_correct"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--apps", "wordpress", "--trace-instructions", "3000",
             "--queue-depth", "0"],
            ["run", "--apps", "wordpress", "--trace-instructions",
             "3000", "--queue-depth", "0"],
            ["drift", "--smoke", "--window", "0"],
        ],
        ids=["serve", "service-bench", "drift-bench"],
    )
    def test_failed_run_closes_its_telemetry_log(
        self, argv, monkeypatch, tmp_path, capsys
    ):
        opened = []

        class RecordingSink(TelemetrySink):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(service_cli, "TelemetrySink", RecordingSink)
        log = tmp_path / "service.jsonl"
        assert service_cli.main(argv + ["--telemetry", str(log)]) == 2
        assert "error:" in capsys.readouterr().err
        assert len(opened) == 1
        assert opened[0]._fh.closed


# Each flag of each `python -m repro.service` subcommand with a
# non-default value, and what the run must then receive.
FLAG_CASES = [
    (["run", "--apps", "drupal"],
     lambda a: a["scenario"].apps == ("drupal",)),
    (["run", "--trace-instructions", "1234"],
     lambda a: a["scenario"].trace_instructions == 1234),
    (["run", "--queue-depth", "9"], lambda a: a["config"].queue_depth == 9),
    (["run", "--overload"],
     lambda a: (a["config"].queue_depth, a["config"].workers,
                a["config"].synthetic_delay_s, a["load_clients"])
     == (4, 1, 0.02, 24)),
    (["run", "--telemetry", "t.jsonl"],
     lambda a: a["telemetry"].path == "t.jsonl"),
    (["fleet", "--apps", "drupal"],
     lambda a: a["scenario"].apps == ("drupal",)),
    (["fleet", "--trace-instructions", "1234"],
     lambda a: a["scenario"].trace_instructions == 1234),
    (["fleet", "--workers", "3"], lambda a: a["config"].workers == 3),
    (["fleet", "--replicas", "2"], lambda a: a["config"].replicas == 2),
    (["fleet", "--chaos"],
     lambda a: a["chaos"] == service_bench.CHAOS
     and a["config"].autoscale and a["config"].queue_depth == 4),
    (["fleet", "--telemetry", "t.jsonl"],
     lambda a: a["telemetry_path"] == "t.jsonl"),
    (["fleet", "--journal", "j.jsonl"],
     lambda a: a["journal_path"] == "j.jsonl"),
    (["fleet", "--decisions", "d.jsonl"],
     lambda a: a["decisions_path"] == "d.jsonl"),
    (["drift", "--smoke"],
     lambda a: a["scenario"].trace_instructions == 8000
     and a["kinds"] == ("deploy", "steady")),
    (["drift", "--window", "5"], lambda a: a["canary"].window == 5),
    (["drift", "--telemetry", "t.jsonl"],
     lambda a: a["telemetry"].path == "t.jsonl"),
]

# Flags that steer what happens after the run rather than the run.
AFTER_RUN_FLAGS = {("run", "--expect-sheds"), ("drift", "--out")}


class TestServiceFlags:
    """Every flag a `python -m repro.service` subcommand accepts is used."""

    @pytest.fixture()
    def received(self, monkeypatch, tmp_path):
        """Replace the three runs with fakes that record their arguments."""
        monkeypatch.chdir(tmp_path)
        received = {}

        def capture(module, name, make_report):
            signature = inspect.signature(getattr(module, name))

            def fake(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                received.update(bound.arguments)
                return make_report(bound.arguments)

            monkeypatch.setattr(module, name, fake)

        capture(service_bench, "run_service",
                lambda a: service_bench.ServiceReport(drained_clean=True))
        capture(service_bench, "run_fleet",
                lambda a: service_bench.FleetReport())
        capture(drift_bench, "run_drift",
                lambda a: drift_bench.DriftReport(
                    a["scenario"], a["canary"], a["kinds"]))
        return received

    @pytest.mark.parametrize(
        "argv,check", FLAG_CASES, ids=[" ".join(c[0]) for c in FLAG_CASES]
    )
    def test_flag_reaches_the_run(self, argv, check, received, capsys):
        service_cli.main(argv)
        assert received, "the run was never called"
        assert check(received)

    def test_every_flag_has_a_case(self):
        (commands,) = [
            action for action in service_cli._parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        accepted = {
            (name, option)
            for name, sub in commands.choices.items()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        covered = {(argv[0], argv[1]) for argv, _check in FLAG_CASES}
        assert accepted == covered | AFTER_RUN_FLAGS

    def test_expect_sheds_fails_a_run_that_shed_nothing(self, received, capsys):
        assert service_cli.main(["run"]) == 0
        assert service_cli.main(["run", "--expect-sheds"]) == 1
        assert "--expect-sheds" in capsys.readouterr().err

    def test_out_writes_the_report(self, received, tmp_path, capsys):
        assert service_cli.main(["drift", "--out", "r.json"]) == 0
        data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert data["kind"] == "drift_bench"
        assert data["settings"]["scenarios"] == ["steady", "diurnal", "deploy", "jit"]

    def test_out_to_an_unwritable_path_is_a_clean_error(
        self, received, tmp_path, capsys
    ):
        assert service_cli.main(["drift", "--out", "missing/r.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write drift report")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()
