"""The `python -m repro.experiments` command-line interface."""

import pytest

from repro.drift import bench as drift_bench
from repro.experiments.__main__ import main
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

    def test_default_sim_mode_does_not_outlive_main(self, monkeypatch):
        # main() installs the fast sweep default via os.environ so
        # pool workers inherit it, but nobody asked for it — it must
        # not leak into whatever the process does next (sanitized
        # serial runs in the same test process, for one).
        import os

        monkeypatch.delenv("REPRO_SIM_MODE", raising=False)
        assert main(["--list"]) == 0
        assert "REPRO_SIM_MODE" not in os.environ

    def test_explicit_sim_mode_persists_for_workers(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SIM_MODE", raising=False)
        assert main(["--list", "--sim-mode", "serial"]) == 0
        assert os.environ.get("REPRO_SIM_MODE") == "serial"
        monkeypatch.delenv("REPRO_SIM_MODE", raising=False)

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

    def test_invalid_env_knob_rejected(self, capsys, small_env, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_INSTRUCTIONS", "not-a-number")
        assert main(["fig03"]) == 2
        assert "REPRO_TRACE_INSTRUCTIONS" in capsys.readouterr().err


class TestServiceCLI:
    """The `serve` / `service-bench` subcommands."""

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--apps", "wordpress",
                     "--trace-instructions", "6000"]) == 0
        out = capsys.readouterr().out
        assert "parity=OK" in out
        assert "drain clean" in out

    def test_service_bench_overload_sheds_and_drains(self, capsys, tmp_path):
        log = tmp_path / "service.jsonl"
        assert main([
            "service-bench", "--apps", "wordpress",
            "--trace-instructions", "6000",
            "--overload", "--expect-sheds",
            "--telemetry", str(log),
        ]) == 0
        out = capsys.readouterr().out
        assert "parity=OK" in out
        assert "drain clean" in out
        assert log.exists() and log.stat().st_size > 0

    def test_service_bench_rejects_unknown_app(self, capsys):
        assert main(["service-bench", "--apps", "nosuchapp"]) == 2
        assert "unknown app" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--apps", "wordpress", "--trace-instructions", "3000",
             "--queue-depth", "0"],
            ["service-bench", "--apps", "wordpress", "--trace-instructions",
             "3000", "--queue-depth", "0"],
            ["drift-bench", "--smoke", "--window", "0"],
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

        monkeypatch.setattr(service_bench, "TelemetrySink", RecordingSink)
        monkeypatch.setattr(drift_bench, "TelemetrySink", RecordingSink)
        log = tmp_path / "service.jsonl"
        assert main(argv + ["--telemetry", str(log)]) == 2
        assert "error:" in capsys.readouterr().err
        assert len(opened) == 1
        assert opened[0]._fh.closed
