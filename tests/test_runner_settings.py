"""Validation of the runner's environment knobs.

Each knob is read through :meth:`RunnerSettings.from_env`; bad values
must fail loudly with a :class:`ReproError` instead of being silently
accepted (or crashing deep inside the pipeline later).
"""

import pytest

from repro.errors import ReproError
from repro.experiments.parallel import resolve_jobs
from repro.experiments.runner import RunnerSettings
from repro.workloads.apps import app_names


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in (
        "REPRO_TRACE_INSTRUCTIONS",
        "REPRO_APPS",
        "REPRO_SAMPLE_RATE",
        "REPRO_JOBS",
    ):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestTraceInstructionsKnob:
    def test_default(self):
        assert RunnerSettings.from_env().trace_instructions == 1_000_000

    def test_valid(self, clean_env):
        clean_env.setenv("REPRO_TRACE_INSTRUCTIONS", "250000")
        assert RunnerSettings.from_env().trace_instructions == 250_000

    @pytest.mark.parametrize("bad", ["0", "-100", "abc", "1e6", "1.5"])
    def test_invalid_rejected(self, clean_env, bad):
        clean_env.setenv("REPRO_TRACE_INSTRUCTIONS", bad)
        with pytest.raises(ReproError, match="REPRO_TRACE_INSTRUCTIONS"):
            RunnerSettings.from_env()


class TestSampleRateKnob:
    def test_default(self):
        assert RunnerSettings.from_env().sample_rate == 1

    def test_valid(self, clean_env):
        clean_env.setenv("REPRO_SAMPLE_RATE", "4")
        assert RunnerSettings.from_env().sample_rate == 4

    @pytest.mark.parametrize("bad", ["0", "-2", "fast"])
    def test_invalid_rejected(self, clean_env, bad):
        clean_env.setenv("REPRO_SAMPLE_RATE", bad)
        with pytest.raises(ReproError, match="REPRO_SAMPLE_RATE"):
            RunnerSettings.from_env()


class TestAppsKnob:
    def test_default_is_all_apps(self):
        assert RunnerSettings.from_env().apps == app_names()

    def test_valid_subset(self, clean_env):
        clean_env.setenv("REPRO_APPS", "wordpress, cassandra")
        assert RunnerSettings.from_env().apps == ("wordpress", "cassandra")

    def test_unknown_app_rejected_with_choices(self, clean_env):
        clean_env.setenv("REPRO_APPS", "wordpress,nginx")
        with pytest.raises(ReproError, match="nginx") as excinfo:
            RunnerSettings.from_env()
        assert "wordpress" in str(excinfo.value)  # lists the known apps

    def test_only_separators_rejected(self, clean_env):
        clean_env.setenv("REPRO_APPS", " , ,")
        with pytest.raises(ReproError, match="REPRO_APPS"):
            RunnerSettings.from_env()


class TestDirectConstruction:
    def test_nonpositive_trace_rejected(self):
        with pytest.raises(ReproError):
            RunnerSettings(trace_instructions=0, apps=("wordpress",), sample_rate=1)

    def test_nonpositive_sample_rate_rejected(self):
        with pytest.raises(ReproError):
            RunnerSettings(trace_instructions=1000, apps=("wordpress",), sample_rate=0)

    def test_empty_apps_rejected(self):
        with pytest.raises(ReproError):
            RunnerSettings(trace_instructions=1000, apps=(), sample_rate=1)


class TestJobsKnob:
    def test_default(self):
        assert resolve_jobs() == 1

    def test_env(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "6")
        assert resolve_jobs() == 6

    def test_explicit_overrides_env(self, clean_env):
        clean_env.setenv("REPRO_JOBS", "6")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("bad", ["0", "-1", "many"])
    def test_invalid_env_rejected(self, clean_env, bad):
        clean_env.setenv("REPRO_JOBS", bad)
        with pytest.raises(ReproError):
            resolve_jobs()

    def test_invalid_explicit_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(0)


class TestConfigAccessors:
    """Satellite 1 (PR 4): every env read goes through repro.config."""

    def test_results_dir(self, clean_env):
        from repro.config import results_dir_from_env

        assert results_dir_from_env() == "benchmarks/results"
        clean_env.setenv("REPRO_RESULTS_DIR", "/tmp/out")
        assert results_dir_from_env() == "/tmp/out"

    def test_cache_dir_and_kill_switch(self, clean_env):
        from repro.config import cache_dir_from_env, no_cache_from_env

        assert cache_dir_from_env() is None
        clean_env.setenv("REPRO_CACHE_DIR", "/tmp/cache")
        assert cache_dir_from_env() == "/tmp/cache"
        assert no_cache_from_env() is False
        clean_env.setenv("REPRO_NO_CACHE", "0")
        assert no_cache_from_env() is False
        clean_env.setenv("REPRO_NO_CACHE", "1")
        assert no_cache_from_env() is True

    def test_apps_accessor_raw(self, clean_env):
        from repro.config import apps_from_env

        assert apps_from_env() is None
        clean_env.setenv("REPRO_APPS", "wordpress, drupal")
        assert apps_from_env() == ("wordpress", "drupal")
        clean_env.setenv("REPRO_APPS", ", ,")
        with pytest.raises(ReproError, match="REPRO_APPS"):
            apps_from_env()

    def test_int_accessor_messages_name_the_knob(self, clean_env):
        from repro.config import int_from_env

        clean_env.setenv("REPRO_TRACE_INSTRUCTIONS", "zero")
        with pytest.raises(ReproError, match="REPRO_TRACE_INSTRUCTIONS"):
            int_from_env("REPRO_TRACE_INSTRUCTIONS", 5)
