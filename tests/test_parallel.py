"""Process-pool fan-out: request coercion, per-app dispatch, retries, serial fallback."""

import multiprocessing
import os
import pickle
from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.errors import InvariantViolation, ReproError
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunRequest, execute_runs
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.profiling.serialize import result_to_dict
from repro.telemetry import TelemetrySink, read_events
from repro.uarch.results import SimResult

SETTINGS = RunnerSettings(trace_instructions=30_000, apps=("wordpress",), sample_rate=1)
TWO_APPS = RunnerSettings(
    trace_instructions=30_000, apps=("wordpress", "drupal"), sample_rate=1
)


def _labels(requests):
    """The result labels *requests* get on the default test input (1)."""
    return [f"{q.app}/{q.system}#1" for q in requests]


def _worker_pids(sink):
    """Pids the parent merged a worker result from, with their request counts."""
    return {
        int(name.split(".")[1]): n
        for name, n in sink.registry.counters.items()
        if name.startswith("worker.") and name.endswith(".requests")
    }


class TestRunRequest:
    def test_coerce_passthrough(self):
        req = RunRequest("wordpress", "baseline")
        assert RunRequest.coerce(req) is req

    def test_coerce_pair_and_triple(self):
        assert RunRequest.coerce(("a", "baseline")) == RunRequest("a", "baseline")
        assert RunRequest.coerce(["a", "twig", 2]) == RunRequest(
            "a", "twig", input_idx=2
        )

    @pytest.mark.parametrize("bad", ["wordpress", ("only-one",), (1, 2, 3, 4, 5)])
    def test_coerce_rejects_garbage(self, bad):
        with pytest.raises(ReproError):
            RunRequest.coerce(bad)


class TestExecuteRuns:
    def test_empty_request_list(self):
        assert execute_runs(SETTINGS, [], jobs=4) == []

    @pytest.mark.slow
    def test_failed_request_resolves_to_none(self):
        # An unknown system raises inside the worker on every attempt;
        # the valid request must still come back as a real result.
        requests = [
            RunRequest("wordpress", "baseline"),
            RunRequest("wordpress", "no-such-system"),
        ]
        results = execute_runs(SETTINGS, requests, jobs=2)
        assert isinstance(results[0], SimResult)
        assert results[1] is None

    @pytest.mark.slow
    def test_workers_populate_shared_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        requests = [
            RunRequest("wordpress", "baseline"),
            RunRequest("wordpress", "ideal_btb"),
        ]
        results = execute_runs(SETTINGS, requests, jobs=2, cache_dir=cache_dir)
        assert all(isinstance(r, SimResult) for r in results)
        # A fresh runner sharing the directory needs zero simulations.
        reader = ExperimentRunner(SETTINGS, cache=ResultCache(cache_dir))
        reread = reader.run("wordpress", "baseline")
        assert reader.stats.simulations == 0
        assert result_to_dict(reread) == result_to_dict(results[0])


class TestPerAppDispatch:
    """Each app's requests go to one worker, so each workload is built once."""

    @pytest.mark.slow
    def test_each_app_built_once(self, tmp_path):
        log = str(tmp_path / "telemetry.jsonl")
        requests = [
            RunRequest(app, system)
            for system in ("baseline", "ideal_btb", "ideal_icache")
            for app in ("wordpress", "drupal")
        ]
        results = execute_runs(
            replace(TWO_APPS, telemetry_path=log), requests, jobs=2
        )
        assert [r.label for r in results] == _labels(requests)
        builds = [
            e for e in read_events(log)
            if e["event"] == "span" and e["phase"] == "workload_build"
        ]
        assert sorted(e["app"] for e in builds) == ["drupal", "wordpress"]
        for app in ("wordpress", "drupal"):
            assert len({e["pid"] for e in builds if e["app"] == app}) == 1

    @pytest.mark.slow
    def test_one_app_is_split_across_the_pool(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "telemetry.jsonl"))
        systems = ("baseline", "ideal_btb", "ideal_icache", "shotgun", "confluence")
        requests = [RunRequest("wordpress", system) for system in systems]
        results = execute_runs(SETTINGS, requests, jobs=2, telemetry=sink)
        sink.close()
        assert [r.label for r in results] == _labels(requests)
        assert sorted(_worker_pids(sink).values()) == [2, 3]

    @pytest.mark.slow
    def test_failed_request_fails_alone_in_its_batch(self):
        requests = [
            RunRequest("wordpress", "baseline"),
            RunRequest("wordpress", "no-such-system"),
            RunRequest("drupal", "baseline"),
            RunRequest("wordpress", "ideal_btb"),
        ]
        results = execute_runs(TWO_APPS, requests, jobs=2)
        assert results[1] is None
        kept = [0, 2, 3]
        assert [results[i].label for i in kept] == _labels(
            [requests[i] for i in kept]
        )

    @pytest.mark.slow
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="monkeypatched worker fns only propagate to forked children",
    )
    def test_dead_worker_batch_comes_back_from_retry(self, tmp_path, monkeypatch):
        # The worker running wordpress's batch dies after its first
        # request on the first attempt: the result it computed is lost
        # with it, so the whole batch must come back from the retry round.
        marker = str(tmp_path / "died")
        real = parallel._run_request

        def exit_once(request):
            if request.system == "ideal_btb":
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    pass
                else:
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    os._exit(3)
            return real(request)

        monkeypatch.setattr(parallel, "_run_request", exit_once)
        sink = TelemetrySink(str(tmp_path / "telemetry.jsonl"))
        requests = [
            RunRequest("wordpress", "baseline"),
            RunRequest("wordpress", "ideal_btb"),
            RunRequest("wordpress", "ideal_icache"),
            RunRequest("drupal", "baseline"),
        ]
        results = execute_runs(TWO_APPS, requests, jobs=2, telemetry=sink)
        sink.close()
        assert [r.label for r in results] == _labels(requests)
        with open(marker, encoding="utf-8") as fh:
            dead = int(fh.read())
        assert dead not in _worker_pids(sink)
        assert sink.registry.counters["parallel.retries"] >= 3


def _noop_init(settings, cache_dir):
    pass


def _raise_violation(request):
    raise InvariantViolation("btb", "seeded by test", cycle=12, entry=(1, 2))


class TestInvariantPropagation:
    """Satellite 2: broad handlers must not swallow sanitizer failures."""

    def test_invariant_violation_pickles_roundtrip(self):
        exc = InvariantViolation("ras", "depth mismatch", cycle=7.0, entry=0xBEEF)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, InvariantViolation)
        assert clone.structure == "ras"
        assert clone.message == "depth mismatch"
        assert clone.cycle == 7.0
        assert clone.entry == 0xBEEF
        assert str(clone) == str(exc)

    @pytest.mark.slow
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="monkeypatched worker fns only propagate to forked children",
    )
    def test_worker_invariant_violation_propagates(self, monkeypatch):
        # A sanitizer failure in a worker must abort the whole fan-out
        # (not be retried and then silently recomputed sanitizer-free
        # in the serial fallback).
        monkeypatch.setattr(parallel, "_init_worker", _noop_init)
        monkeypatch.setattr(parallel, "_run_request", _raise_violation)
        with pytest.raises(InvariantViolation, match="seeded by test"):
            execute_runs(SETTINGS, [RunRequest("wordpress", "baseline")], jobs=2)


class TestWarm:
    def test_serial_warm_memoizes(self):
        runner = ExperimentRunner(SETTINGS)  # jobs=1 -> serial path
        out = runner.warm([("wordpress", "baseline"), ("wordpress", "baseline")])
        assert len(out) == 2 and out[0] is out[1]
        assert runner.stats.simulations == 1
        # Subsequent run() is a pure memo hit.
        assert runner.run("wordpress", "baseline") is out[0]
        assert runner.stats.simulations == 1

    @pytest.mark.slow
    def test_parallel_warm_falls_back_serially_for_failures(self):
        runner = ExperimentRunner(SETTINGS, jobs=2)
        # The failing request fails in the pool twice, then the serial
        # fallback re-raises the real error in-process.
        with pytest.raises(ReproError, match="no-such-system"):
            runner.warm(
                [
                    RunRequest("wordpress", "baseline"),
                    RunRequest("wordpress", "no-such-system"),
                ]
            )
        # The healthy run still landed in the memo before the failure.
        assert runner.stats.parallel_runs == 1

    def test_warm_rerun_reads_the_disk_cache_without_a_pool(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        requests = [("wordpress", "baseline"), ("wordpress", "ideal_btb")]
        first = ExperimentRunner(SETTINGS, cache=ResultCache(cache_dir))
        expected = [result_to_dict(r) for r in first.warm(requests)]

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm rerun started a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        rerun = ExperimentRunner(SETTINGS, cache=ResultCache(cache_dir), jobs=2)
        results = rerun.warm(requests)
        assert [result_to_dict(r) for r in results] == expected
        assert rerun.stats.disk_hits == len(requests)
        assert rerun.stats.parallel_runs == 0
        assert rerun.stats.simulations == 0


class TestSettingsReachWorkers:
    """Pool workers build their runners from the parent's settings."""

    REQUESTS = [RunRequest("wordpress", "twig"), RunRequest("wordpress", "baseline")]

    def _warm(self, settings, cache_dir):
        runner = ExperimentRunner(settings, cache=ResultCache(cache_dir), jobs=2)
        runner.warm(self.REQUESTS)
        if runner.telemetry is not None:
            runner.telemetry.close()
        assert runner.stats.parallel_runs == len(self.REQUESTS)
        assert runner.stats.simulations == 0

    def test_sanitize(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._warm(replace(SETTINGS, sanitize=True), cache_dir)
        # The workers stored sanitized results: a plain runner finds
        # them under SimConfig(sanitize=True), and only there.
        reader = ExperimentRunner(SETTINGS, cache=ResultCache(cache_dir))
        for q in self.REQUESTS:
            reader.run(q.app, q.system, config=SimConfig(sanitize=True))
        assert reader.stats.simulations == 0
        reader.run("wordpress", "baseline")
        assert reader.stats.simulations == 1

    @pytest.mark.parametrize("check_plans", [True, False])
    def test_check_plans_and_telemetry_path(self, tmp_path, check_plans):
        log = str(tmp_path / "tel.jsonl")
        settings = replace(SETTINGS, check_plans=check_plans, telemetry_path=log)
        self._warm(settings, str(tmp_path / "cache"))
        spans = [e for e in read_events(log) if e["event"] == "span"]
        worker_phases = {e["phase"] for e in spans if e["pid"] != os.getpid()}
        assert {"simulate", "plan_build"} <= worker_phases
        assert ("plan_check" in worker_phases) is check_plans
