"""On-disk result cache: hits, integrity validation, quarantine.

Covers the three contract points of the cache subsystem:

* a warm cache eliminates *all* re-simulation (the fig-regeneration
  fast path);
* corrupted entries — truncation, bit-flips, checksum mismatches —
  are quarantined and transparently recomputed, never served;
* cached results are bit-identical to freshly simulated ones.
"""

import json
import os

import pytest

from repro.errors import CacheError
from repro.experiments.cache import (
    ENTRY_FORMAT,
    QUARANTINE_SUBDIR,
    ResultCache,
    cache_from_env,
    cache_key,
    payload_checksum,
)
from repro.experiments.figures import fig03_btb_mpki
from repro.experiments.runner import ExperimentRunner, RunnerSettings
from repro.profiling.serialize import result_to_dict

SETTINGS = RunnerSettings(trace_instructions=40_000, apps=("wordpress",), sample_rate=1)


def make_runner(tmp_path, **kwargs):
    return ExperimentRunner(SETTINGS, cache=ResultCache(str(tmp_path / "cache")), **kwargs)


def entry_files(tmp_path):
    d = tmp_path / "cache"
    return sorted(p for p in d.glob("*.json"))


class TestCachePrimitives:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fields = {"kind": "unit", "x": 1}
        payload = {"answer": 42, "nested": {"a": [1, 2]}}
        cache.store(fields, payload)
        assert cache.load(fields) == payload
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.load({"kind": "unit"}) is None
        assert cache.stats.misses == 1

    def test_distinct_fields_distinct_keys(self):
        assert cache_key({"a": 1}) != cache_key({"a": 2})
        # Key ordering must not matter (canonical JSON).
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})

    def test_entry_bytes_equal_json_dumps(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fields = {"kind": "unit", "x": 1}
        payload = {"samples": [{"w": [[1, 2.5]]}] * 3, "label": "caf\u00e9"}
        path = cache.store(fields, payload)
        entry = {
            "format": ENTRY_FORMAT,
            "key": cache_key(fields),
            "fields": fields,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        with open(path, "rb") as fh:
            assert fh.read() == json.dumps(entry).encode()

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store({"k": 1}, {"v": 1})
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
        assert leftovers == []

    def test_empty_directory_rejected(self):
        with pytest.raises(CacheError):
            ResultCache("")

    def test_cache_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = cache_from_env()
        assert cache is not None and cache.directory == str(tmp_path)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_from_env() is None


class TestCorruptionHandling:
    def _populate(self, tmp_path):
        runner = make_runner(tmp_path)
        result = runner.run("wordpress", "baseline")
        files = entry_files(tmp_path)
        assert files, "expected at least one cache entry"
        return result, files

    def _assert_recovers(self, tmp_path, expected):
        """A fresh runner must quarantine the bad entry and recompute."""
        runner = make_runner(tmp_path)
        recomputed = runner.run("wordpress", "baseline")
        assert result_to_dict(recomputed) == result_to_dict(expected)
        assert runner.stats.simulations == 1
        assert runner.cache.stats.quarantined >= 1
        qdir = tmp_path / "cache" / QUARANTINE_SUBDIR
        assert qdir.is_dir() and any(qdir.iterdir())

    def test_truncated_entry_recovers(self, tmp_path):
        expected, files = self._populate(tmp_path)
        for path in files:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        self._assert_recovers(tmp_path, expected)

    def test_bitflipped_payload_recovers(self, tmp_path):
        expected, files = self._populate(tmp_path)
        # Perturb a payload value without touching the stored checksum:
        # still valid JSON, but the integrity check must reject it.
        for path in files:
            entry = json.loads(path.read_text())
            for field in ("cycles", "samples"):
                if field in entry["payload"]:
                    value = entry["payload"][field]
                    entry["payload"][field] = (
                        value + 1 if isinstance(value, int) else value
                    )
            path.write_text(json.dumps(entry))
        self._assert_recovers(tmp_path, expected)

    def test_garbage_bytes_recover(self, tmp_path):
        expected, files = self._populate(tmp_path)
        for path in files:
            path.write_bytes(b"\x00\xff garbage \x80")
        self._assert_recovers(tmp_path, expected)

    def test_wrong_kind_payload_quarantined(self, tmp_path):
        """Checksum-valid but semantically wrong payloads are rejected too."""
        expected, files = self._populate(tmp_path)
        for path in files:
            entry = json.loads(path.read_text())
            entry["payload"] = {"kind": "prefetch_plan", "format": 1}
            entry["checksum"] = payload_checksum(entry["payload"])
            path.write_text(json.dumps(entry))
        self._assert_recovers(tmp_path, expected)

    def test_verify_reports_corruption(self, tmp_path):
        _, files = self._populate(tmp_path)
        files[0].write_bytes(b"not json")
        cache = ResultCache(str(tmp_path / "cache"))
        ok, corrupt = cache.verify()
        assert corrupt == (str(files[0]),)
        assert ok == len(files) - 1
        # verify(quarantine=True) moves it aside.
        ok2, corrupt2 = cache.verify(quarantine=True)
        assert len(corrupt2) == 1
        assert not files[0].exists()


class TestWarmCache:
    def test_second_runner_performs_zero_simulations(self, tmp_path):
        cold = make_runner(tmp_path)
        first = fig03_btb_mpki(cold)
        assert cold.stats.simulations > 0

        warm = make_runner(tmp_path)
        second = fig03_btb_mpki(warm)
        assert second == first
        assert warm.stats.simulations == 0, "warm cache must not re-simulate"
        assert warm.stats.profiles_collected == 0
        assert warm.cache.stats.hits > 0
        assert warm.stats.disk_hits == warm.cache.stats.hits

    def test_cached_results_equal_uncached(self, tmp_path):
        cached = make_runner(tmp_path)
        cached.run("wordpress", "twig")  # populates disk (profile + results)
        reread = make_runner(tmp_path)
        fresh = ExperimentRunner(SETTINGS)  # no disk cache at all
        assert result_to_dict(reread.run("wordpress", "twig")) == result_to_dict(
            fresh.run("wordpress", "twig")
        )
        assert reread.stats.simulations == 0

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(SETTINGS)
        runner.run("wordpress", "baseline")
        assert list(tmp_path.iterdir()) == []

    def test_stale_version_entries_ignored_and_purgeable(self, tmp_path):
        cold = make_runner(tmp_path)
        cold.run("wordpress", "baseline")
        n_entries = len(entry_files(tmp_path))
        # Rewrite every entry as if an older repro version produced it.
        cache = ResultCache(str(tmp_path / "cache"))
        for path, entry in cache.entries():
            entry["fields"]["repro_version"] = "0.0.1"
            new_key = cache_key(entry["fields"])
            entry["key"] = new_key
            os.unlink(path)
            (tmp_path / "cache" / f"{new_key}.json").write_text(json.dumps(entry))
        warm = make_runner(tmp_path)
        warm.run("wordpress", "baseline")
        assert warm.stats.simulations == 1  # old-version entries never hit
        assert cache.purge(keep_version=None) >= n_entries


class TestQuarantineNaming:
    FIELDS = {"kind": "unit", "x": 1}

    def _corrupt(self, cache):
        cache.store(self.FIELDS, {"answer": 42})
        path = cache._path(cache_key(self.FIELDS))
        with open(path, "wb") as fh:
            fh.write(b"\x00 corrupt \xff")
        return path

    def test_repeat_corruption_keeps_every_generation(self, tmp_path):
        """A second corruption of the same key must not overwrite the
        first key's quarantined evidence."""
        cache = ResultCache(str(tmp_path))
        for _ in range(3):
            self._corrupt(cache)
            assert cache.load(self.FIELDS) is None
        qdir = tmp_path / QUARANTINE_SUBDIR
        base = cache_key(self.FIELDS) + ".json"
        names = sorted(p.name for p in qdir.iterdir())
        assert names == [base, f"{base}.1", f"{base}.2"]
        assert cache.stats.quarantined == 3
        assert cache.stats.quarantine_deleted == 0

    def test_failed_move_deletes_and_counts_separately(self, tmp_path, monkeypatch):
        """When quarantine can't move the file it must delete it (never
        serve corruption twice) and count that as a *deletion*, not as
        quarantined evidence."""
        cache = ResultCache(str(tmp_path))
        path = self._corrupt(cache)
        qdir = str(tmp_path / QUARANTINE_SUBDIR)
        real_replace = os.replace

        def broken_replace(src, dst):
            if dst.startswith(qdir):
                raise OSError("simulated cross-device failure")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", broken_replace)
        assert cache.load(self.FIELDS) is None
        assert not os.path.exists(path), "corrupt entry must not survive"
        assert cache.stats.quarantine_deleted == 1
        assert cache.stats.quarantined == 0
        # And it really is gone: the next load is a plain miss.
        assert cache.load(self.FIELDS) is None
        assert cache.stats.misses == 2
