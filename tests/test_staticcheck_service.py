"""Staticcheck layer 3 (service analyzer, rules A101–A106).

Two halves, mirroring the PR-4 style for the L-rules:

* **Mutation suite** — copies of the real service sources with one
  seeded defect each (blocking call in async, dropped await,
  unguarded shard mutation, fold-before-journal reorder, unpersisted
  ShardState field, untyped wire error).  Each defect must be caught
  by exactly its owning rule and by no other, and the unmutated copy
  must lint clean — so the rules gate real regressions without
  crying wolf.

* **Unit tests** — synthetic service-scope trees exercising each
  rule's positive/negative space: resolution chains, lock-held
  propagation, journal-absent CFG edges, coverage pairs, wire
  registry checks, and layer-3 suppression.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.staticcheck import SERVICE_RULES, lint_paths

SRC_ROOT = Path(repro.__file__).resolve().parent  # src/repro


def _closure_files():
    """Real-source relpaths the layer-3 closure lints together."""
    # profiling/serialize.py holds write_json_atomic, the file write
    # behind SnapshotStore.write; without it A101 cannot see that a
    # snapshot write blocks.
    rels = ["errors.py", "experiments/parallel.py", "profiling/serialize.py"]
    rels += sorted(
        f"service/{p.name}" for p in (SRC_ROOT / "service").glob("*.py")
    )
    # The drift engine is in the service analyzer's scope (it journals
    # canary verdicts and drives the service's async surface), so the
    # A-rule closure — and the clean-tree pin — covers it too.
    rels += sorted(
        f"drift/{p.name}" for p in (SRC_ROOT / "drift").glob("*.py")
    )
    return rels


def service_tree(tmp_path: Path, mutations=None) -> Path:
    """Copy the real service closure under tmp, with optional defects.

    ``mutations`` maps a relpath to ``(old, new)``; the old text must
    occur exactly once so a drifted source fails the test loudly
    instead of silently skipping the seeded defect.
    """
    mutations = dict(mutations or {})
    root = tmp_path / "tree"
    for rel in _closure_files():
        text = (SRC_ROOT / rel).read_text(encoding="utf-8")
        if rel in mutations:
            old, new = mutations.pop(rel)
            assert text.count(old) == 1, f"mutation anchor drifted in {rel}"
            text = text.replace(old, new)
        dest = root / "repro" / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")
    assert not mutations, f"mutations for unknown files: {sorted(mutations)}"
    return root


def fired_rules(root: Path):
    return {f.rule for f in lint_paths([root], root=root)}


def write_tree(tmp_path: Path, files) -> Path:
    root = tmp_path / "synthetic"
    for rel, source in files.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


class TestRealTreeClean:
    def test_service_closure_lints_clean(self, tmp_path):
        assert fired_rules(service_tree(tmp_path)) == set()


class TestMutationSuite:
    """One seeded defect per rule; each caught by exactly its owner."""

    def check(self, tmp_path, rel, old, new, owner):
        root = service_tree(tmp_path, {rel: (old, new)})
        assert fired_rules(root) == {owner}

    def test_blocking_call_in_async_is_a101(self, tmp_path):
        self.check(
            tmp_path,
            "service/server.py",
            "    async def _serve_plan(self, key: ShardKey) -> PlanVersion:\n"
            "        shard = self.buffer.get(key)\n",
            "    async def _serve_plan(self, key: ShardKey) -> PlanVersion:\n"
            "        time.sleep(0.001)\n"
            "        shard = self.buffer.get(key)\n",
            "A101",
        )

    def test_unsuppressed_snapshot_write_is_a101(self, tmp_path):
        # The chain runs SnapshotStore.write -> write_json_atomic ->
        # open(), across into profiling/serialize.py.
        self.check(
            tmp_path,
            "service/server.py",
            "            self._write_snapshot()  # staticcheck: disable=A101 "
            "(drain-time snapshot, no requests in flight)\n",
            "            self._write_snapshot()\n",
            "A101",
        )

    def test_dropped_await_is_a102(self, tmp_path):
        self.check(
            tmp_path,
            "service/server.py",
            "\n            await self._build_shard(key)\n",
            "\n            self._build_shard(key)\n",
            "A102",
        )

    def test_unguarded_shard_mutation_is_a103(self, tmp_path):
        # De-locking the chaos hook orphans _reap_dead & friends: no
        # caller chain proves the RLock anymore, so their mutations of
        # _handles/_delivered lose their lock-held justification.
        self.check(
            tmp_path,
            "service/fleet.py",
            '        """Chaos hook: SIGKILL one worker and reap it immediately."""\n'
            "        with self._lock:\n"
            "            handle = self._handles.get(worker_id)\n"
            "            if handle is None:\n"
            '                raise FleetError(f"unknown fleet worker {worker_id!r}")\n'
            "            handle.process.kill()\n"
            "            handle.process.join(10.0)\n"
            "            handle.mark_dead()\n"
            "            self._reap_dead()\n",
            '        """Chaos hook: SIGKILL one worker and reap it immediately."""\n'
            "        handle = self._handles.get(worker_id)\n"
            "        if handle is None:\n"
            '            raise FleetError(f"unknown fleet worker {worker_id!r}")\n'
            "        handle.process.kill()\n"
            "        handle.process.join(10.0)\n"
            "        handle.mark_dead()\n"
            "        self._reap_dead()\n",
            "A103",
        )

    def test_fold_before_journal_is_a104(self, tmp_path):
        self.check(
            tmp_path,
            "service/server.py",
            '        """Fold one batch in; synchronous so shard order == queue order."""\n'
            "        if self.journal is not None:\n",
            '        """Fold one batch in; synchronous so shard order == queue order."""\n'
            "        self.buffer.ingest(batch)\n"
            "        if self.journal is not None:\n",
            "A104",
        )

    def test_unpersisted_field_is_a105(self, tmp_path):
        self.check(
            tmp_path,
            "service/ingest.py",
            "        self.built_generation = 0\n",
            "        self.built_generation = 0\n"
            "        self.window_bits = 0\n",
            "A105",
        )

    def test_untyped_wire_error_is_a106(self, tmp_path):
        self.check(
            tmp_path,
            "service/http.py",
            '        raise TransportError(f"no endpoint for {method} {path}")\n',
            '        raise ValueError(f"no endpoint for {method} {path}")\n',
            "A106",
        )


class TestNoBlockingInAsync:
    def test_primitive_and_resolved_chain(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/service/mini.py": """
                    import time

                    def _sync_write(path):
                        with open(path, "a") as fh:
                            fh.write("x")

                    def _hop(path):
                        _sync_write(path)

                    async def direct():
                        time.sleep(0.1)

                    async def chained(path):
                        _hop(path)
                """,
            },
        )
        findings = [
            f for f in lint_paths([root], root=root) if f.rule == "A101"
        ]
        assert len(findings) == 2
        chain = next(f for f in findings if "chained" in f.message)
        assert "blocks the event loop" in chain.message
        assert "_sync_write()" in chain.message  # reason chain names the hop

    def test_executor_reference_is_clean_and_suppression_works(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/service/mini.py": """
                    import asyncio
                    import time

                    def _sync_sleep():
                        time.sleep(0.1)

                    async def offloaded():
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(None, _sync_sleep)

                    async def audited():
                        time.sleep(0.1)  # staticcheck: disable=A101 (test fixture)
                """,
            },
        )
        assert fired_rules(root) == set()


class TestUnawaitedCoroutine:
    def test_dropped_vs_consumed(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/service/mini.py": """
                    import asyncio

                    async def work():
                        return 1

                    async def dropped():
                        work()

                    async def consumed():
                        await work()
                        task = asyncio.ensure_future(work())
                        return [work(), task]
                """,
            },
        )
        findings = [f for f in lint_paths([root], root=root)]
        assert {f.rule for f in findings} == {"A102"}
        assert len(findings) == 1
        assert "dropped" in findings[0].message


class TestLockDiscipline:
    FLEET = """
        import threading

        class FleetRouter:
            def __init__(self):
                self._lock = threading.RLock()
                self._handles = {}
                self._delivered = {}

            def locked_entry(self, wid):
                with self._lock:
                    self._handles[wid] = 1
                    self._reap_dead()

            def _reap_dead(self):
                self._delivered.clear()
    """

    def test_propagated_lock_held_helper_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {"repro/service/fleet.py": self.FLEET})
        assert fired_rules(root) == set()

    def test_unlocked_mutation_and_orphaned_helper(self, tmp_path):
        source = (
            self.FLEET
            + """
            def rogue(self, wid):
                self._handles.pop(wid, None)
                self._reap_dead()
        """
        )
        root = write_tree(tmp_path, {"repro/service/fleet.py": source})
        findings = [f for f in lint_paths([root], root=root)]
        assert {f.rule for f in findings} == {"A103"}
        # rogue's direct pop, plus _reap_dead's clear: the unlocked
        # call site broke the helper's every-caller-holds-it proof.
        assert len(findings) == 2


class TestJournalBeforeFold:
    MINI = """
        class IngestJournal:
            def record(self, batch):
                pass

        class IngestBuffer:
            def ingest(self, batch):
                pass

        class Svc:
            def __init__(self):
                self.journal = IngestJournal()
                self.buffer = IngestBuffer()

            def {name}(self, batch):
        {body}
    """

    def build(self, tmp_path, name, body):
        source = textwrap.dedent(self.MINI).format(
            name=name, body=textwrap.indent(textwrap.dedent(body), "        ")
        )
        return write_tree(tmp_path, {"repro/service/server.py": source})

    def test_journal_first_is_clean(self, tmp_path):
        root = self.build(
            tmp_path,
            "good",
            """
            if self.journal is not None:
                self.journal.record(batch)
            self.buffer.ingest(batch)
            """,
        )
        assert fired_rules(root) == set()

    def test_fold_first_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path,
            "bad",
            """
            self.buffer.ingest(batch)
            if self.journal is not None:
                self.journal.record(batch)
            """,
        )
        assert fired_rules(root) == {"A104"}

    def test_fold_only_restore_is_out_of_scope(self, tmp_path):
        root = self.build(
            tmp_path,
            "restore",
            """
            for item in batch:
                self.buffer.ingest(item)
            """,
        )
        assert fired_rules(root) == set()


class TestSnapshotCoverage:
    def test_uncovered_field_names_both_halves(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/service/ingest.py": """
                    class ShardState:
                        def __init__(self, key):
                            self.key = key
                            self.extra = 0
                            self._private = 0
                """,
                "repro/service/persist.py": """
                    def shard_to_dict(shard):
                        return {"key": shard.key}

                    def shard_from_dict(data):
                        key = data["key"]
                        return key
                """,
            },
        )
        findings = [f for f in lint_paths([root], root=root)]
        assert {f.rule for f in findings} == {"A105"}
        assert len(findings) == 1
        assert "ShardState.extra" in findings[0].message
        assert "shard_to_dict" in findings[0].message
        assert "shard_from_dict" in findings[0].message
        # The finding anchors at the field's own definition line.
        assert findings[0].location.endswith("ingest.py")


class TestTypedWireErrors:
    def test_builtin_unregistered_and_unstamped(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/errors.py": """
                    class ReproError(Exception):
                        pass

                    class ServiceError(ReproError):
                        pass

                    class TransportError(ServiceError):
                        pass

                    class PlanError(ReproError):
                        pass
                """,
                "repro/service/http.py": """
                    WIRE_SCHEMA_VERSION = 1

                    _WIRE_ERRORS = {
                        cls.__name__: cls
                        for cls in (ServiceError, TransportError)
                    }

                    def handler(writer, method):
                        if method == "bad":
                            raise ValueError("nope")
                        if method == "unregistered":
                            raise PlanError("x")
                        writer.write({"schema_version": WIRE_SCHEMA_VERSION})

                    def unstamped(writer):
                        writer.write(b"x")

                    def registry_derived(writer, name):
                        cls = _WIRE_ERRORS.get(name, ServiceError)
                        raise cls("ok")
                """,
            },
        )
        findings = [f for f in lint_paths([root], root=root)]
        assert {f.rule for f in findings} == {"A106"}
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "builtin ValueError" in messages
        assert "PlanError" in messages
        assert "unstamped() writes to the wire" in messages


class TestCatalog:
    def test_service_rule_ids(self):
        assert set(SERVICE_RULES) == {
            "A101", "A102", "A103", "A104", "A105", "A106",
        }

    def test_suppressing_wrong_rule_does_not_silence(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/service/mini.py": """
                    import time

                    async def wrong():
                        time.sleep(0.1)  # staticcheck: disable=A102
                """,
            },
        )
        assert fired_rules(root) == {"A101"}
