"""Per-shard ingest journal: the router's durable record of every batch.

The fleet router (:mod:`repro.service.fleet`) appends every accepted
:class:`~repro.service.ingest.SampleBatch` here *before* handing it to
a worker process.  The journal is therefore the source of truth for
each shard's stream: per shard it holds the exact batches in exact
arrival order, which makes three fleet operations correct by
construction:

* **crash recovery** — a replacement worker replays the journal and
  reconstructs the dead worker's shard state fold-for-fold (the ingest
  fold is deterministic, so replay converges to identical plans);
* **rebalancing** — a shard moving to a new owner is brought up by
  replaying its journal prefix into that worker;
* **replica healing** — a replica that shed a batch under pressure is
  caught up from the index it last confirmed.

An optional JSONL mirror (``path=``) writes one self-describing line
per batch — the chaos-run artifact CI uploads — and
:func:`read_journal` loads a mirror back into an in-memory journal
(typed :class:`~repro.errors.JournalError` on malformed input), so a
router restart can resume from disk.

Durability semantics of the mirror:

* every ``record()`` flushes the line to the OS before returning, so a
  crashed *process* loses at most the record being appended at the
  instant of death;
* ``fsync=True`` additionally forces each line to stable storage, so a
  crashed *machine* has the same guarantee (slower; opt-in);
* a crash mid-append leaves a **torn tail** — a final line without its
  trailing newline.  Each record is emitted as a single ``write()`` of
  ``json.dumps(...) + "\\n"``, so the torn line is always the *last*
  one and is never a complete record.  :func:`read_journal` and
  ``resume=True`` skip it (surfaced via ``stats()["torn_records"]``);
  anything malformed *before* the final line is genuine corruption and
  still raises.

Batch samples are written and read with the ingest layer's sample
codec (:func:`~repro.service.ingest.encode_samples` and
:func:`~repro.service.ingest.decode_samples`), whose value checks make a
damaged sample in a complete line a :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import JournalError
from .ingest import SampleBatch, ShardKey, decode_samples, encode_samples

# Journal-line schema version (independent of the profile/plan schema).
JOURNAL_SCHEMA_VERSION = 1


def _batch_to_record(batch: SampleBatch, index: int) -> Dict:
    return {
        "v": JOURNAL_SCHEMA_VERSION,
        "schema_version": JOURNAL_SCHEMA_VERSION,
        "event": "ingest",
        "app": batch.app_name,
        "input": batch.input_label,
        "index": index,
        "seq": batch.seq,
        "samples": encode_samples(batch.samples),
    }


def _record_to_batch(record: Dict) -> Tuple[SampleBatch, int]:
    version = record.get("schema_version", record.get("v"))
    if version is None:
        raise JournalError(
            "journal record carries no schema_version field; refusing to "
            "guess its layout"
        )
    if version != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"unsupported journal schema version {version!r}; this build "
            f"reads version {JOURNAL_SCHEMA_VERSION}"
        )
    try:
        batch = SampleBatch(
            app_name=record["app"],
            input_label=record["input"],
            samples=decode_samples(record["samples"], JournalError),
            seq=record.get("seq", 0),
        )
        return batch, record["index"]
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed journal record: {exc}") from exc


def _load_mirror(path: str) -> Tuple[List[SampleBatch], List[Dict], int, int]:
    """Parse a JSONL mirror into batches, tolerating a torn final line.

    Returns ``(batches, events, valid_bytes, torn_records)`` where
    *batches* is the valid ingest prefix in file order, *events* the
    non-ingest audit records (e.g. ``"canary"`` verdicts) interleaved
    with it, *valid_bytes* is the byte length of the valid prefix (so
    ``resume`` can truncate the torn tail before re-appending), and
    *torn_records* counts the skipped tail (0 or 1).

    The torn-tail rule: each record is appended as one ``write()`` of a
    newline-terminated line, so a crash mid-append can only produce a
    final line with no trailing newline.  Such a line that fails to
    parse is skipped; an unparsable line that *does* end in a newline —
    anywhere in the file — was written whole and is real corruption.
    """
    if not os.path.isfile(path):
        raise JournalError(f"no journal mirror at {path!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal mirror {path!r}: {exc}") from exc

    counts: Dict[ShardKey, int] = {}
    batches: List[SampleBatch] = []
    events: List[Dict] = []
    valid_bytes = 0
    torn_records = 0
    offset = 0
    lineno = 0
    for raw_line in raw.splitlines(keepends=True):
        lineno += 1
        line_start = offset
        offset += len(raw_line)
        terminated = raw_line.endswith(b"\n")
        line = raw_line.decode("utf-8", errors="replace").strip()
        if not line:
            valid_bytes = offset
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if not terminated and offset == len(raw):
                # Torn tail: the crash artifact, not corruption.
                torn_records = 1
                valid_bytes = line_start
                break
            raise JournalError(
                f"journal mirror {path!r} line {lineno}: invalid JSON "
                f"({exc})"
            ) from exc
        if record.get("event", "ingest") != "ingest":
            # Audit records (canary verdicts, ...) interleave with the
            # ingest stream but carry no per-shard index; they are kept
            # verbatim for lineage inspection and never replayed.
            events.append(record)
            valid_bytes = offset
            continue
        batch, index = _record_to_batch(record)
        expected = counts.get(batch.key, 0)
        if index != expected:
            raise JournalError(
                f"journal mirror {path!r} line {lineno}: shard "
                f"{batch.key} index {index} out of order "
                f"(expected {expected})"
            )
        counts[batch.key] = expected + 1
        batches.append(batch)
        valid_bytes = offset
    return batches, events, valid_bytes, torn_records


class IngestJournal:
    """Append-only per-shard batch log with an optional JSONL mirror.

    ``fsync=True`` forces every mirrored record to stable storage;
    ``resume=True`` loads an existing mirror back into memory (torn
    tail truncated) before appending, so a restarted writer continues
    the same per-shard index sequence instead of corrupting it.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        fsync: bool = False,
        resume: bool = False,
    ):
        self.path = path
        self._fsync = bool(fsync)
        self._batches: Dict[ShardKey, List[SampleBatch]] = {}
        self.events: List[Dict] = []
        self.total_batches = 0
        self.total_samples = 0
        self.torn_records = 0
        self._fh = None
        if path:
            if resume and os.path.isfile(path):
                batches, events, valid_bytes, torn = _load_mirror(path)
                for batch in batches:
                    self.record(batch)
                self.events.extend(events)
                self.torn_records = torn
                if torn:
                    try:
                        with open(path, "r+b") as fh:
                            fh.truncate(valid_bytes)
                    except OSError as exc:
                        raise JournalError(
                            f"cannot truncate torn journal tail in "
                            f"{path!r}: {exc}"
                        ) from exc
            parent = os.path.dirname(os.path.abspath(path))
            try:
                os.makedirs(parent, exist_ok=True)
                self._fh = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise JournalError(
                    f"cannot open journal mirror {path!r}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    def record(self, batch: SampleBatch) -> int:
        """Append one batch; returns its per-shard journal index."""
        entries = self._batches.setdefault(batch.key, [])
        index = len(entries)
        entries.append(batch)
        self.total_batches += 1
        self.total_samples += len(batch.samples)
        if self._fh is not None:
            # One write per record: a crash can only tear the final
            # line, which the readers above know how to skip.
            self._fh.write(json.dumps(_batch_to_record(batch, index)) + "\n")
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        return index

    def record_event(self, kind: str, **fields) -> Dict:
        """Append one non-ingest audit record (e.g. a canary verdict).

        Event records share the WAL's durability semantics (single
        write + flush [+ fsync]) but are never replayed into shard
        state — they are the on-disk lineage audit the drift tests read
        back after a crash.
        """
        if kind == "ingest":
            raise JournalError(
                "record_event() cannot write 'ingest' records; "
                "use record()"
            )
        record = {
            "v": JOURNAL_SCHEMA_VERSION,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "event": kind,
        }
        record.update(fields)
        self.events.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
        return record

    def count(self, key: ShardKey) -> int:
        """Batches journaled so far for *key*."""
        return len(self._batches.get(key, ()))

    def entries(self, key: ShardKey) -> Tuple[SampleBatch, ...]:
        """The full journaled stream for *key*, in arrival order."""
        return tuple(self._batches.get(key, ()))

    def replay(self, key: ShardKey, start: int = 0) -> Iterator[SampleBatch]:
        """Iterate *key*'s batches from journal index *start* onward."""
        if start < 0:
            raise JournalError(f"replay start must be >= 0, got {start}")
        entries = self._batches.get(key, [])
        yield from entries[start:]

    def keys(self) -> List[ShardKey]:
        """All journaled shards, in first-contact order."""
        return list(self._batches)

    def stats(self) -> Dict:
        """JSON-friendly accounting snapshot."""
        return {
            "keys": len(self._batches),
            "batches": self.total_batches,
            "samples": self.total_samples,
            "events": len(self.events),
            "torn_records": self.torn_records,
        }

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def read_journal(path: str) -> IngestJournal:
    """Load a JSONL journal mirror back into memory (restart recovery).

    Records are re-appended in file order, which per shard *is* arrival
    order; the per-shard ``index`` fields must come back contiguous or
    the mirror is corrupt (:class:`~repro.errors.JournalError`).  A torn
    final line — the expected artifact of a crash mid-append — is
    skipped and surfaced as ``stats()["torn_records"]``.
    """
    batches, events, _valid_bytes, torn = _load_mirror(path)
    journal = IngestJournal()
    for batch in batches:
        journal.record(batch)
    journal.events.extend(events)
    journal.torn_records = torn
    return journal
