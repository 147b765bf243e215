"""Timing shim: wrap layer entry points, write one span line per call.

The shim is the benchmark's only tracing.  It never edits the program:
:class:`Shim` replaces a function *where its caller looks it up* (for
example ``repro.experiments.runner.build_workload``, not
``repro.workloads.cfg.build_workload``), and :meth:`Shim.remove` puts
the original object back exactly.

Each wrapped call appends one JSON line to ``spans-<pid>.jsonl`` in the
span directory::

    {"name": "uarch.run", "id": "4711:12", "parent": "4711:3",
     "pid": 4711, "start": 12.5, "end": 13.25, "units": 30000}

* Parents come from a :class:`~contextvars.ContextVar`, so spans nest
  correctly across asyncio tasks (each task copies its context) and
  across executor threads (the shim makes ``run_in_executor`` carry
  the caller's context, as :func:`asyncio.to_thread` does).
* A forked child starts with no current span and reopens its own file,
  so pool workers inherit the shim and keep their spans.
* Lines are written whole, as the call returns: a process killed with
  SIGKILL loses only the spans still open.

:func:`self_times` turns a span list into per-span self time: the span's
duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..clock import now

# The span id of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_bench_span", default=None
)

FieldFn = Callable[..., Dict[str, object]]


@dataclass(frozen=True)
class Patch:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.
    ``before(*args, **kwargs)`` and ``after(result)`` return extra
    fields for the span line; ``before`` runs ahead of the call
    because some facts (such as whether a simulator will take its serial
    loop) change once the call has run.
    """

    target: str
    span: str
    before: Optional[FieldFn] = None
    after: Optional[FieldFn] = None


class SpanWriter:
    """Appends span lines to one file per process under *directory*."""

    def __init__(self, directory: str):
        self.directory = directory
        self._pid: Optional[int] = None
        self._fd: Optional[int] = None
        self._seq = 0

    def new_id(self) -> str:
        self._reopen_if_forked()
        self._seq += 1
        return f"{self._pid}:{self._seq}"

    def write(self, record: Dict) -> None:
        self._reopen_if_forked()
        os.write(self._fd, (json.dumps(record) + "\n").encode("utf-8"))

    def _reopen_if_forked(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # A forked child inherits the parent's descriptor; it must not
        # write there, so it opens its own file (and leaves the
        # inherited descriptor to the parent).
        path = os.path.join(self.directory, f"spans-{pid}.jsonl")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._pid = pid
        self._seq = 0

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._fd = None
        self._pid = None


def _clear_current_in_child() -> None:
    _CURRENT.set(None)


_FORK_HOOK_REGISTERED = False


def _resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _record(writer: SpanWriter, name: str, sid: str, parent, start: float,
            fields: Dict, error: Optional[BaseException]) -> None:
    record = {
        "name": name,
        "id": sid,
        "parent": parent,
        "pid": os.getpid(),
        "start": start,
        "end": now(),
    }
    record.update(fields)
    if error is not None:
        record["error"] = type(error).__name__
    writer.write(record)


def _wrap(fn: Callable, patch: Patch, writer: SpanWriter) -> Callable:
    name = patch.span
    before = patch.before
    after = patch.after

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            fields = dict(before(*args, **kwargs)) if before else {}
            sid = writer.new_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = now()
            try:
                result = await fn(*args, **kwargs)
            except BaseException as exc:
                _CURRENT.reset(token)
                _record(writer, name, sid, parent, start, fields, exc)
                raise
            _CURRENT.reset(token)
            if after:
                fields.update(after(result))
            _record(writer, name, sid, parent, start, fields, None)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fields = dict(before(*args, **kwargs)) if before else {}
        sid = writer.new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = now()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            _CURRENT.reset(token)
            _record(writer, name, sid, parent, start, fields, exc)
            raise
        _CURRENT.reset(token)
        if after:
            fields.update(after(result))
        _record(writer, name, sid, parent, start, fields, None)
        return result

    return wrapper


def _run_in_executor_with_context(original: Callable) -> Callable:
    """``run_in_executor`` that runs *func* in the caller's context."""

    @functools.wraps(original)
    def run_in_executor(self, executor, func, *args):
        ctx = contextvars.copy_context()
        return original(self, executor, ctx.run, func, *args)

    return run_in_executor


class Shim:
    """Installs a set of :class:`Patch` wrappers; removes them exactly."""

    def __init__(self, patches: Iterable[Patch], directory: str):
        self.patches = tuple(patches)
        self.writer = SpanWriter(directory)
        # (owner, attr, original value, whether the owner itself held it)
        self._saved: List[Tuple[object, str, object, bool]] = []

    def install(self) -> "Shim":
        global _FORK_HOOK_REGISTERED
        if self._saved:
            raise RuntimeError("shim already installed")
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_clear_current_in_child)
            _FORK_HOOK_REGISTERED = True
        for patch in self.patches:
            owner, attr = _resolve(patch.target)
            self._save(owner, attr)
            setattr(owner, attr, _wrap(getattr(owner, attr), patch, self.writer))
        # Only a program that runs an event loop needs its executor
        # threads to inherit span context; others skip the asyncio import.
        if "asyncio" in sys.modules:
            loop_cls = sys.modules["asyncio"].base_events.BaseEventLoop
            self._save(loop_cls, "run_in_executor")
            loop_cls.run_in_executor = _run_in_executor_with_context(
                loop_cls.run_in_executor
            )
        return self

    def record(self, name: str, start: float, end: float) -> None:
        """Write a root span the shim could not wrap (e.g. process start)."""
        self.writer.write({
            "name": name, "id": self.writer.new_id(), "parent": None,
            "pid": os.getpid(), "start": start, "end": end,
        })

    def _save(self, owner: object, attr: str) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))

    def remove(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []
        self.writer.close()

    def __enter__(self) -> "Shim":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.remove()


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------

def read_spans(directory: str, tag: str = "") -> List[Dict]:
    """Every span line under *directory*, in file then line order.

    *tag* prefixes span ids, so spans read from several directories (one
    per traced process tree) merge without id clashes.
    """
    spans: List[Dict] = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            for line in fh:
                # A process killed mid-write leaves at most one torn
                # final line; every complete line is a whole span.
                if line.endswith("\n"):
                    span = json.loads(line)
                    span["id"] = tag + span["id"]
                    if span["parent"] is not None:
                        span["parent"] = tag + span["parent"]
                    spans.append(span)
    return spans


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> self time (duration minus the time its children cover).

    Children may run concurrently (executor threads, asyncio tasks), so
    their coverage is the union of their intervals, not the sum.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _covered(children.get(span["id"], []), start, end)
        out[span["id"]] = max(0.0, (end - start) - covered)
    return out
