"""Profile, plan and sim-result serialization.

Production workflows collect profiles on one fleet and build plans in
an offline pipeline, so both artifacts need a stable on-disk format.
Plain JSON keeps the artifacts inspectable; block indices and PCs are
ints.

Each artifact family carries its own schema version:

* profiles and sim results: :data:`SCHEMA_VERSION` (1), so result-cache
  keys never moved; a profile sample's window is a nested list of
  ``[block, lead]`` pairs;
* plans: :data:`PLAN_SCHEMA_VERSION` (2), laid out in int columns so
  that decoding a plan builds no container per row::

    "table":   [pc, target, kind, pc, target, kind, ...]   3 ints per row
    "ops":     {"kind": [...], "block": [...],             equal-length
                "bytes_cost": [...], "entry_count": [...]} int columns
    "entries": [pc, target, kind, ...]                     3 ints per row

  ``ops.kind`` holds :data:`OP_CODES` codes, and op *i* owns the next
  ``entry_count[i]`` rows of ``entries``;
* the plan service's snapshots and wire payloads nest plan versions, a
  plan plus its diff written as flat ``[block, pc, ...]`` pairs
  (``repro.service.persist``), and carry their own versions, both 2
  since plans went columnar.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import fields as dataclass_fields
from itertools import accumulate, chain
from typing import IO, Union

from ..core.plan import OP_COALESCE, OP_PREFETCH, InjectionOp, PrefetchPlan
from ..errors import CacheError, ProfileError, PlanError
from ..uarch.results import SimResult
from .profile import MissProfile

FORMAT_VERSION = 1
# Artifact schema version.  Writers stamp every artifact with
# ``schema_version`` (and keep the historical ``format`` field so older
# readers still work); readers accept either field and fail with a
# clear, typed error — never a KeyError — on unknown or missing
# versions.
SCHEMA_VERSION = FORMAT_VERSION
# Plans moved to the columnar layout in version 2; profiles and sim
# results (and so every result-cache key) stay at version 1.
PLAN_SCHEMA_VERSION = 2

# Op kind <-> the int code in a serialized plan's ``ops.kind`` column.
OP_CODES = {OP_PREFETCH: 0, OP_COALESCE: 1}
_OP_KINDS = {code: kind for kind, code in OP_CODES.items()}


def check_schema_version(data: dict, kind: str, err_cls, expected=None) -> None:
    """Validate the artifact version fields of a serialized *kind*.

    Current-format files carry ``schema_version`` (new) or only
    ``format`` (written before the field existed); both load.  Anything
    else — a missing version or a version this build does not speak —
    raises *err_cls* with an actionable message.  *expected* defaults to
    the profiling-artifact :data:`SCHEMA_VERSION`; other artifact
    families (plans, the service snapshot) pass their own.
    """
    if expected is None:
        expected = SCHEMA_VERSION
    version = data.get("schema_version", data.get("format"))
    if version is None:
        raise err_cls(
            f"serialized {kind} carries no schema_version/format field; "
            "refusing to guess its layout"
        )
    if version != expected:
        raise err_cls(
            f"unsupported {kind} schema version {version!r}; "
            f"this build reads version {expected}"
        )


def flat_rows(rows) -> list:
    """Concatenate equal-width int rows into one flat column."""
    return list(chain.from_iterable(rows))


def int_column(values, what: str, err_cls) -> list:
    """*values* if it is a list of ints (bools refused), else *err_cls*."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise err_cls(f"{what} must be a list of ints")
    return values


def int_rows(values, width: int, what: str, err_cls) -> tuple:
    """Cut a flat int column back into *width*-int tuples."""
    int_column(values, what, err_cls)
    if len(values) % width:
        raise err_cls(
            f"{what} holds {len(values)} ints, not a multiple of {width}"
        )
    it = iter(values)
    return tuple(zip(*[it] * width))


def _read_json(fh: IO[str], what: str, err_cls):
    """``json.load(fh)``, raising *err_cls* (cause chained) for a file
    that is not JSON text."""
    try:
        return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise err_cls(f"{what} is not valid JSON: {exc}") from exc


def write_json(data, fh: IO[str]) -> None:
    """Write exactly the text of ``json.dumps(data)`` to *fh*.

    ``json.dump`` always runs CPython's pure-Python encoder, about 5x
    slower than ``json.dumps`` for the same bytes.  Encoding each
    top-level value of a dict with ``json.dumps`` keeps the C encoder.
    A top-level list of containers (a snapshot's shards or plans) is
    written one element at a time, so only one piece is held in memory
    at once; a flat list of scalars (a plan's columns) is encoded
    whole, since splitting it costs a call per int.
    """
    if not isinstance(data, dict) or not all(isinstance(k, str) for k in data):
        fh.write(json.dumps(data))
        return
    sep = "{"
    for key, value in data.items():
        fh.write(f"{sep}{json.dumps(key)}: ")
        if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            item_sep = "["
            for item in value:
                fh.write(item_sep)
                fh.write(json.dumps(item))
                item_sep = ", "
            fh.write("]")
        else:
            fh.write(json.dumps(value))
        sep = ", "
    fh.write("}" if data else "{}")


def write_json_atomic(data, path: str) -> None:
    """Write :func:`write_json` output to *path*, never exposing a torn file.

    The bytes go to a temp sibling named for this process and thread,
    so pool workers or executor threads writing the same path at once
    never share one, and are renamed into place with :func:`os.replace`
    (atomic on POSIX and Windows): a crash mid-write leaves the previous
    file intact.  Errors propagate; callers wrap them in their own
    :class:`~repro.errors.ReproError` type.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(
        directory, f".tmp-{name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_json(data, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# MissProfile
# ----------------------------------------------------------------------

def profile_to_dict(profile: MissProfile) -> dict:
    """JSON-ready representation of *profile*."""
    return {
        "format": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "kind": "miss_profile",
        "app_name": profile.app_name,
        "input_label": profile.input_label,
        "samples": [
            {
                "miss_pc": s.miss_pc,
                "miss_block": s.miss_block,
                "window": [[b, lead] for b, lead in s.window],
            }
            for pc in profile.miss_pcs()
            for s in profile.samples_for(pc)
        ],
    }


def profile_from_dict(data: dict) -> MissProfile:
    """Rebuild a profile from :func:`profile_to_dict` output."""
    if not isinstance(data, dict) or data.get("kind") != "miss_profile":
        raise ProfileError("not a serialized miss profile")
    check_schema_version(data, "miss profile", ProfileError)
    profile = MissProfile(
        app_name=data.get("app_name", ""), input_label=data.get("input_label", "")
    )
    samples = data.get("samples")
    if samples is None:
        raise ProfileError("serialized miss profile has no 'samples' field")
    if not isinstance(samples, list):
        raise ProfileError("serialized miss profile's 'samples' must be a list")
    for i, s in enumerate(samples):
        try:
            window = tuple((int(b), float(lead)) for b, lead in s["window"])
            miss_pc, miss_block = int(s["miss_pc"]), int(s["miss_block"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(
                f"malformed miss profile sample {i}: {exc!r}"
            ) from exc
        profile.add_sample(miss_pc, miss_block, window)
    profile.validate()
    return profile


def save_profile(profile: MissProfile, fh: Union[str, IO]) -> None:
    """Write *profile* as JSON to a path or file object.

    Path writes are atomic (tmp sibling + ``os.replace``): interrupting
    the dump never clobbers an existing profile on disk.
    """
    if isinstance(fh, str):
        write_json_atomic(profile_to_dict(profile), fh)
    else:
        write_json(profile_to_dict(profile), fh)


def load_profile(fh: Union[str, IO]) -> MissProfile:
    """Read a profile written by :func:`save_profile`."""
    if isinstance(fh, str):
        with open(fh) as f:
            return profile_from_dict(_read_json(f, "miss profile", ProfileError))
    return profile_from_dict(_read_json(fh, "miss profile", ProfileError))


# ----------------------------------------------------------------------
# PrefetchPlan
# ----------------------------------------------------------------------

def plan_to_dict(plan: PrefetchPlan) -> dict:
    """JSON-ready, columnar representation of a prefetch plan."""
    ops = [op for block_ops in plan.ops_by_block.values() for op in block_ops]
    return {
        "format": PLAN_SCHEMA_VERSION,
        "schema_version": PLAN_SCHEMA_VERSION,
        "kind": "prefetch_plan",
        "app_name": plan.app_name,
        "misses_targeted": plan.misses_targeted,
        "misses_with_site": plan.misses_with_site,
        "table": flat_rows(plan.table),
        "ops": {
            "kind": [OP_CODES[op.kind] for op in ops],
            "block": [op.block for op in ops],
            "bytes_cost": [op.bytes_cost for op in ops],
            "entry_count": [len(op.entries) for op in ops],
        },
        "entries": flat_rows(row for op in ops for row in op.entries),
    }


def plan_from_dict(data: dict) -> PrefetchPlan:
    """Rebuild a plan from :func:`plan_to_dict` output.

    Each column is checked in bulk before any op is built, and every op
    still goes through :class:`InjectionOp` (kind, entry-count checks)
    and :meth:`PrefetchPlan.add_op`.
    """
    if not isinstance(data, dict) or data.get("kind") != "prefetch_plan":
        raise PlanError("not a serialized prefetch plan")
    check_schema_version(
        data, "prefetch plan", PlanError, expected=PLAN_SCHEMA_VERSION
    )
    ops = data.get("ops")
    if ops is None:
        raise PlanError("serialized prefetch plan has no 'ops' field")
    if not isinstance(ops, dict):
        raise PlanError("serialized prefetch plan's 'ops' must be an object")
    kinds, blocks, costs, counts = (
        int_column(ops.get(name), f"plan column ops.{name}", PlanError)
        for name in ("kind", "block", "bytes_cost", "entry_count")
    )
    if not len(kinds) == len(blocks) == len(costs) == len(counts):
        raise PlanError("serialized prefetch plan's op columns differ in length")
    entries = int_rows(data.get("entries"), 3, "plan column entries", PlanError)
    if min(counts, default=0) < 0 or sum(counts) != len(entries):
        raise PlanError(
            "serialized prefetch plan's entry counts do not split its "
            f"{len(entries)} entries"
        )
    targeted, with_site = int_column(
        [data.get("misses_targeted", 0), data.get("misses_with_site", 0)],
        "plan counters misses_targeted, misses_with_site",
        PlanError,
    )
    plan = PrefetchPlan(
        app_name=data.get("app_name", ""),
        table=int_rows(data.get("table"), 3, "plan column table", PlanError),
        misses_targeted=targeted,
        misses_with_site=with_site,
    )
    # An unknown kind code passes through for InjectionOp to reject, and
    # so does the empty slice of a zero count.
    add = plan.add_op
    start = 0
    for kind, block, cost, end in zip(
        map(_OP_KINDS.get, kinds, kinds), blocks, costs, accumulate(counts)
    ):
        add(InjectionOp(kind, block, entries[start:end], cost))
        start = end
    return plan


def save_plan(plan: PrefetchPlan, fh: Union[str, IO]) -> None:
    """Write *plan* as JSON to a path or file object.

    Path writes are atomic (tmp sibling + ``os.replace``): interrupting
    the dump never clobbers an existing plan on disk.
    """
    if isinstance(fh, str):
        write_json_atomic(plan_to_dict(plan), fh)
    else:
        write_json(plan_to_dict(plan), fh)


def load_plan(fh: Union[str, IO]) -> PrefetchPlan:
    """Read a plan written by :func:`save_plan`."""
    if isinstance(fh, str):
        with open(fh) as f:
            return plan_from_dict(_read_json(f, "prefetch plan", PlanError))
    return plan_from_dict(_read_json(fh, "prefetch plan", PlanError))


# ----------------------------------------------------------------------
# SimResult
# ----------------------------------------------------------------------

# Counter fields are enumerated from the dataclass itself so a new
# SimResult counter is serialized without touching this module.
_RESULT_FIELDS = tuple(f.name for f in dataclass_fields(SimResult))
_RESULT_DICT_FIELDS = ("btb_accesses_by_kind", "btb_misses_by_kind")


def result_to_dict(result: SimResult) -> dict:
    """JSON-ready representation of a simulation result."""
    data = {
        "format": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "kind": "sim_result",
    }
    for name in _RESULT_FIELDS:
        value = getattr(result, name)
        data[name] = dict(value) if name in _RESULT_DICT_FIELDS else value
    return data


def result_from_dict(data: dict) -> SimResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    if not isinstance(data, dict) or data.get("kind") != "sim_result":
        raise CacheError("not a serialized sim result")
    check_schema_version(data, "sim result", CacheError)
    kwargs = {}
    try:
        for name in _RESULT_FIELDS:
            value = data[name]
            if name in _RESULT_DICT_FIELDS:
                value = {str(k): int(v) for k, v in value.items()}
            elif name != "label":
                value = int(value)
            kwargs[name] = value
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CacheError(f"malformed sim result payload: {exc}") from exc
    return SimResult(**kwargs)
