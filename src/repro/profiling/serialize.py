"""Profile and plan serialization.

Production workflows collect profiles on one fleet and build plans in
an offline pipeline, so both artifacts need a stable on-disk format.
Plain JSON keeps the artifacts inspectable; block indices and PCs are
ints, windows are nested lists.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import fields as dataclass_fields
from typing import IO, Union

from ..core.plan import InjectionOp, PrefetchPlan
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


def check_schema_version(data: dict, kind: str, err_cls, expected=None) -> None:
    """Validate the artifact version fields of a serialized *kind*.

    Current-format files carry ``schema_version`` (new) or only
    ``format`` (written before the field existed); both load.  Anything
    else — a missing version or a version this build does not speak —
    raises *err_cls* with an actionable message.  *expected* defaults to
    the profiling-artifact :data:`SCHEMA_VERSION`; other artifact
    families (e.g. the service snapshot) pass their own.
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


# Backwards-compatible name for in-package callers.
_check_schema_version = check_schema_version


def write_json(data, fh: IO[str]) -> None:
    """Write exactly the text of ``json.dumps(data)`` to *fh*.

    ``json.dump`` always runs CPython's pure-Python encoder, about 5x
    slower than ``json.dumps`` for the same bytes.  Encoding each
    top-level value of a dict, and each element of a top-level list,
    with ``json.dumps`` keeps the C encoder while only one piece (one
    shard or plan of a service snapshot) is held in memory at a time.
    """
    if not isinstance(data, dict) or not all(isinstance(k, str) for k in data):
        fh.write(json.dumps(data))
        return
    sep = "{"
    for key, value in data.items():
        fh.write(f"{sep}{json.dumps(key)}: ")
        if isinstance(value, list) and value:
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
    if data.get("kind") != "miss_profile":
        raise ProfileError("not a serialized miss profile")
    _check_schema_version(data, "miss profile", ProfileError)
    profile = MissProfile(
        app_name=data.get("app_name", ""), input_label=data.get("input_label", "")
    )
    samples = data.get("samples")
    if samples is None:
        raise ProfileError("serialized miss profile has no 'samples' field")
    for s in samples:
        window = tuple((int(b), float(lead)) for b, lead in s["window"])
        profile.add_sample(int(s["miss_pc"]), int(s["miss_block"]), window)
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
            return profile_from_dict(json.load(f))
    return profile_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# PrefetchPlan
# ----------------------------------------------------------------------

def plan_to_dict(plan: PrefetchPlan) -> dict:
    """JSON-ready representation of a prefetch plan."""
    return {
        "format": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "kind": "prefetch_plan",
        "app_name": plan.app_name,
        "misses_targeted": plan.misses_targeted,
        "misses_with_site": plan.misses_with_site,
        "table": [list(e) for e in plan.table],
        "ops": [
            {
                "kind": op.kind,
                "block": op.block,
                "entries": [list(e) for e in op.entries],
                "bytes_cost": op.bytes_cost,
            }
            for ops in plan.ops_by_block.values()
            for op in ops
        ],
    }


def plan_from_dict(data: dict) -> PrefetchPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    if data.get("kind") != "prefetch_plan":
        raise PlanError("not a serialized prefetch plan")
    _check_schema_version(data, "prefetch plan", PlanError)
    plan = PrefetchPlan(
        app_name=data.get("app_name", ""),
        table=tuple(tuple(e) for e in data.get("table", [])),
        misses_targeted=int(data.get("misses_targeted", 0)),
        misses_with_site=int(data.get("misses_with_site", 0)),
    )
    ops = data.get("ops")
    if ops is None:
        raise PlanError("serialized prefetch plan has no 'ops' field")
    for op in ops:
        plan.add_op(
            InjectionOp(
                kind=op["kind"],
                block=int(op["block"]),
                entries=tuple(tuple(e) for e in op["entries"]),
                bytes_cost=int(op["bytes_cost"]),
            )
        )
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
            return plan_from_dict(json.load(f))
    return plan_from_dict(json.load(fh))


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
    _check_schema_version(data, "sim result", CacheError)
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
