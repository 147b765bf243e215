"""Layer-3 machinery: cross-module analysis of the plan service.

The per-module lint (layer 2) sees one file at a time; the service's
core invariants — no blocking work on the event loop, WAL-before-fold
ordering, lock ownership of shared shard state, snapshot field
coverage, typed errors on the wire — all span files.  This module
builds the shared :class:`ServiceIndex` those rules run against:

* a class/function index over ``repro/service/`` and ``repro/drift/``
  (plus ``experiments/parallel.py``, and ``profiling/serialize.py``,
  whose ``write_json_atomic`` is how ``SnapshotStore.write`` opens and
  writes a snapshot: without it that chain is unresolved, so a snapshot
  write on the event loop would pass A101), including nested defs;
* attribute and local type resolution (annotations like
  ``self.journal: Optional[IngestJournal]``, constructor assignments,
  parameter annotations) good enough to resolve ``self.attr.method()``
  calls across modules;
* a transitive *blocks-the-event-loop* summary computed by fixpoint
  over the resolved call graph, seeded from primitive blocking calls
  (``time.sleep``, ``open``, ``os.fsync``, ``subprocess.*``,
  pipe/socket ``send``/``recv``, file-handle ``write``/``flush``,
  ``Future.result()`` on executor futures);
* a lock-held-caller fixpoint so private helpers whose every call site
  holds the owning lock are not false A103 positives;
* an intra-function statement CFG (same spirit as the dominance
  machinery in ``plan_checks.py``) used by A104 to prove every fold
  site is dominated by a journal record on journal-present paths.

Resolution is deliberately conservative: a call the index cannot
resolve is assumed non-blocking/non-async rather than guessed at, so
every finding names a chain the analyzer actually proved.

Rule catalog (all severity ERROR)::

    A101  no-blocking-in-async   blocking call reachable on the loop
    A102  unawaited-coroutine    async call result silently dropped
    A103  lock-discipline        GUARDED_BY attr mutated without lock
    A104  journal-before-fold    fold not dominated by a WAL record
    A105  snapshot-coverage      state field missing from persist.py
    A106  typed-wire-errors      unregistered/unstamped wire payload
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import ParsedModule
from .findings import Finding, Severity
from .rules import ProjectRule, register_project

SERVICE_RULES: Dict[str, str] = {
    "A101": "no-blocking-in-async",
    "A102": "unawaited-coroutine",
    "A103": "lock-discipline",
    "A104": "journal-before-fold",
    "A105": "snapshot-coverage",
    "A106": "typed-wire-errors",
}

_SERVICE_DIR = "repro/service/"
# The drift engine is service-adjacent: its canary controller owns the
# serving-truth active version and its state rides in the service
# snapshot, so the same loop/lock/persistence rules apply.
_DRIFT_DIR = "repro/drift/"
_EXTRA_SCOPE_SUFFIXES = (
    "repro/experiments/parallel.py",
    "repro/profiling/serialize.py",
)
_ERRORS_SUFFIX = "repro/errors.py"

# Lock-ownership map for A103.  Key: (module suffix, class name);
# value: guarded attribute -> owning lock.  A plain name means a
# ``with self.<lock>`` attribute lock; a trailing ``[]`` means a
# per-key lock dict (``async with self.<lock>[key]``-style, via a
# local bound from the dict).  ``__init__`` is exempt (no concurrency
# before construction completes).
GUARDED_BY: Dict[Tuple[str, str], Dict[str, str]] = {
    ("repro/service/fleet.py", "FleetRouter"): {
        "_handles": "_lock",
        "_delivered": "_lock",
    },
    ("repro/service/server.py", "PlanService"): {
        "_last_build_error": "_build_locks[]",
    },
}

# A105 exemptions: fields deliberately rebuilt from the restoring
# process's own verified configuration instead of the snapshot payload
# (apply_snapshot's config-equality gate is what makes this safe).
DERIVED_PERSIST_FIELDS: Dict[str, Set[str]] = {
    "ShardState": {"seed"},
}

# A105 subject -> (owning module suffix, to_dict fn, from_dict fn).
PERSIST_PAIRS: Dict[str, Tuple[str, str]] = {
    "ShardState": ("shard_to_dict", "shard_from_dict"),
    "PlanVersion": ("plan_version_to_dict", "plan_version_from_dict"),
    "IngestBuffer": ("capture_snapshot", "apply_snapshot"),
    "CanaryState": ("canary_state_to_dict", "canary_state_from_dict"),
}
_PERSIST_SUFFIX = "repro/service/persist.py"
_HTTP_SUFFIX = "repro/service/http.py"

_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("os", "fsync"),
    ("socket", "socket"),
    ("socket", "create_connection"),
}
_PIPE_METHODS = {"send", "sendall", "recv", "recv_bytes", "accept", "connect"}
_FILE_METHODS = {"write", "flush", "read", "readline", "readlines", "truncate"}
_MUTATING_METHODS = {
    "clear", "pop", "popitem", "update", "setdefault",
    "append", "extend", "insert", "remove", "discard", "add",
}
_RECORD_METHODS = {"record", "append"}
_FOLD_METHODS = {"ingest", "absorb"}
_JOURNAL_CLASSES = {"IngestJournal"}
_FOLD_CLASSES = {"IngestBuffer", "ShardState"}

_BUILTIN_EXCEPTIONS = {
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
}


def _norm(relpath: str) -> str:
    return relpath.replace("\\", "/")


def in_service_scope(relpath: str) -> bool:
    """True for files the layer-3 analyzer covers."""
    p = _norm(relpath)
    if _SERVICE_DIR in p or _DRIFT_DIR in p:
        return True
    return any(p.endswith(suffix) for suffix in _EXTRA_SCOPE_SUFFIXES)


def service_finding(rule: str, relpath: str, line: Optional[int], message: str) -> Finding:
    return Finding(
        rule=rule,
        name=SERVICE_RULES[rule],
        severity=Severity.ERROR,
        location=relpath,
        message=message,
        line=line,
    )


def _attr_path(node: ast.AST) -> Optional[str]:
    """Dotted path for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _attr_path(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_self_attr(node: ast.AST, attr: Optional[str] = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _ann_class(ann: Optional[ast.AST]) -> Optional[str]:
    """Class name carried by an annotation, unwrapping Optional[...]."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return _attr_path(ann)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _ann_class(ast.parse(ann.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript):
        base = _attr_path(ann.value)
        if base in ("Optional", "typing.Optional"):
            inner = ann.slice
            if isinstance(inner, ast.Index):  # pre-3.9 trees
                inner = inner.value
            return _ann_class(inner)
    return None


def _walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without entering nested defs or lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


@dataclass
class FuncInfo:
    """One function/method (nested defs included) in the service scope."""

    module: ParsedModule
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    name: str
    cls: Optional[str]
    qualname: str  # "<relpath>::Class.name" — unique analysis key
    is_async: bool

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    module: ParsedModule
    node: ast.ClassDef
    name: str
    methods: Dict[str, FuncInfo] = field(default_factory=dict)
    # self.<attr> -> candidate class names (annotation or ctor assign).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    # self.<attr> assigned from open(...) somewhere in the class.
    file_attrs: Set[str] = field(default_factory=set)
    bases: List[str] = field(default_factory=list)


@dataclass
class _FuncEnv:
    """Flow-insensitive local facts for one function body."""

    assigned: Set[str] = field(default_factory=set)
    local_types: Dict[str, str] = field(default_factory=dict)
    file_locals: Set[str] = field(default_factory=set)
    executor_futures: Set[str] = field(default_factory=set)
    # local name -> guarded-dict attr it was taken from (per-key lock).
    keylock_names: Dict[str, str] = field(default_factory=dict)
    # local name -> self attribute it aliases (plain-lock aliases).
    attr_aliases: Dict[str, str] = field(default_factory=dict)


class ServiceIndex:
    """Shared cross-module index the A1xx rules query."""

    def __init__(self, modules: Sequence[ParsedModule]):
        self.all_modules = list(modules)
        self.modules = [m for m in self.all_modules if in_service_scope(m.relpath)]
        self.errors_module = self._find_module(_ERRORS_SUFFIX)
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: List[FuncInfo] = []
        self._mod_funcs: Dict[str, Dict[str, FuncInfo]] = {}
        self._top_funcs_by_name: Dict[str, List[FuncInfo]] = {}
        self._parents: Dict[int, ast.AST] = {}
        self._envs: Dict[str, _FuncEnv] = {}
        for module in self.modules:
            self._index_module(module)
        # qualname -> human-readable reason chain for "calling this
        # sync function performs blocking IO".
        self.blocking: Dict[str, str] = {}
        self._compute_blocking()

    # ------------------------------------------------------------------
    # indexing

    def _find_module(self, suffix: str) -> Optional[ParsedModule]:
        for module in self.all_modules:
            if _norm(module.relpath).endswith(suffix):
                return module
        return None

    def module_by_suffix(self, suffix: str) -> Optional[ParsedModule]:
        return self._find_module(suffix)

    def _index_module(self, module: ParsedModule) -> None:
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        funcs: Dict[str, FuncInfo] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = self._add_func(module, node, cls=None, prefix="")
                funcs[node.name] = fi
                self._top_funcs_by_name.setdefault(node.name, []).append(fi)
                self._index_nested(module, node, cls=None, prefix=node.name)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
        self._mod_funcs[module.relpath] = funcs

    def _index_class(self, module: ParsedModule, node: ast.ClassDef) -> None:
        ci = ClassInfo(
            module=module,
            node=node,
            name=node.name,
            bases=[b for b in (_attr_path(base) for base in node.bases) if b],
        )
        # First class definition wins; service class names are unique.
        self.classes.setdefault(node.name, ci)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fi = self._add_func(module, item, cls=node.name, prefix=node.name)
            ci.methods[item.name] = fi
            self._index_nested(
                module, item, cls=node.name, prefix=f"{node.name}.{item.name}"
            )
            self._harvest_attr_facts(ci, item)

    def _index_nested(self, module, node, cls, prefix) -> None:
        for child in _walk_scope(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_func(module, child, cls=cls, prefix=f"{prefix}.{child.name}")
                self._index_nested(module, child, cls, f"{prefix}.{child.name}")

    def _add_func(self, module, node, cls, prefix) -> FuncInfo:
        if cls and prefix == cls:
            qual = f"{module.relpath}::{cls}.{node.name}"
        elif prefix and prefix != node.name:
            qual = f"{module.relpath}::{prefix}"
        else:
            qual = f"{module.relpath}::{node.name}"
        fi = FuncInfo(
            module=module,
            node=node,
            name=node.name,
            cls=cls,
            qualname=qual,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        self.functions.append(fi)
        return fi

    def _harvest_attr_facts(self, ci: ClassInfo, method: ast.AST) -> None:
        for node in _walk_scope(method):
            if isinstance(node, ast.AnnAssign) and _is_self_attr(node.target):
                cand = _ann_class(node.annotation)
                if cand:
                    ci.attr_types.setdefault(node.target.attr, set()).add(cand)
                if self._is_open_call(node.value):
                    ci.file_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not _is_self_attr(target):
                        continue
                    value = node.value
                    if self._is_open_call(value):
                        ci.file_attrs.add(target.attr)
                    elif isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Name
                    ):
                        ci.attr_types.setdefault(target.attr, set()).add(
                            value.func.id
                        )

    @staticmethod
    def _is_open_call(value: Optional[ast.AST]) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "open"
        )

    # ------------------------------------------------------------------
    # per-function environments and resolution

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def calls(self, fi: FuncInfo) -> Iterator[ast.Call]:
        for node in _walk_scope(fi.node):
            if isinstance(node, ast.Call):
                yield node

    def func_env(self, fi: FuncInfo) -> _FuncEnv:
        env = self._envs.get(fi.qualname)
        if env is not None:
            return env
        env = _FuncEnv()
        args = fi.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            cand = _ann_class(arg.annotation)
            if cand is None:
                continue
            if "concurrent" in cand and cand.endswith("Future"):
                env.executor_futures.add(arg.arg)
            elif cand in self.classes:
                env.local_types[arg.arg] = cand
        for node in _walk_scope(fi.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    var = item.optional_vars
                    if isinstance(var, ast.Name):
                        env.assigned.add(var.id)
                        if self._is_open_call(item.context_expr):
                            env.file_locals.add(var.id)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                env.assigned.add(node.target.id)
                cand = _ann_class(node.annotation)
                if cand and "concurrent" in cand and cand.endswith("Future"):
                    env.executor_futures.add(node.target.id)
                elif cand in self.classes:
                    env.local_types[node.target.id] = cand
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            env.assigned.update(names)
            if not names:
                continue
            value = node.value
            # lock = self._build_locks[key] = asyncio.Lock()
            dict_targets = [
                t.value.attr
                for t in node.targets
                if isinstance(t, ast.Subscript) and _is_self_attr(t.value)
            ]
            for name in names:
                for attr in dict_targets:
                    env.keylock_names[name] = attr
                if self._is_open_call(value):
                    env.file_locals.add(name)
                elif isinstance(value, ast.Call):
                    func = value.func
                    if isinstance(func, ast.Name) and func.id in self.classes:
                        env.local_types[name] = func.id
                    elif isinstance(func, ast.Attribute):
                        if func.attr == "submit":
                            env.executor_futures.add(name)
                        elif func.attr == "get" and _is_self_attr(func.value):
                            # lock = self._build_locks.get(key)
                            env.keylock_names[name] = func.value.attr
                elif _is_self_attr(value):
                    env.attr_aliases[name] = value.attr
                    cand = self._attr_class(fi.cls, value.attr)
                    if cand:
                        env.local_types[name] = cand
                    if (
                        fi.cls
                        and fi.cls in self.classes
                        and value.attr in self.classes[fi.cls].file_attrs
                    ):
                        env.file_locals.add(name)
                elif isinstance(value, ast.Subscript) and _is_self_attr(value.value):
                    env.keylock_names[name] = value.value.attr
        self._envs[fi.qualname] = env
        return env

    def _attr_class(self, cls: Optional[str], attr: str) -> Optional[str]:
        if cls is None or cls not in self.classes:
            return None
        known = [
            c for c in self.classes[cls].attr_types.get(attr, ()) if c in self.classes
        ]
        return known[0] if len(known) == 1 else None

    def expr_class(self, fi: FuncInfo, expr: ast.AST) -> Optional[str]:
        """Resolve the service-scope class of an expression, if provable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fi.cls:
                return fi.cls
            return self.func_env(fi).local_types.get(expr.id)
        if _is_self_attr(expr) and fi.cls:
            return self._attr_class(fi.cls, expr.attr)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in self.classes:
                return expr.func.id
        return None

    def resolve_call(self, fi: FuncInfo, call: ast.Call) -> Optional[FuncInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            env = self.func_env(fi)
            if func.id in env.assigned:
                return None  # locally rebound; don't guess
            ci = self.classes.get(func.id)
            if ci is not None:
                return ci.methods.get("__init__")
            target = self._mod_funcs.get(fi.module.relpath, {}).get(func.id)
            if target is not None:
                return target
            candidates = self._top_funcs_by_name.get(func.id, [])
            return candidates[0] if len(candidates) == 1 else None
        if isinstance(func, ast.Attribute):
            cls_name = self.expr_class(fi, func.value)
            if cls_name and cls_name in self.classes:
                return self.classes[cls_name].methods.get(func.attr)
        return None

    # ------------------------------------------------------------------
    # A101: blocking summaries

    def blocking_primitive(self, fi: FuncInfo, call: ast.Call) -> Optional[str]:
        """Reason string if this call is itself a blocking primitive."""
        func = call.func
        env = self.func_env(fi)
        if isinstance(func, ast.Name):
            if func.id == "open" and func.id not in env.assigned:
                return "open()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base_path = _attr_path(func.value)
        if base_path is not None:
            if (base_path, attr) in _BLOCKING_MODULE_CALLS:
                return f"{base_path}.{attr}()"
            if base_path.split(".")[0] == "subprocess":
                return f"{base_path}.{attr}()"
        if attr in _PIPE_METHODS:
            desc = f"{base_path}.{attr}()" if base_path else f".{attr}()"
            return f"{desc} (pipe/socket op)"
        if attr in _FILE_METHODS and self._is_file_handle(fi, func.value):
            desc = base_path or "<handle>"
            return f"{desc}.{attr}() on a file handle"
        if attr == "result" and self._is_executor_future(fi, func.value):
            return "Future.result() on an executor future"
        return None

    def _is_file_handle(self, fi: FuncInfo, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.func_env(fi).file_locals
        if _is_self_attr(expr) and fi.cls in self.classes:
            return expr.attr in self.classes[fi.cls].file_attrs
        return False

    def _is_executor_future(self, fi: FuncInfo, expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Name)
            and expr.id in self.func_env(fi).executor_futures
        )

    def _compute_blocking(self) -> None:
        sync_funcs = [fi for fi in self.functions if not fi.is_async]
        changed = True
        while changed:
            changed = False
            for fi in sync_funcs:
                if fi.qualname in self.blocking:
                    continue
                reason = self._blocking_reason(fi)
                if reason is not None:
                    self.blocking[fi.qualname] = reason
                    changed = True

    def _blocking_reason(self, fi: FuncInfo) -> Optional[str]:
        for call in self.calls(fi):
            prim = self.blocking_primitive(fi, call)
            if prim is not None:
                return prim
            target = self.resolve_call(fi, call)
            if target is None or target.is_async:
                continue
            chain = self.blocking.get(target.qualname)
            if chain is not None:
                return f"{target.display}() → {chain}"
        return None

    # ------------------------------------------------------------------
    # A103: lock discipline

    def guarded_classes(self) -> Iterator[Tuple[ClassInfo, Dict[str, str]]]:
        for (suffix, cls_name), guards in sorted(GUARDED_BY.items()):
            ci = self.classes.get(cls_name)
            if ci is not None and _norm(ci.module.relpath).endswith(suffix):
                yield ci, guards

    def mutations(self, fi: FuncInfo, attr: str) -> Iterator[ast.AST]:
        """Nodes in ``fi`` that mutate ``self.<attr>`` (or an entry of it)."""
        for node in _walk_scope(fi.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if any(self._targets_attr(t, attr) for t in targets):
                    yield node
            elif isinstance(node, ast.Delete):
                if any(self._targets_attr(t, attr) for t in node.targets):
                    yield node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATING_METHODS and self._targets_attr(
                    node.func.value, attr
                ):
                    yield node

    @staticmethod
    def _targets_attr(node: ast.AST, attr: str) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return _is_self_attr(node, attr)

    def under_lock(self, fi: FuncInfo, node: ast.AST, lockspec: str) -> bool:
        """Is ``node`` lexically inside a with-block on its owning lock?"""
        env = self.func_env(fi)
        per_key = lockspec.endswith("[]")
        lock_attr = lockspec[:-2] if per_key else lockspec
        for anc in self.ancestors(node):
            if not isinstance(anc, (ast.With, ast.AsyncWith)):
                continue
            for item in anc.items:
                expr = item.context_expr
                if per_key:
                    if (
                        isinstance(expr, ast.Name)
                        and env.keylock_names.get(expr.id) == lock_attr
                    ):
                        return True
                    if isinstance(expr, ast.Subscript) and _is_self_attr(
                        expr.value, lock_attr
                    ):
                        return True
                else:
                    if _is_self_attr(expr, lock_attr):
                        return True
                    if (
                        isinstance(expr, ast.Name)
                        and env.attr_aliases.get(expr.id) == lock_attr
                    ):
                        return True
        return False

    def lock_held_methods(self, ci: ClassInfo, lock_attr: str) -> Set[str]:
        """Methods provably entered only with ``self.<lock_attr>`` held.

        A private method qualifies when every lexical reference to it
        from within the class is either under the lock or inside
        another qualifying method; public methods are entry points and
        never qualify, and a bare reference (``target=self._pump``)
        counts as an unlocked site.  Greatest-fixpoint over the
        reference graph.
        """
        held = {
            name
            for name in ci.methods
            if name.startswith("_") and not name.startswith("__")
        }
        sites: Dict[str, List[Tuple[str, bool]]] = {name: [] for name in ci.methods}
        for caller_name, caller in ci.methods.items():
            for node in _walk_scope(caller.node):
                if not (_is_self_attr(node) and node.attr in ci.methods):
                    continue
                parent = self.parent(node)
                is_call = isinstance(parent, ast.Call) and parent.func is node
                locked = is_call and self.under_lock(caller, node, lock_attr)
                sites[node.attr].append((caller_name, locked))
        changed = True
        while changed:
            changed = False
            for name in sorted(held):
                refs = sites.get(name, [])
                ok = bool(refs) and all(
                    locked or caller in held for caller, locked in refs
                )
                if not ok:
                    held.discard(name)
                    changed = True
        return held

    # ------------------------------------------------------------------
    # A104: journal-before-fold

    def is_record_call(self, fi: FuncInfo, call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _RECORD_METHODS):
            return False
        return self._is_journal_expr(fi, func.value)

    def is_fold_call(self, fi: FuncInfo, call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _FOLD_METHODS):
            return False
        cls = self.expr_class(fi, func.value)
        if cls in _FOLD_CLASSES:
            return True
        path = _attr_path(func.value) or ""
        return "buffer" in path or "shard" in path.split(".")[-1]

    def _is_journal_expr(self, fi: FuncInfo, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name) and expr.id == "self":
            return fi.cls in _JOURNAL_CLASSES
        if self.expr_class(fi, expr) in _JOURNAL_CLASSES:
            return True
        path = _attr_path(expr) or ""
        return "journal" in path

    def unguarded_folds(self, fi: FuncInfo) -> List[ast.AST]:
        """Fold statements reachable with no dominating record.

        Only meaningful for functions containing both families; paths
        that established the journal is absent (``if self.journal is
        not None`` false-edge and friends) are excused — folding
        without a WAL is the configured-off mode, not a reorder.
        """
        cfg = _StmtCfg(self, fi)
        if not cfg.record_nodes or not cfg.fold_nodes:
            return []
        reached: List[ast.AST] = []
        seen: Set[int] = set()
        stack = [e for e in cfg.entries]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            if nid in cfg.record_nodes:
                continue  # dominated beyond this point
            if nid in cfg.fold_nodes:
                reached.append(cfg.stmts[nid])
            for succ, journal_absent in cfg.succ.get(nid, ()):
                if not journal_absent:
                    stack.append(succ)
        return reached


class _StmtCfg:
    """Statement-level CFG of one function body for the A104 search.

    Compound statements contribute a *header* node (test/items only)
    plus their nested statements; edges carry a ``journal_absent``
    label on branches that proved the journal is ``None``.  Try blocks
    over-approximate: every body statement may jump to each handler.
    """

    def __init__(self, index: ServiceIndex, fi: FuncInfo):
        self.index = index
        self.fi = fi
        self.stmts: List[ast.stmt] = []
        self.succ: Dict[int, List[Tuple[int, bool]]] = {}
        self.record_nodes: Set[int] = set()
        self.fold_nodes: Set[int] = set()
        self._loops: List[Dict[str, List[int]]] = []
        entry, _exits = self._seq(list(fi.node.body))
        self.entries = [entry] if entry is not None else []

    def _new(self, stmt: ast.stmt, header_only: Iterable[ast.AST]) -> int:
        nid = len(self.stmts)
        self.stmts.append(stmt)
        kinds = self._classify(header_only)
        if "record" in kinds:
            self.record_nodes.add(nid)
        if "fold" in kinds:
            self.fold_nodes.add(nid)
        return nid

    def _classify(self, exprs: Iterable[ast.AST]) -> Set[str]:
        kinds: Set[str] = set()
        for expr in exprs:
            if expr is None:
                continue
            for node in ast.walk(expr):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    break
                if isinstance(node, ast.Call):
                    if self.index.is_record_call(self.fi, node):
                        kinds.add("record")
                    if self.index.is_fold_call(self.fi, node):
                        kinds.add("fold")
        return kinds

    def _edge(self, src: int, dst: int, absent: bool = False) -> None:
        self.succ.setdefault(src, []).append((dst, absent))

    def _connect(self, exits: List[Tuple[int, bool]], dst: int) -> None:
        for src, absent in exits:
            self._edge(src, dst, absent)

    def _seq(self, stmts: List[ast.stmt]):
        entry: Optional[int] = None
        open_exits: List[Tuple[int, bool]] = []
        for stmt in stmts:
            node, exits = self._stmt(stmt)
            if entry is None:
                entry = node
            else:
                self._connect(open_exits, node)
            open_exits = exits
        return entry, open_exits

    def _absent_edges(self, test: ast.AST) -> Tuple[bool, bool]:
        """(body_edge_absent, else_edge_absent) for a journal None-test."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and self.index._is_journal_expr(self.fi, test.left)
        ):
            if isinstance(test.ops[0], ast.Is):
                return True, False
            if isinstance(test.ops[0], ast.IsNot):
                return False, True
        return False, False

    def _stmt(self, stmt: ast.stmt):
        if isinstance(stmt, ast.If):
            nid = self._new(stmt, [stmt.test])
            body_absent, else_absent = self._absent_edges(stmt.test)
            body_entry, body_exits = self._seq(stmt.body)
            exits = list(body_exits)
            if body_entry is not None:
                self._edge(nid, body_entry, body_absent)
            if stmt.orelse:
                else_entry, else_exits = self._seq(stmt.orelse)
                if else_entry is not None:
                    self._edge(nid, else_entry, else_absent)
                exits.extend(else_exits)
            else:
                exits.append((nid, else_absent))
            return nid, exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            headers = (
                [stmt.test]
                if isinstance(stmt, ast.While)
                else [stmt.target, stmt.iter]
            )
            nid = self._new(stmt, headers)
            self._loops.append({"breaks": [], "head": [nid]})
            body_entry, body_exits = self._seq(stmt.body)
            if body_entry is not None:
                self._edge(nid, body_entry)
                self._connect(body_exits, nid)
            ctx = self._loops.pop()
            exits = [(nid, False)] + [(b, False) for b in ctx["breaks"]]
            if stmt.orelse:
                else_entry, else_exits = self._seq(stmt.orelse)
                if else_entry is not None:
                    self._edge(nid, else_entry)
                    exits = else_exits + [(b, False) for b in ctx["breaks"]]
            return nid, exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            nid = self._new(stmt, [item.context_expr for item in stmt.items])
            body_entry, body_exits = self._seq(stmt.body)
            if body_entry is None:
                return nid, [(nid, False)]
            self._edge(nid, body_entry)
            return nid, body_exits
        if isinstance(stmt, ast.Try):
            nid = self._new(stmt, [])
            first_body = len(self.stmts)
            body_entry, body_exits = self._seq(stmt.body)
            body_nodes = list(range(first_body, len(self.stmts)))
            if body_entry is not None:
                self._edge(nid, body_entry)
            exits = list(body_exits)
            if stmt.orelse:
                else_entry, else_exits = self._seq(stmt.orelse)
                if else_entry is not None:
                    self._connect(body_exits, else_entry)
                    exits = list(else_exits)
            for handler in stmt.handlers:
                h_entry, h_exits = self._seq(handler.body)
                if h_entry is None:
                    continue
                self._edge(nid, h_entry)
                for bn in body_nodes:
                    self._edge(bn, h_entry)
                exits.extend(h_exits)
            if stmt.finalbody:
                f_entry, f_exits = self._seq(stmt.finalbody)
                if f_entry is not None:
                    self._connect(exits, f_entry)
                    exits = f_exits
            return nid, exits
        # Simple statements (including nested defs, treated opaquely).
        headers = [stmt] if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) else []
        nid = self._new(stmt, headers)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return nid, []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1]["breaks"].append(nid)
            return nid, []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                for head in self._loops[-1]["head"]:
                    self._edge(nid, head)
            return nid, []
        return nid, [(nid, False)]


@register_project
class ServiceChecksRule(ProjectRule):
    """Aggregates A101–A106 over one shared :class:`ServiceIndex`."""

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        if not any(in_service_scope(m.relpath) for m in modules):
            return
        from .rules.service_async import check_blocking, check_unawaited
        from .rules.service_concurrency import check_lock_discipline
        from .rules.service_journal import check_journal_before_fold
        from .rules.service_persistence import check_snapshot_coverage
        from .rules.service_wire import check_typed_wire_errors

        index = ServiceIndex(modules)
        for checker in (
            check_blocking,
            check_unawaited,
            check_lock_discipline,
            check_journal_before_fold,
            check_snapshot_coverage,
            check_typed_wire_errors,
        ):
            yield from checker(index)
