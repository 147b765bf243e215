"""General hygiene rules: mutable default arguments, slow JSON writes,
unused imports."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..engine import ParsedModule
from ..findings import Finding, Severity
from . import Rule, register

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "Counter", "deque", "bytearray"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@register
class MutableDefaultRule(Rule):
    """L106: mutable default argument shared across calls."""

    rule = "L106"
    name = "no-mutable-default"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_default(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); the "
                        "object is shared across every call — default to "
                        "None and construct inside",
                    )


@register
class JsonDumpRule(Rule):
    """L108: ``json.dump`` where ``json.dumps`` writes the same bytes faster."""

    rule = "L108"
    name = "no-json-dump"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            ):
                continue
            # Indented output takes the pure-Python encoder either way.
            if any(
                kw.arg == "indent"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
                for kw in node.keywords
            ):
                continue
            yield self.finding(
                module,
                node,
                "json.dump() always runs the pure-Python encoder, about 5x "
                "slower than json.dumps() for the same bytes; write the "
                "json.dumps() text instead (profiling.serialize.write_json "
                "streams a large document piece by piece)",
            )


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations (``"Settings"``)
    and the string entries of a module-level ``__all__`` included."""
    used: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    strings = [
        sub.value
        for annotation in annotations
        if annotation is not None
        for sub in ast.walk(annotation)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]
    for text in strings:
        try:
            expr = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


@register
class UnusedImportRule(Rule):
    """L109: an imported name that the module never uses."""

    rule = "L109"
    name = "no-unused-import"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        # A package's __init__.py imports to re-export.
        if module.path.name == "__init__.py":
            return
        imported: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, node)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.setdefault(alias.asname or alias.name, node)
        used = _used_names(module.tree)
        for bound, node in sorted(imported.items(), key=lambda kv: kv[1].lineno):
            if bound not in used:
                yield self.finding(
                    module,
                    node,
                    f"{bound!r} is imported but never used; delete the "
                    "import (list a re-export in __all__)",
                )
