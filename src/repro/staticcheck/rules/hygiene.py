"""General hygiene rules: mutable default arguments, slow JSON writes."""

from __future__ import annotations

import ast
from typing import Iterator

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
