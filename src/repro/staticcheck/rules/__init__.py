"""Lint rule registry (layer-2 rule catalog, ids ``L1xx``).

========  ======================  ========  ===========================
rule id   name                    severity  invariant
========  ======================  ========  ===========================
``L101``  no-ambient-rng          error     ``random``/``secrets``/
                                            ``uuid`` only via
                                            ``workloads/rng.py``
``L102``  no-wallclock            error     wall-clock reads stay out
                                            of result-producing code
``L103``  no-set-order-iteration  error     no iteration over sets
                                            except into
                                            order-insensitive sinks
``L104``  env-reads-in-config     error     ``os.environ`` reads only
                                            in ``config.py``
``L105``  no-broad-except         error     ``except Exception`` must
                                            not swallow
                                            ``InvariantViolation`` /
                                            ``ReproError``
``L106``  no-mutable-default      error     no mutable default
                                            arguments
``L107``  sanitize-coverage       warning   frontend structures expose
                                            ``attach_sanitizer``;
                                            drift/service durable state
                                            pairs ``to_dict`` with
                                            ``from_dict``
``L108``  no-json-dump            error     no un-indented
                                            ``json.dump``: it always
                                            runs the pure-Python
                                            encoder, ~5x slower than
                                            ``json.dumps``
========  ======================  ========  ===========================

Rules register themselves via :func:`register`; :func:`default_rules`
instantiates the full set for :class:`~repro.staticcheck.engine.LintEngine`.

Layer 3 (*project rules*, ids ``A1xx``) analyzes the whole module set
at once — call graphs, lock discipline, persistence coverage — and
registers via :func:`register_project`; the rule catalog lives in
:mod:`~repro.staticcheck.service_checks`.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Sequence, Type

from ..engine import ParsedModule
from ..findings import Finding, Severity

LINT_RULES: Dict[str, str] = {}
_REGISTRY: List[Type["Rule"]] = []
_PROJECT_REGISTRY: List[Type["ProjectRule"]] = []


class Rule:
    """Base class: subclasses set ``rule``/``name``/``severity``."""

    rule: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule,
            name=self.name,
            severity=self.severity,
            location=module.relpath,
            message=message,
            line=getattr(node, "lineno", None),
        )


class ProjectRule:
    """Base for whole-project rules: sees every module in one pass.

    A single ProjectRule may own several rule ids (the service
    analyzer shares one cross-module index across A101–A106), so
    findings carry their ids explicitly rather than inheriting them
    from class attributes.
    """

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        raise NotImplementedError


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default set."""
    LINT_RULES[cls.rule] = cls.name
    _REGISTRY.append(cls)
    return cls


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the default set."""
    _PROJECT_REGISTRY.append(cls)
    return cls


def default_rules() -> List[Rule]:
    # Import for side effect: each module registers its rules.
    from . import determinism, environment, exceptions, hygiene, sanitize_coverage  # noqa: F401

    return [cls() for cls in _REGISTRY]


def default_project_rules() -> List[ProjectRule]:
    # Import for side effect: registers the service analyzer (layer 3).
    from . import service_async, service_concurrency, service_persistence, service_wire  # noqa: F401
    from .. import service_checks  # noqa: F401

    return [cls() for cls in _PROJECT_REGISTRY]
