"""Structured findings shared by both static-analysis layers.

A :class:`Finding` is one rule violation: the rule id (``P103``,
``L104``, ...), a human-readable rule name, a severity, a location
(source ``file:line`` for lint findings, an artifact locator such as
``plan[wordpress].block[0x4a2f10].op[1]`` for verifier findings), and
the message.  Severities gate the exit code: errors always fail,
warnings only under ``--strict``, infos never.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence


class Severity(enum.Enum):
    """How strongly a finding gates the exit code."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation from either analysis layer."""

    rule: str  # stable id: P1xx (plan), C1xx (cfg), L1xx (lint)
    name: str  # kebab-case rule name, accepted in suppressions
    severity: Severity
    location: str  # "path/to/file.py" or an artifact locator
    message: str
    line: Optional[int] = None  # source line for lint findings

    def where(self) -> str:
        if self.line is not None:
            return f"{self.location}:{self.line}"
        return self.location

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.value,
            "location": self.location,
            "line": self.line,
            "message": self.message,
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Errors first, then by location/line/rule for stable output."""
    return sorted(
        findings,
        key=lambda f: (f.severity.rank, f.location, f.line or 0, f.rule),
    )


def exit_code(findings: Sequence[Finding], strict: bool = False) -> int:
    """0 clean, 1 gating findings (errors; warnings too when *strict*)."""
    gating = Severity.WARNING.rank if strict else Severity.ERROR.rank
    if any(f.severity.rank <= gating for f in findings):
        return 1
    return 0


def render_text(
    findings: Sequence[Finding],
    summarize_below_error: bool = True,
    header: str = "",
) -> str:
    """Human-readable report: every error, non-errors summarized.

    With ``summarize_below_error`` off, warnings and infos are listed
    in full as well (``--verbose``).
    """
    ordered = sort_findings(findings)
    lines: List[str] = []
    if header:
        lines.append(header)
    shown = 0
    demoted: dict = {}
    for f in ordered:
        if summarize_below_error and f.severity is not Severity.ERROR:
            key = (f.severity.value, f.rule, f.name)
            demoted[key] = demoted.get(key, 0) + 1
            continue
        lines.append(f"{f.severity.value}: {f.rule} [{f.name}] {f.where()}: {f.message}")
        shown += 1
    for (sev, rule, name), count in sorted(demoted.items()):
        lines.append(f"{sev}: {rule} [{name}] x{count} (suppressed detail; --verbose to list)")
    n_err = sum(1 for f in ordered if f.severity is Severity.ERROR)
    n_warn = sum(1 for f in ordered if f.severity is Severity.WARNING)
    n_info = len(ordered) - n_err - n_warn
    lines.append(
        f"staticcheck: {n_err} error(s), {n_warn} warning(s), {n_info} info(s)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], extra: Optional[dict] = None) -> str:
    """Machine-readable report (one JSON document)."""
    doc = {
        "findings": [f.to_dict() for f in sort_findings(findings)],
        "counts": {
            sev.value: sum(1 for f in findings if f.severity is sev)
            for sev in Severity
        },
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True)
