"""CLI for the static analyzer.

Usage::

    python -m repro.staticcheck                      # lint src/repro
    python -m repro.staticcheck path/to/file.py      # lint specific files
    python -m repro.staticcheck --check-plans        # verify built plans
    python -m repro.staticcheck --check-plans --no-lint --format json
    python -m repro.staticcheck --list-rules
    REPRO_APPS=wordpress python -m repro.staticcheck --check-plans

``--check-plans`` drives the real pipeline (workload → trace → profile
→ plan) for each selected app — honoring ``REPRO_APPS`` /
``REPRO_TRACE_INSTRUCTIONS`` / ``REPRO_SAMPLE_RATE`` — then runs the
layer-1 verifier over the workload CFG and the built plan, plus the
report-only ``P107`` timeliness check no gate runs.  Exit codes:
0 clean, 1 gating findings (errors; warnings too with ``--strict``),
2 usage or pipeline error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from ..errors import ReproError
from .cfg_checks import CFG_RULES
from .engine import ENGINE_RULES, LintEngine, parse_paths
from .findings import Finding, exit_code, render_json, render_text
from .plan_checks import PLAN_RULES
from .rules import LINT_RULES, default_rules
from .service_checks import SERVICE_RULES, in_service_scope


def _list_rules() -> str:
    default_rules()  # populate LINT_RULES: registration is an import side effect
    lines = ["rule    name                    layer"]
    for rule, name in sorted(PLAN_RULES.items()):
        lines.append(f"{rule:7s} {name:23s} plan verifier")
    for rule, name in sorted(CFG_RULES.items()):
        lines.append(f"{rule:7s} {name:23s} cfg verifier")
    for rule, name in sorted(LINT_RULES.items()):
        lines.append(f"{rule:7s} {name:23s} source lint")
    for rule, name in sorted(SERVICE_RULES.items()):
        lines.append(f"{rule:7s} {name:23s} service analyzer")
    for rule, name in sorted(ENGINE_RULES.items()):
        lines.append(f"{rule:7s} {name:23s} engine")
    return "\n".join(lines)


def _known_rule_keys() -> Set[str]:
    keys: Set[str] = set()
    for catalog in (PLAN_RULES, CFG_RULES, LINT_RULES, SERVICE_RULES, ENGINE_RULES):
        keys.update(catalog)
        keys.update(catalog.values())
    return keys


def _git(args: List[str]) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git"] + args, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _changed_files(base: str) -> List[Path]:
    """Source files changed vs the merge base with ``base`` (plus untracked)."""
    merge_base = None
    tried = [base] if base else ["origin/main", "main"]
    for ref in tried:
        out = _git(["merge-base", ref, "HEAD"])
        if out is not None:
            merge_base = out.strip()
            break
    if merge_base is None:
        raise ReproError(
            f"--changed: no merge base found vs {' or '.join(tried)}; "
            f"pass --changed-base REF"
        )
    names: List[str] = []
    diff = _git(["diff", "--name-only", merge_base])
    if diff is None:
        raise ReproError(f"--changed: git diff vs {merge_base[:12]} failed")
    names.extend(diff.splitlines())
    untracked = _git(["ls-files", "--others", "--exclude-standard"])
    if untracked is not None:
        names.extend(untracked.splitlines())
    files: List[Path] = []
    for name in sorted(set(names)):
        # The dev-loop fast path covers library sources; tests and
        # tools keep their own CI gates and aren't lint targets today.
        if not name.endswith(".py") or not name.startswith("src/"):
            continue
        path = Path(name)
        if path.is_file():
            files.append(path)
    return files


def _with_service_closure(files: List[Path]) -> List[Path]:
    """Extend a changed-file set so layer 3 sees the whole service scope.

    The A1xx rules are interprocedural: linting one changed service
    file in isolation would miss (or fabricate) cross-module chains,
    so any in-scope change pulls in the full service closure.
    """
    if not any(in_service_scope(p.as_posix()) for p in files):
        return files
    src_root = Path(__file__).resolve().parent.parent  # src/repro
    closure = [
        src_root / "service",
        src_root / "errors.py",
        src_root / "experiments" / "parallel.py",
    ]
    seen = {p.resolve() for p in files}
    for extra in closure:
        if extra.exists() and extra.resolve() not in seen:
            files.append(extra)
    return files


def _check_plans(apps_arg: str) -> List[Finding]:
    """Build and statically verify plans via the experiment pipeline."""
    from dataclasses import replace

    from ..config import SimConfig, apps_from_env
    from ..experiments.runner import ExperimentRunner, RunnerSettings
    from ..workloads.apps import app_names
    from .cfg_checks import BlockGraph, verify_workload
    from .plan_checks import plan_timeliness, verify_plan

    if apps_arg:
        apps = tuple(a.strip() for a in apps_arg.split(",") if a.strip())
    else:
        apps = apps_from_env() or app_names()
    unknown = sorted(set(apps) - set(app_names()))
    if unknown:
        raise ReproError(
            f"unknown app(s) {unknown}; choose from {sorted(app_names())}"
        )

    # check_plans stays off: this command *is* the verification; the
    # runner's gate would raise on the first error instead of reporting
    # all findings, and would skip the P107 timeliness report.
    runner = ExperimentRunner(replace(RunnerSettings.from_env(), apps=apps))
    cfg = SimConfig()
    findings: List[Finding] = []
    for app in apps:
        wl = runner.workload(app)
        findings.extend(verify_workload(wl))
        plan = runner.plan(app, config=cfg)
        graph = BlockGraph(wl, fetch_width_bytes=cfg.core.fetch_width_bytes)
        findings.extend(verify_plan(plan, wl, cfg, graph=graph))
        findings.extend(plan_timeliness(plan, wl, cfg, graph=graph))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Static plan verifier + repro source lint.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--check-plans",
        action="store_true",
        help="build each app's Twig plan and verify it against its CFG",
    )
    parser.add_argument(
        "--apps",
        default="",
        metavar="A,B",
        help="apps for --check-plans (default: $REPRO_APPS or all nine)",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the source lint layer (useful with --check-plans)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings also gate the exit code",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="list warnings/infos individually instead of summarizing",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="fast mode: lint only src files changed vs origin/main "
        "(service changes pull in the full layer-3 closure)",
    )
    parser.add_argument(
        "--changed-base",
        default="",
        metavar="REF",
        help="diff base for --changed (default: origin/main, then main)",
    )
    parser.add_argument(
        "--report-unused-suppressions",
        action="store_true",
        help="also flag 'staticcheck: disable=' comments whose rule no "
        "longer fires (U101 warnings)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if args.apps and not args.check_plans:
        print("--apps requires --check-plans", file=sys.stderr)
        return 2
    if args.paths and args.no_lint:
        print("--no-lint contradicts explicit lint paths", file=sys.stderr)
        return 2
    if args.changed and (args.paths or args.no_lint):
        print("--changed contradicts explicit paths / --no-lint", file=sys.stderr)
        return 2

    findings: List[Finding] = []
    try:
        if not args.no_lint:
            # default_rules() imports every rule module; do it before
            # linting so a broken rule is a loud exit-2, not a miss.
            default_rules()
            if args.paths:
                files = [Path(p) for p in args.paths]
                root = Path.cwd()
            elif args.changed:
                files = _with_service_closure(_changed_files(args.changed_base))
                root = Path.cwd()
                if not files:
                    print("staticcheck: no changed source files", file=sys.stderr)
            else:
                src_root = Path(__file__).resolve().parent.parent  # src/repro
                files = [src_root]
                root = src_root.parent
            engine = LintEngine()
            modules = parse_paths(files, root=root)
            findings.extend(engine.lint(modules))
            if args.report_unused_suppressions:
                findings.extend(
                    engine.unused_suppression_findings(modules, _known_rule_keys())
                )
        if args.check_plans:
            findings.extend(_check_plans(args.apps))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(findings, extra={"strict": args.strict}))
    else:
        out = render_text(findings, summarize_below_error=not args.verbose)
        print(out)
    return exit_code(findings, strict=args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
