"""CLI: regenerate paper figures/tables from the command line.

Usage::

    python -m repro.experiments fig16 fig17
    python -m repro.experiments --list
    python -m repro.experiments --jobs 8 fig16 fig23        # parallel fan-out
    python -m repro.experiments --no-cache fig03            # force re-simulation
    python -m repro.experiments --cache-dir /tmp/twig fig03
    REPRO_APPS=cassandra,wordpress python -m repro.experiments fig03
    python -m repro.experiments --telemetry run.jsonl fig16 # telemetry log
    python -m repro.experiments telemetry-report run.jsonl  # summarize it

``--jobs``/``--cache-dir`` default to the ``REPRO_JOBS`` /
``REPRO_CACHE_DIR`` environment knobs; results persist under
``.repro_cache/`` unless ``--no-cache`` is given.  ``--telemetry PATH``
(equivalent to ``REPRO_TELEMETRY=PATH``) appends structured JSONL
events — phase spans, cache traffic, worker activity — which
``telemetry-report`` turns into a wall-time/cache/worker breakdown.
The plan service has its own command line, ``python -m repro.service``.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..config import (
    cache_dir_from_env,
    default_sweep_sim_mode,
    sanitize_from_env,
    sim_mode_from_env,
    telemetry_path_from_env,
)
from ..errors import ReproError
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .parallel import resolve_jobs
from .registry import EXPERIMENTS, warm_experiments
from .report import format_per_app, format_series, save_result
from .runner import ExperimentRunner, RunnerSettings, set_runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures/tables from the Twig paper.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig16)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--save", action="store_true", help="save JSON results")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel simulation workers (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"on-disk result cache directory "
        f"(default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable runtime invariant checks in every simulation "
        "(equivalent to REPRO_SANITIZE=1; results are cached separately)",
    )
    parser.add_argument(
        "--sim-mode",
        choices=("auto", "fast", "serial"),
        default=None,
        help="simulator run-loop selection (equivalent to REPRO_SIM_MODE; "
        "sweeps default to the batched fast path, parity-pinned against "
        "serial — pass serial to opt out)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append structured JSONL telemetry events to PATH "
        "(equivalent to REPRO_TELEMETRY=PATH; workers inherit it)",
    )
    parser.add_argument(
        "--check-plans",
        action="store_true",
        help="statically verify every Twig plan before simulating it "
        "(repro.staticcheck; equivalent to REPRO_CHECK_PLANS=1)",
    )
    args = parser.parse_args(argv)

    if args.sanitize:
        # Via the environment so parallel workers inherit it and every
        # default-constructed SimConfig in this process picks it up.
        os.environ["REPRO_SANITIZE"] = "1"
    installed_default_mode = False
    if args.sim_mode:
        os.environ["REPRO_SIM_MODE"] = args.sim_mode
    else:
        # Default sweeps run on the batched fast path (auto under the
        # serial-only sanitizer); see default_sweep_sim_mode.  Via the
        # environment so parallel workers inherit the choice — but
        # only for this invocation: unlike the explicit flags above,
        # nobody asked for the default, so it must not outlive main()
        # (in-process callers, e.g. the test suite, share os.environ).
        default_mode = default_sweep_sim_mode()
        if default_mode is not None:
            os.environ["REPRO_SIM_MODE"] = default_mode
            installed_default_mode = True
    if args.telemetry:
        # Same pattern: the env is what parallel workers inherit.
        os.environ["REPRO_TELEMETRY"] = args.telemetry
    if args.check_plans:
        os.environ["REPRO_CHECK_PLANS"] = "1"

    try:
        return _run(args)
    finally:
        if installed_default_mode:
            os.environ.pop("REPRO_SIM_MODE", None)


def _run(args) -> int:
    """Everything after env setup: dispatch and run the experiments."""
    if args.experiments and args.experiments[0] == "telemetry-report":
        return _telemetry_report(args)

    if args.list or not args.experiments:
        for exp_id, exp in sorted(EXPERIMENTS.items()):
            print(f"{exp_id:8s} {exp.title} — paper: {exp.paper_claim}")
        return 0

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        for exp_id in unknown:
            print(f"unknown experiment {exp_id!r}", file=sys.stderr)
        return 2

    try:
        # Validate eagerly so a garbage REPRO_SANITIZE / REPRO_SIM_MODE
        # is a clean exit-2 here rather than a ConfigError mid-experiment.
        sanitize_from_env()
        sim_mode_from_env()
        settings = RunnerSettings.from_env()
        jobs = resolve_jobs(args.jobs)
        if args.no_cache:
            cache = None
        else:
            cache_dir = args.cache_dir or cache_dir_from_env() or DEFAULT_CACHE_DIR
            cache = ResultCache(cache_dir)
        runner = ExperimentRunner(settings, cache=cache, jobs=jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    set_runner(runner)

    if jobs > 1:
        # One fan-out covers the default-config runs every requested
        # experiment shares (each figure still warms its own sweeps).
        warm_experiments(args.experiments, runner=runner)

    for exp_id in args.experiments:
        exp = EXPERIMENTS[exp_id]
        result = exp.run()
        title = f"{exp_id}: {exp.title}"
        if "per_app" in result:
            print(format_per_app(title, result["per_app"], paper=result.get("paper")))
        elif "series" in result:
            print(format_series(title, result["series"], paper=result.get("paper")))
        else:
            print(title)
            print(result)
        if "average" in result:
            print(f"  measured average: {result['average']}")
        if args.save:
            path = save_result(exp_id, result)
            print(f"  saved: {path}")
        print()

    if runner.telemetry is not None:
        cache_stats = runner.cache.stats if runner.cache is not None else None
        runner.telemetry.emit_summary(
            cache_stats=cache_stats, runner_stats=runner.stats
        )
        print(f"telemetry: {runner.telemetry.path}")
    return 0


def _telemetry_report(args) -> int:
    """``telemetry-report [PATH]``: summarize a telemetry JSONL log."""
    from ..telemetry.report import render_report

    rest = args.experiments[1:]
    if len(rest) > 1:
        print("telemetry-report takes at most one PATH argument", file=sys.stderr)
        return 2
    path = rest[0] if rest else (args.telemetry or telemetry_path_from_env())
    if not path:
        print(
            "telemetry-report needs a log path: pass it as an argument, "
            "via --telemetry, or via REPRO_TELEMETRY",
            file=sys.stderr,
        )
        return 2
    try:
        print(render_report(path))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
