"""Command line for the benchmark suite.

::

    python -m repro.bench.suite [--repeats N] [--seed N] [--seconds S]
                                [--preset full|smoke] [--out report.json]
    python -m repro.bench.suite run --workload W --seed N --seconds S --trace 0|1
    python -m repro.bench.suite compare A.json B.json

The first form runs each workload ``--repeats`` times untraced, prints
every end-to-end metric's median, quartiles and n, then runs each
workload once traced and prints the per-layer table.  ``run`` is one
run of one workload; its last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from ...errors import BenchError, ReproError
from .compare import compare_main
from .inputs import PRESETS, REGEN_WORKLOADS, WORKLOADS
from .metrics import END_TO_END, PER_LAYER, quartiles, result_record
from .procs import ROOT, check_tree, child_env

DEFAULT_SECONDS = 20


def run_once(workload: str, seed: int, seconds: int, trace: bool,
             preset: str = "full") -> Dict:
    """One run of one workload; returns its result record."""
    check_tree()
    if workload in REGEN_WORKLOADS:
        from .regen import run_regen as runner
    else:
        from .service import run_service as runner
    metrics, tally = runner(workload, seed, seconds, trace, preset)
    return result_record(metrics, tally)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--preset", choices=PRESETS, default="full",
                        help="input sizes: full, or smoke for a quick check")


def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.suite run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _common(parser)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    record = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.preset)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def _run_child(workload: str, seed: int, seconds: int, trace: int,
               preset: str) -> Dict:
    """One run in its own process, as ``BENCHMARK.json``'s command runs it."""
    argv = [sys.executable, "-m", "repro.bench.suite", "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--preset", preset]
    done = subprocess.run(argv, cwd=ROOT, env=child_env(ROOT),
                          stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode("utf-8").strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} run exited {done.returncode} with no result")
    return json.loads(lines[-1])


def _print_end_to_end(workload: str, runs: List[Dict]) -> None:
    print(f"{workload}  (n = {len(runs)} runs)")
    print(f"  {'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s}  n")
    for metric in END_TO_END:
        values = [r["metrics"][metric.name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        print(f"  {metric.name:14s} {metric.unit:6s} {q2:10.4g} {q1:10.4g} "
              f"{q3:10.4g}  {len(values)}")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  failed {failed} of {attempted} operations")


def _print_layers(traced: Dict[str, Dict]) -> None:
    names = list(traced)
    print("per-layer metrics (one traced run per workload)")
    print(f"  {'metric':30s} {'unit':8s}" + "".join(f"{n:>19s}" for n in names))
    for metric in PER_LAYER:
        cells = "".join(
            f"{traced[n]['metrics'][metric.name]['value']:19.4g}" for n in names
        )
        print(f"  {metric.name:30s} {metric.unit:8s}{cells}")


def suite_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.suite")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None, help="write the report JSON here")
    _common(parser)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds < 1:
        parser.error("--repeats and --seconds must be at least 1")
    check_tree()
    report: Dict = {
        "format": 1,
        "preset": args.preset,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    traced: Dict[str, Dict] = {}
    for workload in WORKLOADS:
        runs = []
        for i in range(args.repeats):
            print(f"[{workload}] run {i + 1}/{args.repeats}", file=sys.stderr)
            runs.append(_run_child(workload, args.seed, args.seconds, 0, args.preset))
        print(f"[{workload}] traced run", file=sys.stderr)
        traced[workload] = _run_child(workload, args.seed, args.seconds, 1, args.preset)
        report["workloads"][workload] = {"runs": runs, "traced": traced[workload]}
        _print_end_to_end(workload, runs)
    _print_layers(traced)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    correct = all(
        r["correct"]
        for e in report["workloads"].values()
        for r in e["runs"] + [e["traced"]]
    )
    return 0 if correct else 1


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # SIGTERM unwinds like an error, so every started process is reaped.
    signal.signal(signal.SIGTERM, _stop)
    try:
        if argv[:1] == ["compare"]:
            return compare_main(argv[1:])
        if argv[:1] == ["run"]:
            return run_main(argv[1:])
        return suite_main(argv)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
