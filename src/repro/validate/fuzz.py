"""Property-based fuzzing of the frontend models (DESIGN.md §8).

Each fuzz case derives a randomized *mini*-workload (a few dozen
functions), a randomized small frontend geometry (so sets overflow and
LRU/eviction paths actually execute within a short trace), and a short
trace, then subjects them to both correctness layers:

1. differential co-simulation against the reference oracles
   (:func:`~repro.validate.differential.cosimulate` plus a randomized
   prefetch-buffer op stream),
2. a full sanitized timing-simulator run (``SimConfig.sanitize``), and
3. batched-fast-path parity: the same trace re-simulated with the
   sanitizer off, which the simulator runs on its fast loop (the
   sanitizer pins runs to the serial loop), must agree with the
   sanitized serial result on every :class:`SimResult` counter.

Everything is derived from the case seed through
:func:`~repro.workloads.rng.make_rng`, so a failing seed is a complete
reproducer.  On failure the harness additionally *shrinks* the trace to
a minimal window that still fails (:func:`shrink_window`), which is
what gets printed by ``tools/fuzz_sim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from ..config import BTBConfig, FrontendConfig, SimConfig
from ..errors import InvariantViolation
from ..trace.events import Trace
from ..trace.walker import generate_trace
from ..uarch.sim import FrontendSimulator
from ..workloads.cfg import build_workload
from ..workloads.rng import make_rng
from ..workloads.spec import AppSpec
from .differential import Divergence, cosimulate, exercise_prefetch_buffer
from .parity import result_diffs

DEFAULT_CASES = 20
DEFAULT_INSTRUCTIONS = 4000


def fuzz_spec(seed: int, rng) -> AppSpec:
    """A small randomized application spec for one fuzz case."""
    return AppSpec(
        name=f"fuzz-{seed}",
        footprint_mb_target=0.1,
        btb_mpki_target=10.0,
        frontend_bound_target=0.5,
        functions=rng.randint(30, 90),
        handler_fraction=rng.uniform(0.08, 0.20),
        mean_blocks_per_function=rng.randint(4, 10),
        popularity_exponent=rng.uniform(0.3, 0.8),
        far_region_fraction=rng.uniform(0.0, 0.4),
        loop_fraction=rng.uniform(0.05, 0.25),
    )


def fuzz_config(rng) -> SimConfig:
    """A deliberately tiny frontend geometry so eviction paths run hot."""
    ways = rng.choice((1, 2, 4))
    sets = rng.choice((4, 8, 16, 32))
    iways = rng.choice((1, 2, 4))
    isets = rng.choice((4, 8, 16))
    frontend = replace(
        FrontendConfig(),
        btb=BTBConfig(entries=ways * sets, ways=ways),
        ibtb=BTBConfig(entries=iways * isets, ways=iways),
        ras_entries=rng.choice((2, 4, 8, 16)),
        prefetch_buffer_entries=rng.choice((0, 4, 8, 16)),
    )
    return replace(SimConfig(), frontend=frontend, sanitize=True)


def fuzz_buffer_ops(rng, n_ops: int = 400, pc_space: int = 24) -> List[tuple]:
    """A random insert/take stream over a small, colliding pc universe."""
    ops: List[tuple] = []
    now = 0
    for _ in range(n_ops):
        now += rng.randint(0, 3)
        pc = 0x1000 + rng.randrange(pc_space) * 4
        if rng.random() < 0.55:
            ops.append(("insert", pc, pc + 64 + rng.randrange(256), now + rng.randint(0, 8)))
        else:
            ops.append(("take", pc, now))
    return ops


# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One failing case, with enough to reproduce and replay it."""

    seed: int
    kind: str                      # "divergence" | "violation" | "parity"
    message: str
    divergence: Optional[Divergence] = None
    # Minimal [lo, hi) trace window that still fails (None: not shrunk,
    # or the failure is trace-independent, e.g. the buffer op stream).
    window: Optional[Tuple[int, int]] = None
    trace_len: int = 0

    def describe(self) -> str:
        lines = [f"seed {self.seed}: {self.kind} — {self.message}"]
        if self.window is not None:
            lo, hi = self.window
            lines.append(
                f"  minimal window: units [{lo}, {hi}) of {self.trace_len} "
                f"({hi - lo} units)"
            )
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        return "\n".join(lines)


@dataclass
class FuzzReport:
    cases: int
    failures: List[FuzzFailure]
    ops_checked: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz: {self.cases} cases, {self.ops_checked} differential ops "
            f"checked — {status}"
        )


# ----------------------------------------------------------------------
def shrink_window(
    trace: Trace, predicate: Callable[[Trace], bool]
) -> Tuple[int, int]:
    """Shrink to a minimal [lo, hi) window for which *predicate* holds.

    Greedy binary shrinking: repeatedly chop halving-sized chunks off
    either end while the failure persists.  The predicate must hold for
    the full trace; the returned window is 1-minimal with respect to
    the final step size (classic ddmin-lite, good enough to turn a
    4000-unit trace into a handful of units).
    """
    lo, hi = 0, len(trace)
    step = (hi - lo) // 2
    while step > 0:
        progressed = True
        while progressed:
            progressed = False
            if hi - lo > step and predicate(trace.slice(lo, hi - step)):
                hi -= step
                progressed = True
            if hi - lo > step and predicate(trace.slice(lo + step, hi)):
                lo += step
                progressed = True
        step //= 2
    return lo, hi


# ----------------------------------------------------------------------
def run_case(
    seed: int,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    shrink: bool = True,
) -> Tuple[Optional[FuzzFailure], int]:
    """Run one fuzz case; returns (failure-or-None, differential ops)."""
    rng = make_rng("validate-fuzz", seed)
    spec = fuzz_spec(seed, rng)
    cfg = fuzz_config(rng)
    workload = build_workload(spec, seed=seed)
    inp = spec.make_input(rng.randrange(4))
    trace = generate_trace(workload, inp, max_instructions=max_instructions)

    ops = 0

    # Layer 1a: trace-level differential co-simulation.
    checker = cosimulate(workload, trace, cfg)
    ops += checker.ops
    if not checker.ok:
        failure = FuzzFailure(
            seed=seed,
            kind="divergence",
            message=f"structure {checker.divergence.structure} diverged "
            f"from its oracle",
            divergence=checker.divergence,
            trace_len=len(trace),
        )
        if shrink:
            failure.window = shrink_window(
                trace, lambda tr: not cosimulate(workload, tr, cfg).ok
            )
        return failure, ops

    # Layer 1b: randomized prefetch-buffer op stream.
    buf_checker = exercise_prefetch_buffer(
        fuzz_buffer_ops(rng), cfg.frontend.prefetch_buffer_entries
    )
    ops += buf_checker.ops
    if not buf_checker.ok:
        return (
            FuzzFailure(
                seed=seed,
                kind="divergence",
                message="prefetch buffer diverged from its oracle",
                divergence=buf_checker.divergence,
                trace_len=len(trace),
            ),
            ops,
        )

    # Layer 2: sanitized timing-simulator run.
    def serial_run(tr: Trace):
        return FrontendSimulator(workload, config=cfg).run(tr)

    def violates(tr: Trace) -> Optional[InvariantViolation]:
        try:
            serial_run(tr)
            return None
        except InvariantViolation as exc:
            return exc

    violation = violates(trace)
    if violation is not None:
        failure = FuzzFailure(
            seed=seed,
            kind="violation",
            message=str(violation),
            trace_len=len(trace),
        )
        if shrink:
            failure.window = shrink_window(
                trace, lambda tr: violates(tr) is not None
            )
        return failure, ops

    # Layer 3: batched fast path vs the sanitized serial reference.
    # The sanitizer pins a run to the serial loop, so the fast run uses
    # the same geometry with sanitize off, which a fresh simulator runs
    # on its fast loop; parity must be exact anyway.
    fast_cfg = replace(cfg, sanitize=False)

    def fast_run(tr: Trace):
        return FrontendSimulator(workload, config=fast_cfg).run(tr)

    def parity_diffs(tr: Trace):
        return result_diffs(serial_run(tr), fast_run(tr))

    diffs = parity_diffs(trace)
    if diffs:
        failure = FuzzFailure(
            seed=seed,
            kind="parity",
            message="fast path diverged from serial on field(s) "
            + ", ".join(name for name, _, _ in diffs),
            trace_len=len(trace),
        )
        if shrink:
            failure.window = shrink_window(
                trace, lambda tr: bool(parity_diffs(tr))
            )
        return failure, ops
    return None, ops


def run_fuzz(
    cases: int = DEFAULT_CASES,
    base_seed: int = 0,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    shrink: bool = True,
) -> FuzzReport:
    """Run *cases* independent fuzz cases; never raises on failure."""
    failures: List[FuzzFailure] = []
    total_ops = 0
    for case in range(cases):
        failure, ops = run_case(
            base_seed + case, max_instructions=max_instructions, shrink=shrink
        )
        total_ops += ops
        if failure is not None:
            failures.append(failure)
    return FuzzReport(cases=cases, failures=failures, ops_checked=total_ops)
