"""Figure regeneration workloads: ``figs_characterize`` and ``figs_twig``.

One *cycle* regenerates the workload's figures with ``python -m
repro.experiments`` into an empty result cache (cold), then again, three
times, on the cache it left (warm).  Cycles repeat until the run's time is up.
Every output must be byte-identical: cold, warm and traced runs of one
seed print the same digest, and seed 0 prints the digest committed in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from ..clock import now
from . import procs
from .inputs import RegenInputs, regen_inputs
from .layers import covered_time, layer_metrics
from .metrics import (
    END_TO_END,
    PER_LAYER,
    SETUP_STARTS,
    Tally,
    median,
    ordered,
)
from .spans import read_spans

# Warm re-runs per cold regeneration: they are short, so more of them
# steady their median.
WARM_RERUNS = 3
EXPECTED_PATH = os.path.join(procs.SUITE_DIR, "expected.json")


def expected_digest(workload: str, preset: str) -> Optional[str]:
    """The committed seed-0 stdout digest of *workload*, if any."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(f"{preset}/{workload}")


class _Regen:
    def __init__(self, workload: str, inputs: RegenInputs, ws: procs.Workspace):
        self.workload = workload
        self.inputs = inputs
        self.env = procs.child_env(ws.path, inputs.env())
        self.errlog = os.path.join(ws.path, "stderr.log")
        self.tally = Tally()
        self.digest: Optional[str] = None

    def setup(self) -> List[float]:
        """Start the CLI to readiness (it lists its experiments)."""
        walls = []
        for _ in range(SETUP_STARTS):
            done = procs.run([sys.executable, "-m", "repro.experiments", "--list"],
                             self.env, self.errlog)
            self.tally.check(done.returncode == 0, f"--list exited {done.returncode}")
            walls.append(done.wall_s)
        return walls

    def regenerate(self, cache: str, spans: Optional[str]) -> procs.Finished:
        args = self.inputs.cli_args(cache)
        if spans is None:
            argv = [sys.executable, "-m", "repro.experiments", *args]
        else:
            traced = os.path.join(procs.SUITE_DIR, "traced.py")
            argv = [sys.executable, traced, spans, repr(now()), *args]
        done = procs.run(argv, self.env, self.errlog)
        digest = hashlib.sha256(done.stdout).hexdigest()
        if self.digest is None:
            self.digest = digest
        self.tally.check(
            done.returncode == 0 and done.first_output_s is not None
            and digest == self.digest,
            f"{self.workload} exited {done.returncode} printing digest "
            f"{digest} (expected {self.digest})",
        )
        return done


def run_regen(workload: str, seed: int, seconds: int, trace: bool,
              preset: str) -> Tuple[Dict[str, float], Tally]:
    """Regenerate for *seconds*; returns (metrics, tally)."""
    ws = procs.Workspace(workload)
    try:
        return _run(workload, seed, seconds, trace, preset, ws)
    finally:
        ws.close()


def _run(workload, seed, seconds, trace, preset, ws):
    regen = _Regen(workload, regen_inputs(workload, seed, preset), ws)
    setups = regen.setup()
    if seed == 0:
        regen.digest = expected_digest(workload, preset)

    cold: List[procs.Finished] = []
    warm: List[procs.Finished] = []
    traced_cold: List[float] = []
    layers: List[Dict[str, float]] = []
    start = now()
    cycle = 0
    while True:
        tracing = trace and cycle % 2 == 1
        cache = ws.fresh("cache")
        if tracing:
            dirs = (ws.fresh("spans"), ws.fresh("spans"))
            c = regen.regenerate(cache, dirs[0])
            w = regen.regenerate(cache, dirs[1])
            traced_cold.append(c.wall_s)
            spans_c = read_spans(dirs[0], "cold:")
            spans_w = read_spans(dirs[1], "warm:")
            m = layer_metrics(spans_c + spans_w)
            m["bench.residual_s"] = (
                c.wall_s - covered_time(spans_c, c.pid)
                + w.wall_s - covered_time(spans_w, w.pid)
            )
            layers.append(m)
        else:
            cold.append(regen.regenerate(cache, None))
            warm.extend(regen.regenerate(cache, None) for _ in range(WARM_RERUNS))
        cycle += 1
        if now() - start >= seconds and (not trace or cycle >= 2):
            break

    tally = regen.tally
    if trace:
        out = {m.name: median([l[m.name] for l in layers]) for m in PER_LAYER}
        out["bench.trace_overhead_frac"] = (
            median(traced_cold) / median([c.wall_s for c in cold]) - 1.0
        )
        return ordered(out, PER_LAYER), tally
    metrics = {
        "setup_s": median(setups),
        "latency_ms": 1e3 * median([c.wall_s for c in cold]),
        "fresh_s": median([c.first_output_s or c.wall_s for c in cold]),
        "recover_s": median([w.wall_s for w in warm]),
        "peak_rss_mb": max(r.maxrss_mb for r in cold + warm),
    }
    return ordered(metrics, END_TO_END), tally
