"""Profile collection: run a baseline simulation with LBR recording.

This stands in for attaching ``perf`` with the ``baclears.any`` event
plus LBR to a production process (§4.1): the application runs under the
*baseline* configuration (no prefetching) and every sampled BTB miss
contributes one predecessor window to the profile.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimConfig
from ..prefetchers.base import BaselineBTBSystem
from ..trace.events import Trace
from ..uarch.sim import FrontendSimulator
from ..workloads.cfg import Workload
from .lbr import LBRRecorder
from .profile import MissProfile


def collect_profile(
    workload: Workload,
    trace: Trace,
    config: Optional[SimConfig] = None,
    sample_rate: int = 1,
    warmup_units: int = 0,
) -> MissProfile:
    """Profile *workload* on *trace*: returns the aggregated miss profile.

    ``sample_rate`` keeps one of every N misses, emulating perf-counter
    sampling overhead limits in production (the paper's profiles are
    sampled too; Twig tolerates sparse profiles because it ranks by
    conditional probability, not raw counts).
    """
    cfg = config if config is not None else SimConfig()
    profile = MissProfile(app_name=workload.name, input_label=trace.label)
    recorder = LBRRecorder(profile, sample_rate=sample_rate)
    sim = FrontendSimulator(
        workload,
        config=cfg,
        btb_system=BaselineBTBSystem(cfg),
        lbr_recorder=recorder,
    )
    sim.run(trace, label=f"profile:{trace.label}", warmup_units=warmup_units)
    profile.validate()
    return profile
