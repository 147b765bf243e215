"""Seeded inputs for the four benchmark workloads.

Everything the program sees is generated here from ``(workload, seed,
preset)``: the app set and trace length of a figure regeneration, the
sample streams a profiler fleet ships to the plan service, and the
open-loop arrival schedule of every request.  The same triple always
yields the same inputs (``tests/bench`` pins this).

The seed varies the inputs without varying how much work they are, so
runs with different seeds measure the same thing:

* regeneration: seed 0 is the canonical trace length; other seeds draw
  a length within ±2% of it, so each seed simulates a different
  instruction window of the same apps;
* service: the seed jitters the arrival schedule and, on
  ``service_ingest``, picks each lane's input (0-3); every lane ships
  the same number of samples, so the plans the service builds, gates
  and serves stay the same size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...config import SimConfig
from ...core.twig import build_plan
from ...core.plan import PrefetchPlan
from ...errors import BenchError
from ...profiling.profile import MissProfile, MissSample
from ...service.bench import collect_sample_stream
from ...service.server import default_workload_resolver
from ...trace.walker import generate_trace
from ...workloads.rng import make_rng

REGEN_WORKLOADS = ("figs_characterize", "figs_twig")
WORKLOADS = REGEN_WORKLOADS + ("service_ingest", "service_fetch")
PRESETS = ("full", "smoke")


@dataclass(frozen=True)
class RegenInputs:
    """One ``python -m repro.experiments`` invocation."""

    apps: Tuple[str, ...]
    instructions: int
    jobs: int
    experiments: Tuple[str, ...]

    def cli_args(self, cache_dir: str) -> List[str]:
        return ["--jobs", str(self.jobs), "--cache-dir", cache_dir, *self.experiments]

    def env(self) -> Dict[str, str]:
        return {
            "REPRO_APPS": ",".join(self.apps),
            "REPRO_TRACE_INSTRUCTIONS": str(self.instructions),
        }


# (apps, canonical trace length, --jobs, experiments) per preset.
_REGEN = {
    "full": {
        "figs_characterize": (("wordpress", "drupal"), 100_000, 2, ("fig02", "fig09")),
        "figs_twig": (("wordpress",), 30_000, 1, ("fig16", "fig20")),
    },
    "smoke": {
        "figs_characterize": (("wordpress",), 4_000, 2, ("fig02", "fig09")),
        "figs_twig": (("wordpress",), 4_000, 1, ("fig16",)),
    },
}


def regen_inputs(workload: str, seed: int, preset: str = "full") -> RegenInputs:
    apps, base, jobs, experiments = _REGEN[preset][workload]
    instructions = base
    if seed != 0:
        rng = make_rng("bench-regen", workload, seed)
        instructions = base + round(base * 0.02 * (2.0 * rng.random() - 1.0))
    return RegenInputs(apps, instructions, jobs, experiments)


# ----------------------------------------------------------------------
# Plan service
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceSizing:
    """Load shape of one service workload (see README for the why)."""

    apps: Tuple[str, ...]
    inputs: Tuple[int, ...]  # the app inputs the seed picks each lane's from
    trace_instructions: int  # length of the trace each stream is cut from
    batches_per_lane: int
    batch_size: int
    ingest_rate: float  # batches/s per lane; 0 = as fast as acks allow
    fetch_ladder: Tuple[float, ...]  # total rps per step; the first is the base
    restarts: int  # SIGKILL + restore cycles per session


# Ingest arrives at 5 batches/s over the two lanes.  A lane's batches
# are 400 ms apart, longer than the service's 50 ms rebuild debounce, so
# shards rebuild (build, publish gate, publish snapshot) all through the
# stream, and 2 x 37 batches cross its 16-batch snapshot cadence four
# times.  37 batches of 64 are the first 2368 samples of a
# 100k-instruction trace, which every input of both apps yields; the
# served plans are about 250 KB of JSON.
#
# The fetch workload serves the same plans from a fixed fixture (input
# 0): its load is the request schedule, and plan size, which sets the
# cost of a fetch, depends on the sample count, not on the input.  The
# input does set the cost of priming (the publish gate's time varies by
# up to 2x between inputs), which would move ``fresh_s`` by seed.
_LADDER = (15.0, 20.0, 30.0, 45.0)
_SERVICE = {
    "full": {
        "service_ingest": ServiceSizing(
            apps=("wordpress", "drupal"),
            inputs=(0, 1, 2, 3),
            trace_instructions=100_000,
            batches_per_lane=37,
            batch_size=64,
            ingest_rate=2.5,
            fetch_ladder=(),
            restarts=3,
        ),
        "service_fetch": ServiceSizing(
            apps=("wordpress", "drupal"),
            inputs=(0,),
            trace_instructions=100_000,
            batches_per_lane=37,
            batch_size=64,
            ingest_rate=0.0,
            fetch_ladder=_LADDER,
            restarts=4,
        ),
    },
    "smoke": {
        "service_ingest": ServiceSizing(
            apps=("wordpress", "drupal"),
            inputs=(0, 1, 2, 3),
            trace_instructions=12_000,
            batches_per_lane=3,
            batch_size=32,
            ingest_rate=2.5,
            fetch_ladder=(),
            restarts=1,
        ),
        "service_fetch": ServiceSizing(
            apps=("wordpress", "drupal"),
            inputs=(0,),
            trace_instructions=12_000,
            batches_per_lane=3,
            batch_size=32,
            ingest_rate=0.0,
            fetch_ladder=_LADDER[:2],
            restarts=1,
        ),
    },
}


@dataclass(frozen=True)
class Lane:
    """One profiler host streaming one shard, in arrival order."""

    app: str
    label: str
    samples: Tuple[MissSample, ...]

    @property
    def key(self) -> Tuple[str, str]:
        return (self.app, self.label)

    def batches(self, batch_size: int) -> List[Tuple[MissSample, ...]]:
        return [
            self.samples[i : i + batch_size]
            for i in range(0, len(self.samples), batch_size)
        ]


@dataclass(frozen=True)
class ServiceInputs:
    sizing: ServiceSizing
    lanes: Tuple[Lane, ...]

    def offline_plans(self, resolve) -> Dict[Tuple[str, str], PrefetchPlan]:
        """What every served plan must equal: ``build_plan`` on the same
        samples, folded in arrival order outside the service."""
        cfg = SimConfig()
        plans = {}
        for lane in self.lanes:
            profile = MissProfile(app_name=lane.app, input_label=lane.label)
            for s in lane.samples:
                profile.add_sample(s.miss_pc, s.miss_block, s.window)
            plans[lane.key] = build_plan(resolve(lane.app), profile, cfg)
        return plans


def service_sizing(workload: str, preset: str = "full") -> ServiceSizing:
    return _SERVICE[preset][workload]


def service_inputs(workload: str, seed: int, preset: str = "full",
                   resolve=None) -> ServiceInputs:
    """Per-lane sample streams: the first samples profiled on the app
    input the seed picks for that lane."""
    sizing = service_sizing(workload, preset)
    if resolve is None:
        resolve = default_workload_resolver()
    cfg = SimConfig()
    need = sizing.batches_per_lane * sizing.batch_size
    rng = make_rng("bench-service-inputs", workload, seed)
    lanes = []
    for app in sizing.apps:
        workload_obj = resolve(app)
        trace = generate_trace(
            workload_obj,
            workload_obj.spec.make_input(rng.choice(sizing.inputs)),
            max_instructions=sizing.trace_instructions,
        )
        _profile, stream = collect_sample_stream(workload_obj, trace, cfg)
        if len(stream) < need:
            raise BenchError(
                f"{app} yields {len(stream)} samples; "
                f"the workload ships {need} per lane"
            )
        lanes.append(Lane(app, trace.label, tuple(stream[:need])))
    return ServiceInputs(sizing, tuple(lanes))


def arrival_offsets(
    workload: str, seed: int, stream: int, lane: int, lanes: int,
    count: int, rate: float,
) -> List[float]:
    """Due times (seconds from the start) of one lane's *count* requests.

    Periodic at *rate* per second, the lanes of a stream evenly staggered
    so their requests interleave instead of colliding, each request
    jittered by up to ±10% of the period from a seed: steady enough that
    runs agree, irregular enough to exercise the queue.
    """
    if rate <= 0:
        return [0.0] * count
    period = 1.0 / rate
    phase = (lane + 0.5) / lanes * period
    rng = make_rng("bench-arrivals", workload, seed, stream, lane, count, rate)
    return [
        phase + k * period + (rng.random() - 0.5) * 0.2 * period
        for k in range(count)
    ]
