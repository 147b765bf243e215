"""Per-figure experiment computations.

Every ``figNN`` function returns a dict with at least:

* ``"per_app"`` — mapping app name -> measured value(s);
* ``"average"`` — the cross-app aggregate the paper quotes;
* ``"paper"`` — the paper-reported aggregate for EXPERIMENTS.md.

Figures that sweep a parameter return ``"series"`` instead of
``per_app``: mapping sweep value -> aggregate.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cdf import cdf_at, injection_offsets, offset_cdf
from ..analysis.temporal import classify_streams
from ..analysis.threec import classify_3c
from ..analysis.topdown import topdown
from ..analysis.working_set import (
    spatial_range_fraction,
    unconditional_working_set,
)
from ..config import BTBConfig, SimConfig
from ..core.candidates import select_injection_sites
from .parallel import RunRequest
from .runner import ExperimentRunner, get_runner

# Apps used for parameter sweeps (full nine-app sweeps would multiply
# simulation cost; the paper's sweep figures report cross-app averages,
# which these three — a mid, an extreme, and a small app — bracket).
SWEEP_APPS = ("cassandra", "verilator", "wordpress")


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _requests(
    r: ExperimentRunner,
    systems: Sequence[str],
    apps: Optional[Sequence[str]] = None,
    config: Optional[SimConfig] = None,
    cache_tag: str = "",
    inputs: Sequence[Optional[int]] = (None,),
) -> List[RunRequest]:
    """Cross-product of run requests for :meth:`ExperimentRunner.warm`.

    Each figure warms every run it is about to consume in one call, so
    with ``jobs > 1`` the whole figure fans out across workers before
    the (now cache-hitting) serial aggregation loop below it.
    """
    return [
        RunRequest(app, system, input_idx=idx, cache_tag=cache_tag, config=config)
        for app in (apps if apps is not None else r.apps)
        for system in systems
        for idx in inputs
    ]


# ----------------------------------------------------------------------
# §2 characterization
# ----------------------------------------------------------------------

def fig01_frontend_bound(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 1: fraction of pipeline slots lost to the frontend."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline",)))
    per_app = {}
    for app in r.apps:
        res = r.run(app, "baseline")
        td = topdown(res, width=SimConfig().core.width)
        per_app[app] = td.frontend_bound
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"range": (0.24, 0.78)},
    }


def fig02_limit_study(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 2: ideal-I-cache and ideal-BTB speedups over FDIP."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline", "ideal_icache", "ideal_btb")))
    per_app = {}
    for app in r.apps:
        per_app[app] = {
            "ideal_icache": r.speedup(app, "ideal_icache"),
            "ideal_btb": r.speedup(app, "ideal_btb"),
        }
    return {
        "per_app": per_app,
        "average": {
            "ideal_icache": _mean([v["ideal_icache"] for v in per_app.values()]),
            "ideal_btb": _mean([v["ideal_btb"] for v in per_app.values()]),
        },
        "paper": {"ideal_icache": 24.0, "ideal_btb": 31.0},
    }


def fig03_btb_mpki(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 3: baseline BTB MPKI per app (paper: 8-121, avg 29.7)."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline",)))
    per_app = {app: r.run(app, "baseline").btb_mpki() for app in r.apps}
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"average": 29.7, "range": (8.0, 121.0)},
    }


def fig04_3c_breakdown(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 4: compulsory/capacity/conflict shares of BTB misses."""
    r = runner or get_runner()
    per_app = {}
    for app in r.apps:
        tr = r.long_trace(app)
        res = classify_3c(r.workload(app), tr, skip=len(tr) // 2)
        comp, cap, conf = res.fractions()
        per_app[app] = {"compulsory": comp, "capacity": cap, "conflict": conf}
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v[k] for v in per_app.values()])
            for k in ("compulsory", "capacity", "conflict")
        },
        "paper": {"capacity": 0.70, "conflict": 0.2448},
    }


def fig05_capacity_vs_size(
    runner: Optional[ExperimentRunner] = None,
    sizes: Sequence[int] = (2048, 4096, 8192, 16384, 32768, 65536),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 5: capacity-miss share as BTB size grows 2K -> 64K."""
    r = runner or get_runner()
    series: Dict[int, Dict[str, float]] = {}
    base_misses: Dict[str, int] = {}
    for size in sizes:
        row = {}
        for app in apps:
            tr = r.long_trace(app)
            res = classify_3c(
                r.workload(app), tr, BTBConfig(entries=size, ways=4),
                skip=len(tr) // 2,
            )
            if size == sizes[0]:
                base_misses[app] = max(1, res.misses)
            # Normalize against the smallest BTB's miss count so the
            # curve shows capacity misses *remaining*.
            row[app] = res.capacity / base_misses[app]
        series[size] = row
    return {
        "series": series,
        "paper": {"note": "capacity misses persist until 32K-64K entries"},
    }


def fig06_conflict_vs_assoc(
    runner: Optional[ExperimentRunner] = None,
    ways_list: Sequence[int] = (4, 8, 16, 32, 64, 128),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 6: conflict-miss share as associativity grows 4 -> 128."""
    r = runner or get_runner()
    series: Dict[int, Dict[str, float]] = {}
    base_misses: Dict[str, int] = {}
    for ways in ways_list:
        row = {}
        for app in apps:
            tr = r.long_trace(app)
            res = classify_3c(
                r.workload(app), tr, BTBConfig(entries=8192, ways=ways),
                skip=len(tr) // 2,
            )
            if ways == ways_list[0]:
                base_misses[app] = max(1, res.misses)
            row[app] = res.conflict / base_misses[app]
        series[ways] = row
    return {
        "series": series,
        "paper": {"note": "conflict misses persist even at 128 ways"},
    }


def fig07_access_breakdown(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 7: BTB accesses by branch type (conditionals dominate)."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline",)))
    per_app = {}
    for app in r.apps:
        res = r.run(app, "baseline")
        total = max(1, sum(res.btb_accesses_by_kind.values()))
        per_app[app] = {
            k: v / total for k, v in res.btb_accesses_by_kind.items()
        }
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v.get(k, 0.0) for v in per_app.values()])
            for k in ("cond_direct", "uncond_direct", "call_direct")
        },
        "paper": {"note": "conditionals dominate accesses; uncond+calls ~20.75%"},
    }


def fig08_miss_breakdown(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 8: BTB misses by branch type (uncond+calls overrepresented)."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline",)))
    per_app = {}
    for app in r.apps:
        res = r.run(app, "baseline")
        total = max(1, sum(res.btb_misses_by_kind.values()))
        per_app[app] = {k: v / total for k, v in res.btb_misses_by_kind.items()}
    avg = {
        k: _mean([v.get(k, 0.0) for v in per_app.values()])
        for k in ("cond_direct", "uncond_direct", "call_direct")
    }
    return {
        "per_app": per_app,
        "average": avg,
        "paper": {"uncond_plus_calls_miss_share": 0.375},
    }


def fig09_prior_speedups(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 9: Shotgun and Confluence speedups over FDIP."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline", "shotgun", "confluence")))
    per_app = {
        app: {
            "shotgun": r.speedup(app, "shotgun"),
            "confluence": r.speedup(app, "confluence"),
        }
        for app in r.apps
    }
    return {
        "per_app": per_app,
        "average": {
            "shotgun": _mean([v["shotgun"] for v in per_app.values()]),
            "confluence": _mean([v["confluence"] for v in per_app.values()]),
        },
        "paper": {"note": "both capture only a small fraction of ideal-BTB speedup"},
    }


def fig10_temporal_streams(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 10: recurring / new / non-repetitive miss-stream shares."""
    r = runner or get_runner()
    per_app = {}
    for app in r.apps:
        b = classify_streams(r.workload(app), r.long_trace(app))
        rec, new, nonrep = b.fractions()
        per_app[app] = {"recurring": rec, "new": new, "non_repetitive": nonrep}
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v[k] for v in per_app.values()])
            for k in ("recurring", "new", "non_repetitive")
        },
        "paper": {"recurring": 0.52, "new": 0.36, "non_repetitive": 0.12},
    }


def fig11_uncond_working_set(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 11: unconditional-branch working set vs Shotgun's 5120 U-BTB."""
    r = runner or get_runner()
    per_app = {
        app: unconditional_working_set(r.workload(app), r.trace(app))
        for app in r.apps
    }
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"ubtb_entries": 5120, "note": "apps straddle the U-BTB size"},
    }


def fig12_spatial_range(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 12: conditionals outside Shotgun's 8-line spatial window."""
    r = runner or get_runner()
    per_app = {
        app: spatial_range_fraction(r.workload(app), r.trace(app), range_lines=8)
        for app in r.apps
    }
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"range": (0.26, 0.45)},
    }


# ----------------------------------------------------------------------
# §3 design data
# ----------------------------------------------------------------------

def _offset_data(r: ExperimentRunner, app: str) -> Tuple[List[int], List[int]]:
    profile = r.profile(app)
    selections = select_injection_sites(profile, SimConfig().twig)
    return injection_offsets(r.workload(app), selections)


def fig14_branch_offset_cdf(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 14: CDF of prefetch-to-branch offsets (80% at 12 bits)."""
    r = runner or get_runner()
    per_app = {}
    for app in r.apps:
        to_branch, _ = _offset_data(r, app)
        cdf = offset_cdf(to_branch)
        per_app[app] = {"at_12_bits": cdf_at(cdf, 12), "cdf": cdf}
    return {
        "per_app": {a: v["at_12_bits"] for a, v in per_app.items()},
        "cdfs": {a: v["cdf"] for a, v in per_app.items()},
        "average": _mean([v["at_12_bits"] for v in per_app.values()]),
        "paper": {"at_12_bits": 0.80},
    }


def fig15_target_offset_cdf(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 15: CDF of branch-to-target offsets (80% at 12 bits)."""
    r = runner or get_runner()
    per_app = {}
    for app in r.apps:
        _, to_target = _offset_data(r, app)
        cdf = offset_cdf(to_target)
        per_app[app] = {"at_12_bits": cdf_at(cdf, 12), "cdf": cdf}
    return {
        "per_app": {a: v["at_12_bits"] for a, v in per_app.items()},
        "cdfs": {a: v["cdf"] for a, v in per_app.items()},
        "average": _mean([v["at_12_bits"] for v in per_app.values()]),
        "paper": {"at_12_bits": 0.80, "note": "verilator needs more bits"},
    }


# ----------------------------------------------------------------------
# §4 evaluation
# ----------------------------------------------------------------------

def fig16_speedup(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 16: Twig vs ideal BTB, Shotgun, and a 32K-entry BTB."""
    r = runner or get_runner()
    cfg32k = SimConfig().with_btb(entries=32768)
    r.warm(
        _requests(r, ("baseline", "twig", "ideal_btb", "shotgun"))
        + _requests(r, ("baseline",), config=cfg32k)
    )
    per_app = {}
    for app in r.apps:
        per_app[app] = {
            "twig": r.speedup(app, "twig"),
            "ideal_btb": r.speedup(app, "ideal_btb"),
            "shotgun": r.speedup(app, "shotgun"),
            "btb_32k": r.run(app, "baseline", config=cfg32k).speedup_over(
                r.run(app, "baseline")
            ),
        }
    avg = {
        k: _mean([v[k] for v in per_app.values()])
        for k in ("twig", "ideal_btb", "shotgun", "btb_32k")
    }
    return {
        "per_app": per_app,
        "average": avg,
        "paper": {"twig": 20.86, "ideal_btb": 31.0, "shotgun": 1.0},
    }


def fig17_coverage(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 17: BTB miss coverage of Twig, Confluence, and Shotgun."""
    r = runner or get_runner()
    r.warm(_requests(r, ("baseline", "twig", "shotgun", "confluence")))
    per_app = {
        app: {
            "twig": r.miss_reduction(app, "twig"),
            "shotgun": r.miss_reduction(app, "shotgun"),
            "confluence": r.miss_reduction(app, "confluence"),
        }
        for app in r.apps
    }
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v[k] for v in per_app.values()])
            for k in ("twig", "shotgun", "confluence")
        },
        "paper": {"twig": 0.654},
    }


def fig18_contribution(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 18: software-prefetch-only vs +coalescing contribution."""
    r = runner or get_runner()
    no_coalesce = SimConfig().with_twig(enable_coalescing=False)
    r.warm(
        _requests(r, ("baseline", "twig"))
        + _requests(r, ("twig",), config=no_coalesce, cache_tag="sw_only")
    )
    per_app = {}
    for app in r.apps:
        full = r.speedup(app, "twig")
        sw_only = r.run(
            app, "twig", config=no_coalesce, cache_tag="sw_only"
        ).speedup_over(r.run(app, "baseline"))
        per_app[app] = {
            "software_only": sw_only,
            "full": full,
            "coalescing_gain": full - sw_only,
        }
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v[k] for v in per_app.values()])
            for k in ("software_only", "full", "coalescing_gain")
        },
        "paper": {"software_share": 0.709, "coalescing_share": 0.291},
    }


def fig19_accuracy(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 19: BTB prefetch accuracy of Twig, Confluence, Shotgun."""
    r = runner or get_runner()
    r.warm(_requests(r, ("twig", "shotgun", "confluence")))
    per_app = {
        app: {
            "twig": r.run(app, "twig").prefetch_accuracy(),
            "shotgun": r.run(app, "shotgun").prefetch_accuracy(),
            "confluence": r.run(app, "confluence").prefetch_accuracy(),
        }
        for app in r.apps
    }
    return {
        "per_app": per_app,
        "average": {
            k: _mean([v[k] for v in per_app.values()])
            for k in ("twig", "shotgun", "confluence")
        },
        "paper": {"twig": 0.313, "twig_minus_shotgun": 0.123},
    }


def fig20_cross_input(
    runner: Optional[ExperimentRunner] = None,
    test_inputs: Sequence[int] = (1, 2, 3),
) -> Dict:
    """Fig 20 / Table 2: % of ideal-BTB speedup across inputs.

    'training' uses the input-#0 profile on each test input; 'same'
    re-profiles on the test input itself.
    """
    r = runner or get_runner()
    r.warm(
        _requests(r, ("baseline", "ideal_btb"), inputs=test_inputs)
        + [
            RunRequest(app, "twig", input_idx=idx, profile_input=pidx)
            for app in r.apps
            for idx in test_inputs
            for pidx in (0, idx)
        ]
    )
    per_app: Dict[str, Dict[str, List[float]]] = {}
    for app in r.apps:
        same: List[float] = []
        train: List[float] = []
        for idx in test_inputs:
            base = r.run(app, "baseline", input_idx=idx)
            ideal = r.run(app, "ideal_btb", input_idx=idx)
            ideal_gain = ideal.speedup_over(base)
            if ideal_gain <= 0:
                continue
            tw_train = r.run(app, "twig", input_idx=idx, profile_input=0)
            tw_same = r.run(app, "twig", input_idx=idx, profile_input=idx)
            train.append(100.0 * tw_train.speedup_over(base) / ideal_gain)
            same.append(100.0 * tw_same.speedup_over(base) / ideal_gain)
        per_app[app] = {"same_input": same, "training_profile": train}
    return {
        "per_app": per_app,
        "average": {
            "same_input": _mean([x for v in per_app.values() for x in v["same_input"]]),
            "training_profile": _mean(
                [x for v in per_app.values() for x in v["training_profile"]]
            ),
        },
        "paper": {"note": "cross-input within a few points of same-input (Table 2)"},
    }


def fig21_static_overhead(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 21: static instruction overhead (paper avg 6%)."""
    r = runner or get_runner()
    per_app = {}
    for app in r.apps:
        plan = r.plan(app)
        wl = r.workload(app)
        per_app[app] = plan.static_instruction_count() / max(
            1, sum(wl.block_instructions)
        )
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"average": 0.06, "max": 0.08},
    }


def fig22_dynamic_overhead(runner: Optional[ExperimentRunner] = None) -> Dict:
    """Fig 22: dynamic instruction overhead (paper avg 3%)."""
    r = runner or get_runner()
    r.warm(_requests(r, ("twig",)))
    per_app = {app: r.run(app, "twig").dynamic_overhead() for app in r.apps}
    return {
        "per_app": per_app,
        "average": _mean(list(per_app.values())),
        "paper": {"average": 0.03, "max": 0.126},
    }


# ----------------------------------------------------------------------
# §4.3 sensitivity
# ----------------------------------------------------------------------

def _pct_of_ideal(r: ExperimentRunner, app: str, system: str, config: SimConfig, tag: str) -> float:
    base = r.run(app, "baseline", config=config, cache_tag=tag)
    ideal = r.run(app, "ideal_btb", config=config, cache_tag=tag)
    res = r.run(app, system, config=config, cache_tag=tag)
    ideal_gain = ideal.speedup_over(base)
    if ideal_gain <= 0:
        return 0.0
    return 100.0 * res.speedup_over(base) / ideal_gain


def fig23_btb_size(
    runner: Optional[ExperimentRunner] = None,
    sizes: Sequence[int] = (2048, 8192, 32768, 65536),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 23: % of ideal-BTB speedup vs BTB capacity."""
    r = runner or get_runner()
    sweep_systems = ("baseline", "ideal_btb", "twig", "shotgun", "confluence")
    r.warm([
        q
        for size in sizes
        for q in _requests(r, sweep_systems, apps=apps,
                           config=SimConfig().with_btb(entries=size),
                           cache_tag=f"size{size}")
    ])
    series = {}
    for size in sizes:
        cfg = SimConfig().with_btb(entries=size)
        series[size] = {
            system: _mean([
                _pct_of_ideal(r, app, system, cfg, f"size{size}") for app in apps
            ])
            for system in ("twig", "shotgun", "confluence")
        }
    return {"series": series, "paper": {"note": "Twig leads at every size"}}


def fig24_btb_assoc(
    runner: Optional[ExperimentRunner] = None,
    ways_list: Sequence[int] = (4, 16, 64, 128),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 24: % of ideal-BTB speedup vs associativity."""
    r = runner or get_runner()
    sweep_systems = ("baseline", "ideal_btb", "twig", "shotgun", "confluence")
    r.warm([
        q
        for ways in ways_list
        for q in _requests(r, sweep_systems, apps=apps,
                           config=SimConfig().with_btb(ways=ways),
                           cache_tag=f"assoc{ways}")
    ])
    series = {}
    for ways in ways_list:
        cfg = SimConfig().with_btb(ways=ways)
        series[ways] = {
            system: _mean([
                _pct_of_ideal(r, app, system, cfg, f"assoc{ways}") for app in apps
            ])
            for system in ("twig", "shotgun", "confluence")
        }
    return {"series": series, "paper": {"note": "Twig leads at every associativity"}}


def fig25_prefetch_buffer(
    runner: Optional[ExperimentRunner] = None,
    sizes: Sequence[int] = (8, 32, 128, 256),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 25: % of ideal vs prefetch-buffer size (scales to ~128)."""
    r = runner or get_runner()
    r.warm([
        q
        for size in sizes
        for q in _requests(r, ("baseline", "ideal_btb", "twig"), apps=apps,
                           config=SimConfig().with_prefetch_buffer(size),
                           cache_tag=f"pfbuf{size}")
    ])
    series = {}
    for size in sizes:
        cfg = SimConfig().with_prefetch_buffer(size)
        series[size] = {
            "twig": _mean([
                _pct_of_ideal(r, app, "twig", cfg, f"pfbuf{size}") for app in apps
            ])
        }
    return {"series": series, "paper": {"note": "scales to ~128 entries"}}


def fig26_prefetch_distance(
    runner: Optional[ExperimentRunner] = None,
    distances: Sequence[int] = (0, 5, 10, 20, 35, 50),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 26: % of ideal vs prefetch distance (best 15-25 cycles)."""
    r = runner or get_runner()
    r.warm([
        q
        for dist in distances
        for q in _requests(r, ("baseline", "ideal_btb", "twig"), apps=apps,
                           config=SimConfig().with_twig(prefetch_distance=dist),
                           cache_tag=f"dist{dist}")
    ])
    series = {}
    for dist in distances:
        cfg = SimConfig().with_twig(prefetch_distance=dist)
        series[dist] = {
            "twig": _mean([
                _pct_of_ideal(r, app, "twig", cfg, f"dist{dist}") for app in apps
            ])
        }
    return {"series": series, "paper": {"best_range": (15, 25)}}


def fig27_coalesce_bitmask(
    runner: Optional[ExperimentRunner] = None,
    bits_list: Sequence[int] = (1, 2, 4, 8, 16, 64),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 27: coalescing gain vs bitmask width (8 bits enough)."""
    r = runner or get_runner()
    r.warm([
        q
        for bits in bits_list
        for q in _requests(r, ("baseline", "ideal_btb", "twig"), apps=apps,
                           config=SimConfig().with_twig(coalesce_bits=bits),
                           cache_tag=f"mask{bits}")
    ])
    series = {}
    for bits in bits_list:
        cfg = SimConfig().with_twig(coalesce_bits=bits)
        series[bits] = {
            "twig": _mean([
                _pct_of_ideal(r, app, "twig", cfg, f"mask{bits}") for app in apps
            ])
        }
    return {"series": series, "paper": {"sufficient_bits": 8}}


def fig28_ftq_runahead(
    runner: Optional[ExperimentRunner] = None,
    ftq_sizes: Sequence[int] = (1, 4, 16, 24, 64),
    apps: Sequence[str] = SWEEP_APPS,
) -> Dict:
    """Fig 28: % of ideal vs FTQ depth (Twig stable at every depth)."""
    r = runner or get_runner()
    r.warm([
        q
        for size in ftq_sizes
        for q in _requests(r, ("baseline", "ideal_btb", "twig"), apps=apps,
                           config=SimConfig().with_ftq(size),
                           cache_tag=f"ftq{size}")
    ])
    series = {}
    for size in ftq_sizes:
        cfg = SimConfig().with_ftq(size)
        series[size] = {
            "twig": _mean([
                _pct_of_ideal(r, app, "twig", cfg, f"ftq{size}") for app in apps
            ])
        }
    return {"series": series, "paper": {"note": "similar % of ideal at every FTQ size"}}


def drift01_canary_matrix(
    runner: Optional[ExperimentRunner] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict:
    """drift01: scenario × canary-verdict matrix (extension, DESIGN §16).

    Not a paper figure: the online-adaptation extension's headline
    result.  Each ``(app, scenario)`` cell replays one full drift
    episode through the canarying plan service — baseline publish,
    drifted re-profile, staged candidate, live feedback split, verdict
    — and reports 1.0 when the verdict matches the scenario's ground
    truth (``deploy`` must roll back; ``steady``/``diurnal``/``jit``
    must promote).  Episodes run their own service pipeline rather
    than the simulation cache, so the bench's own (smaller) default
    trace length applies unless the runner's is smaller still.
    """
    from ..drift.bench import run_drift
    from ..drift.scenarios import SCENARIO_KINDS
    from ..service.bench import Scenario

    r = runner or get_runner()
    scenario = Scenario(
        apps=tuple(r.apps),
        trace_instructions=min(
            r.settings.trace_instructions, Scenario.trace_instructions
        ),
    )
    report = run_drift(
        scenario,
        kinds=tuple(scenarios) if scenarios is not None else SCENARIO_KINDS,
    )
    per_app: Dict[str, Dict[str, float]] = {}
    for case in report.cases:
        per_app.setdefault(case.app, {})[case.scenario] = (
            1.0 if case.verdict_correct else 0.0
        )
    return {
        "per_app": per_app,
        "average": report.verdict_accuracy or 0.0,
        "recovery_ok": report.recovery_ok,
        "paper": {
            "note": "extension: deploy drifts auto-roll-back, others promote"
        },
    }
