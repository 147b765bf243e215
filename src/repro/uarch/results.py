"""Simulation result counters and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from ..errors import InvariantViolation


@dataclass
class SimResult:
    """Everything one simulation run measured.

    Raw counters are plain attributes; derived metrics (IPC, MPKI,
    coverage, accuracy) are methods so they always reflect the final
    counter values.
    """

    label: str = ""
    instructions: int = 0
    cycles: int = 0

    # --- BTB behaviour (direct branches only, per the paper's metric) --
    btb_accesses: int = 0
    btb_misses: int = 0            # uncovered taken-direct misses (resteers)
    btb_covered_misses: int = 0    # would-be misses served by a prefetch
    btb_accesses_by_kind: Dict[str, int] = field(default_factory=dict)
    btb_misses_by_kind: Dict[str, int] = field(default_factory=dict)

    # --- other speculation events --------------------------------------
    cond_mispredicts: int = 0
    indirect_mispredicts: int = 0
    ras_mispredicts: int = 0

    # --- prefetch machinery --------------------------------------------
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetch_ops_executed: int = 0   # dynamic brprefetch/brcoalesce count

    # --- cycle attribution ----------------------------------------------
    fetch_stall_cycles: int = 0      # exposed I-cache latency
    resteer_cycles: int = 0          # BTB-miss resteers
    mispredict_cycles: int = 0       # direction/target flushes
    icache_demand_misses: int = 0

    # --- static/dynamic overhead of injected code ------------------------
    extra_dynamic_instructions: int = 0

    # ------------------------------------------------------------------
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def btb_mpki(self) -> float:
        """Uncovered BTB misses per kilo-instruction (Fig 3 metric)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.btb_misses / self.instructions

    def total_would_be_misses(self) -> int:
        """Misses the baseline would take: covered + uncovered."""
        return self.btb_misses + self.btb_covered_misses

    def coverage(self) -> float:
        """Fraction of would-be BTB misses eliminated by prefetching."""
        total = self.total_would_be_misses()
        return self.btb_covered_misses / total if total else 0.0

    def prefetch_accuracy(self) -> float:
        """Fraction of issued BTB prefetches that served a lookup."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_used / self.prefetches_issued

    def frontend_bound(self, width: int = 6) -> float:
        """Fraction of pipeline slots lost to the frontend (Fig 1).

        Only frontend stalls are modelled, so every lost slot is a
        frontend slot — matching the Top-Down 'frontend bound' bucket.
        """
        total_slots = self.cycles * width
        if not total_slots:
            return 0.0
        return max(0.0, 1.0 - self.instructions / total_slots)

    def speedup_over(self, baseline: "SimResult") -> float:
        """Percent speedup of this run relative to *baseline*."""
        if not baseline.cycles or not self.cycles:
            return 0.0
        return 100.0 * (baseline.cycles / self.cycles - 1.0)

    def dynamic_overhead(self) -> float:
        """Extra dynamic instructions as a fraction of the original."""
        base = self.instructions - self.extra_dynamic_instructions
        return self.extra_dynamic_instructions / base if base else 0.0

    def validate(self) -> "SimResult":
        """Check the counter accounting identities; returns self.

        Run by the simulator under ``SimConfig.sanitize`` and usable
        standalone on deserialized results (e.g. suspicious cache
        entries).  Raises :class:`~repro.errors.InvariantViolation` on
        the first broken identity.

        ``prefetches_used <= prefetches_issued`` is deliberately *not*
        asserted: both are measurement-window deltas, and a prefetch
        issued during warmup may legitimately be consumed inside the
        window.
        """
        def fail(message: str) -> None:
            raise InvariantViolation("results", message, entry=self.label)

        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value < 0:
                fail(f"counter {f.name} is negative ({value})")
        if self.instructions and not self.cycles:
            fail(f"{self.instructions} instructions retired in zero cycles")
        if self.btb_misses + self.btb_covered_misses > self.btb_accesses:
            fail(
                f"misses ({self.btb_misses}) + covered "
                f"({self.btb_covered_misses}) exceed accesses "
                f"({self.btb_accesses})"
            )
        if self.btb_accesses_by_kind:
            acc_sum = sum(self.btb_accesses_by_kind.values())
            if acc_sum != self.btb_accesses:
                fail(
                    f"per-kind accesses sum to {acc_sum}, "
                    f"total is {self.btb_accesses}"
                )
        if self.btb_misses_by_kind:
            miss_sum = sum(self.btb_misses_by_kind.values())
            if miss_sum != self.btb_misses:
                fail(
                    f"per-kind misses sum to {miss_sum}, "
                    f"total is {self.btb_misses}"
                )
            for kind, misses in self.btb_misses_by_kind.items():
                accesses = self.btb_accesses_by_kind.get(kind, 0)
                if misses > accesses:
                    fail(
                        f"{kind} misses ({misses}) exceed accesses ({accesses})"
                    )
        if self.extra_dynamic_instructions > self.instructions:
            fail(
                f"injected instructions ({self.extra_dynamic_instructions}) "
                f"exceed total retired ({self.instructions})"
            )
        return self

    def summary(self) -> str:
        return (
            f"{self.label}: IPC={self.ipc():.3f} MPKI={self.btb_mpki():.1f} "
            f"coverage={100 * self.coverage():.1f}% "
            f"accuracy={100 * self.prefetch_accuracy():.1f}%"
        )
