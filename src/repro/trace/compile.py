"""Batched per-unit trace records (DESIGN.md §12).

A :class:`CompiledTrace` is the structure-of-arrays companion of a
:class:`~repro.trace.events.Trace`: per-fetch-unit gathers (branch kind
and branch pc, which the serial loop otherwise re-derives through two
list indirections per unit) plus the conditional-branch substream that
drives the batched TAGE precompute.

Everything here is a pure function of (workload, trace) — and, for the
direction outcomes, of the TAGE geometry — so compiled records are
cached on the trace and shared by every system simulated over it: the
runner simulates each trace under six BTB systems, and the expensive
direction sweep runs once.

numpy accelerates the gathers and the fold precompute when present
(imported on the first compile, not with the package); the pure-Python
fallbacks are semantically identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..frontend.direction_batch import HAVE_NUMPY, direction_outcome_stream
from ..workloads.cfg import KIND_COND, KIND_NONE, Workload


def _tage_signature(frontend_cfg) -> Tuple[int, int, int, int]:
    """The fields of FrontendConfig that determine TAGE behaviour."""
    return (
        frontend_cfg.tage_tables,
        frontend_cfg.tage_entries_per_table,
        frontend_cfg.tage_min_history,
        frontend_cfg.tage_max_history,
    )


class CompiledTrace:
    """Structure-of-arrays view of one trace over one workload."""

    __slots__ = (
        "workload",
        "n_units",
        "kinds",
        "pcs",
        "cond_count",
        "_blocks",
        "_takens",
        "_cond_pcs",
        "_cond_takens",
        "_dir_cache",
        "_simple_cache",
        "_kinds_np",
        "_takens_np",
        "_blocks_np",
        "_cond_pos",
    )

    def __init__(self, workload: Workload, trace):
        self.workload = workload
        blocks = trace.blocks
        takens = trace.takens
        # List references (not copies): the trace owns the storage.
        self._blocks = blocks
        self._takens = takens
        self.n_units = len(blocks)
        kind_code = workload.kind_code
        branch_pc = workload.branch_pc
        if HAVE_NUMPY:
            import numpy as np

            blocks_np = np.asarray(blocks, dtype=np.int64)
            takens_np = np.asarray(takens, dtype=np.int64)
            kinds_np = np.asarray(kind_code, dtype=np.int64)[blocks_np]
            pcs_np = np.asarray(branch_pc, dtype=np.int64)[blocks_np]
            cond_pos = np.nonzero(kinds_np == KIND_COND)[0]
            self.kinds: List[int] = kinds_np.tolist()
            self.pcs: List[int] = pcs_np.tolist()
            self._cond_pcs = pcs_np[cond_pos]
            self._cond_takens = takens_np[cond_pos]
            self._blocks_np = blocks_np
            self._takens_np = takens_np
            self._kinds_np = kinds_np
            self._cond_pos = cond_pos
            self.cond_count = int(cond_pos.shape[0])
        else:
            self.kinds = [kind_code[b] for b in blocks]
            self.pcs = [branch_pc[b] for b in blocks]
            cond_pcs: List[int] = []
            cond_takens: List[int] = []
            for k, pc, tk in zip(self.kinds, self.pcs, takens):
                if k == KIND_COND:
                    cond_pcs.append(pc)
                    cond_takens.append(tk)
            self._cond_pcs = cond_pcs
            self._cond_takens = cond_takens
            self._blocks_np = None
            self._takens_np = None
            self._kinds_np = None
            self._cond_pos = None
            self.cond_count = len(cond_pcs)
        self._dir_cache: Dict[tuple, List[int]] = {}
        self._simple_cache: Dict[tuple, List[int]] = {}

    # ------------------------------------------------------------------
    def direction_outcomes(self, frontend_cfg) -> List[int]:
        """Correct-prediction flags, one per conditional unit in order.

        Bit-exact against a fresh :class:`~repro.frontend.direction.TageLite`
        driven through the same stream; cached per TAGE geometry so the
        sweep runs once per (trace, geometry) no matter how many
        systems replay the trace.
        """
        sig = _tage_signature(frontend_cfg)
        cached = self._dir_cache.get(sig)
        if cached is None:
            cached = direction_outcome_stream(
                frontend_cfg, self._cond_pcs, self._cond_takens
            )
            self._dir_cache[sig] = cached
        return cached

    def simple_flags(self, frontend_cfg, ops_blocks: frozenset) -> List[int]:
        """Per-unit flags for the fast path's bulk-run classification.

        A unit is *simple* when the serial loop would perform no
        stateful frontend call beyond clock arithmetic: branchless
        blocks, and correctly predicted not-taken conditionals (which
        access the BTB counter-wise but never look it up).  Blocks
        carrying software prefetch ops are never simple — they are one
        of the fast path's mandated fallback boundaries.
        """
        sig = (_tage_signature(frontend_cfg), ops_blocks)
        cached = self._simple_cache.get(sig)
        if cached is not None:
            return cached
        correct = self.direction_outcomes(frontend_cfg)
        if HAVE_NUMPY:
            import numpy as np

            correct_np = np.zeros(self.n_units, dtype=bool)
            if self.cond_count:
                correct_np[self._cond_pos] = np.asarray(
                    correct, dtype=np.int64
                ).astype(bool)
            simple = (self._kinds_np == KIND_NONE) | (
                (self._kinds_np == KIND_COND)
                & (self._takens_np == 0)
                & correct_np
            )
            if ops_blocks:
                ops = np.fromiter(ops_blocks, dtype=np.int64)
                simple &= ~np.isin(self._blocks_np, ops)
            flags = simple.tolist()
        else:
            flags = []
            append = flags.append
            ci = 0
            has_ops = bool(ops_blocks)
            for blk, tk, k in zip(self._blocks, self._takens, self.kinds):
                if k == KIND_NONE:
                    ok = True
                elif k == KIND_COND:
                    ok = tk == 0 and correct[ci] == 1
                    ci += 1
                else:
                    ok = False
                if ok and has_ops and blk in ops_blocks:
                    ok = False
                append(ok)
        self._simple_cache[sig] = flags
        return flags


def compile_trace(workload: Workload, trace) -> "CompiledTrace":
    """Build (or fetch) the compiled records for *trace* over *workload*."""
    return trace.compiled_for(workload)
