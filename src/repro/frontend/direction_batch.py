"""Batched TAGE-lite direction outcomes (DESIGN.md §12).

The timing simulator's dominant cost is :meth:`TageLite.update` — one
call per dynamic conditional branch.  But the predictor's evolution
depends *only* on the (pc, taken) stream of conditional branches, which
the trace fixes in advance: the outcome of every ``update`` call can be
computed up front, independent of the clocks and of whatever BTB system
is attached.  This module does exactly that, bit-for-bit.

Two layers:

* **Vectorized index/tag streams.**  The folded-history registers are
  circular-shift registers, and from a zero start their content before
  branch ``j`` equals the XOR of ``out_len``-wide chunks of the last
  ``L`` taken bits — a pure function of the taken stream.  With numpy
  the per-branch folded values (and from them every table index and
  tag) are computed for the whole trace in a handful of array ops.
* **A linear table-update sweep.**  With all indices and tags known,
  the remaining state machine (counters, useful bits, allocation) is a
  tight Python loop over plain lists, unrolled for the default 6-table
  geometry.

numpy is imported on the first batched precompute, not with the
package, so runs that never simulate (``--list``, warm reruns, the plan
server) do not pay for it.  Without numpy, or for any other table
count, the module falls back to
replaying a private :class:`TageLite` instance, which is exactly as
fast as the serial path's inline calls but keeps the fast simulator
loop available.

The parity guarantee (tests/test_sim_parity.py, validate.fuzz) is
zero-tolerance: every returned flag equals the corresponding
``TageLite.update`` return value from a freshly constructed predictor.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import List, Sequence

from ..config import FrontendConfig
from .direction import TageLite, _geometric_lengths

# numpy is optional; the pure-Python replay below needs nothing.
HAVE_NUMPY = find_spec("numpy") is not None


def direction_outcome_stream(
    config: FrontendConfig,
    pcs: Sequence[int],
    takens: Sequence[int],
) -> List[int]:
    """Per-branch correctness flags for a fresh TAGE-lite predictor.

    ``pcs[j]``/``takens[j]`` describe the j-th dynamic conditional
    branch of a trace; the returned list holds 1 where
    ``TageLite(config).update(pc, taken)`` would return True (correct
    prediction) and 0 where it would mispredict.
    """
    if len(pcs) != len(takens):
        raise ValueError("pcs and takens must have equal length")
    if len(pcs) == 0:
        return []
    if not HAVE_NUMPY or config.tage_tables != 6:
        return _replay_outcomes(config, pcs, takens)
    return _batched_outcomes(config, pcs, takens)


def _replay_outcomes(
    config: FrontendConfig, pcs: Sequence[int], takens: Sequence[int]
) -> List[int]:
    """Reference path: drive a private predictor through the stream."""
    tage = TageLite(config)
    update = tage.update
    return [1 if update(pc, bool(tk)) else 0 for pc, tk in zip(pcs, takens)]


# ----------------------------------------------------------------------
# Vectorized folded-history precompute
# ----------------------------------------------------------------------

def _packed_windows(bits, width: int, n: int):
    """``out[p] = sum_k bits[p-k] << k`` for ``k in [0, width)``.

    Packs, for every position ``p``, the ``width`` newest history bits
    (newest in bit 0) into one integer — the building block from which
    any aligned fold chunk is a mask away.
    """
    import numpy as np

    out = np.zeros(n, dtype=np.int64)
    for k in range(width):
        if k == 0:
            out |= bits
        else:
            out[k:] |= bits[:-k] << k
    return out


def _batched_folds(takens, lengths: Sequence[int], out_len: int, n: int):
    """Per-branch folded-history values for each history length.

    ``folds[t][j]`` equals ``_FoldedHistory(lengths[t], out_len).comp``
    as observed by branch ``j`` after the first ``j`` taken bits were
    shifted in from a zero start: the XOR of the ``out_len``-wide
    chunks of the newest ``lengths[t]`` history bits.
    """
    import numpy as np

    packed = _packed_windows(takens, out_len, n)
    folds = []
    for length in lengths:
        fold = np.zeros(n, dtype=np.int64)
        lo = 0
        while lo < length:
            chunk = min(out_len, length - lo)
            mask = (1 << chunk) - 1
            # Branch j sees history bit d as taken[j-1-d]; the chunk
            # starting at depth lo is packed[j-1-lo] & mask.
            shift = 1 + lo
            if shift < n:
                fold[shift:] ^= packed[: n - shift] & mask
            lo += out_len
        folds.append(fold)
    return folds


def _batched_outcomes(
    config: FrontendConfig, pcs: Sequence[int], takens: Sequence[int]
) -> List[int]:
    """Numpy index/tag streams, then the unrolled 6-table sweep."""
    n_tables = config.tage_tables
    table_size = config.tage_entries_per_table
    index_bits = table_size.bit_length() - 1
    index_mask = table_size - 1
    tag_bits = TageLite.TAG_BITS
    tag_mask = (1 << tag_bits) - 1
    base_size = table_size * 8
    lengths = _geometric_lengths(
        n_tables, config.tage_min_history, config.tage_max_history
    )

    import numpy as np

    n = len(pcs)
    pc = np.asarray(pcs, dtype=np.int64)
    tk = np.asarray(takens, dtype=np.int64)
    folded_idx = _batched_folds(tk, lengths, index_bits, n)
    folded_tag = _batched_folds(tk, lengths, tag_bits, n)
    idx_cols = [
        ((pc ^ (pc >> 5) ^ folded_idx[t] ^ (t + 1)) & index_mask).tolist()
        for t in range(n_tables)
    ]
    tag_cols = [
        (((pc >> 2) ^ (folded_tag[t] << 1) ^ (t + 1)) & tag_mask).tolist()
        for t in range(n_tables)
    ]
    base_idx = ((pc ^ (pc >> 7)) % base_size).tolist()
    return _update_sweep_6(table_size, base_size, idx_cols, tag_cols,
                           base_idx, tk.tolist())


# ----------------------------------------------------------------------
# Table-update sweep (TageLite.update semantics, lists precomputed)
# ----------------------------------------------------------------------

def _update_sweep_6(
    table_size: int,
    base_size: int,
    idx_cols: List[List[int]],
    tag_cols: List[List[int]],
    base_idx: List[int],
    takens: List[int],
) -> List[int]:
    """Unrolled sweep for the default 6-table geometry.

    The provider search runs on every branch, so unrolling it over
    local per-table lists (no list-of-lists indirection, no inner loop)
    is where the batched path's speed comes from.  The rarely taken
    update/allocate tail stays generic over small tuples.
    """
    x0, x1, x2, x3, x4, x5 = idx_cols
    y0, y1, y2, y3, y4, y5 = tag_cols
    t0 = [-1] * table_size
    t1 = [-1] * table_size
    t2 = [-1] * table_size
    t3 = [-1] * table_size
    t4 = [-1] * table_size
    t5 = [-1] * table_size
    c0 = [0] * table_size
    c1 = [0] * table_size
    c2 = [0] * table_size
    c3 = [0] * table_size
    c4 = [0] * table_size
    c5 = [0] * table_size
    u0 = [0] * table_size
    u1 = [0] * table_size
    u2 = [0] * table_size
    u3 = [0] * table_size
    u4 = [0] * table_size
    u5 = [0] * table_size
    tag_tabs = (t0, t1, t2, t3, t4, t5)
    ctr_tabs = (c0, c1, c2, c3, c4, c5)
    use_tabs = (u0, u1, u2, u3, u4, u5)
    base = [1] * base_size
    alloc_tick = 0
    ctr_max = TageLite.CTR_MAX
    ctr_min = TageLite.CTR_MIN
    out: List[int] = []
    append = out.append

    for taken, bi, i0, i1, i2, i3, i4, i5, g0, g1, g2, g3, g4, g5 in zip(
        takens, base_idx, x0, x1, x2, x3, x4, x5, y0, y1, y2, y3, y4, y5
    ):
        if t5[i5] == g5:
            provider = 5
            pidx = i5
            ctab = c5
            utab = u5
        elif t4[i4] == g4:
            provider = 4
            pidx = i4
            ctab = c4
            utab = u4
        elif t3[i3] == g3:
            provider = 3
            pidx = i3
            ctab = c3
            utab = u3
        elif t2[i2] == g2:
            provider = 2
            pidx = i2
            ctab = c2
            utab = u2
        elif t1[i1] == g1:
            provider = 1
            pidx = i1
            ctab = c1
            utab = u1
        elif t0[i0] == g0:
            provider = 0
            pidx = i0
            ctab = c0
            utab = u0
        else:
            pidx = bi
            predicted = base[bi] >= 2
            correct = predicted == (taken == 1)
            append(1 if correct else 0)
            b = base[bi]
            if taken:
                if b < 3:
                    base[bi] = b + 1
            elif b > 0:
                base[bi] = b - 1
            if not correct:
                alloc_tick += 1
                if u0[i0] == 0:
                    t0[i0] = g0
                    c0[i0] = 0 if taken else -1
                elif u1[i1] == 0:
                    t1[i1] = g1
                    c1[i1] = 0 if taken else -1
                elif u2[i2] == 0:
                    t2[i2] = g2
                    c2[i2] = 0 if taken else -1
                elif u3[i3] == 0:
                    t3[i3] = g3
                    c3[i3] = 0 if taken else -1
                elif u4[i4] == 0:
                    t4[i4] = g4
                    c4[i4] = 0 if taken else -1
                elif u5[i5] == 0:
                    t5[i5] = g5
                    c5[i5] = 0 if taken else -1
                else:
                    victim = alloc_tick % 6
                    idx = (i0, i1, i2, i3, i4, i5)[victim]
                    uv = use_tabs[victim]
                    if uv[idx] > 0:
                        uv[idx] -= 1
            continue

        ctr = ctab[pidx]
        if (ctr == -1 or ctr == 0) and utab[pidx] == 0:
            predicted = base[bi] >= 2
        else:
            predicted = ctr >= 0
        correct = predicted == (taken == 1)
        append(1 if correct else 0)

        if taken:
            if ctr < ctr_max:
                ctab[pidx] = ctr + 1
        elif ctr > ctr_min:
            ctab[pidx] = ctr - 1
        if correct:
            if utab[pidx] < 3:
                utab[pidx] += 1
        elif provider < 5:
            alloc_tick += 1
            xs = (i0, i1, i2, i3, i4, i5)
            ys = (g0, g1, g2, g3, g4, g5)
            for t in range(provider + 1, 6):
                idx = xs[t]
                if use_tabs[t][idx] == 0:
                    tag_tabs[t][idx] = ys[t]
                    ctr_tabs[t][idx] = 0 if taken else -1
                    break
            else:
                span = 5 - provider
                victim = provider + 1 + (alloc_tick % span)
                idx = xs[victim]
                uv = use_tabs[victim]
                if uv[idx] > 0:
                    uv[idx] -= 1
    return out
