"""Batch lookup kernels over a PackedFib.

Each kernel runs the whole batch in lockstep with numpy: every query
still searching makes its next probe in the same step.  The schedules are
exactly those of Hpt.lookup_lpm and Hpt.lookup_oracle, so probe counts
and outcomes match the dict-walking table, which is the kernels' oracle.
"""

from __future__ import annotations

import numpy as np

from minet.hpt.fib import EntryState

BACKEND = "numpy"


def _probe(fp, table_fp, table_node, mask):
    """Node id stored under each fingerprint, -1 where there is none.

    Linear probing from `fp & mask`, wrapping through `mask`, until the
    fingerprint or an empty slot turns up.
    """
    found = np.full(fp.shape[0], -1, dtype=np.int32)
    rows = np.arange(fp.shape[0])
    slot = fp & mask
    while rows.size:
        node = table_node[slot]
        occupied = node != -1
        match = occupied & (table_fp[slot] == fp)
        found[rows[match]] = node[match]
        more = occupied & ~match
        rows, fp = rows[more], fp[more]
        slot = (slot[more] + np.uint64(1)) & mask
    return found


def _outputs(q):
    return (np.zeros(q, dtype=np.uint8), np.full(q, -1, dtype=np.int32),
            np.zeros(q, dtype=np.int32), np.zeros(q, dtype=np.int32))


def lpm_batch(fps, lens, table_fp, table_node, mask, state, parent):
    """Binary search on prefix lengths; semi-virtual hits walk parents."""
    q = lens.shape[0]
    hit, node_out, len_out, probes = _outputs(q)
    lo = np.ones(q, dtype=np.int32)
    hi = lens.astype(np.int32)
    last = np.full(q, -1, dtype=np.int32)
    last_len = np.zeros(q, dtype=np.int32)
    active = np.flatnonzero(lo <= hi)
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        probes[active] += 1
        found = _probe(fps[active, mid - 1], table_fp, table_node, mask)
        ok = found != -1
        rows = active[ok]
        last[rows] = found[ok]
        last_len[rows] = mid[ok]
        lo[rows] = mid[ok] + 1
        hi[active[~ok]] = mid[~ok] - 1
        active = active[lo[active] <= hi[active]]

    # Virtual terminals miss and real ones stop at once; semi-virtual ones
    # climb past non-real ancestors to a real one, or miss at the top (-1).
    rows = np.flatnonzero(last != -1)
    cur, depth = last[rows], last_len[rows]
    kept = state[cur] != EntryState.VIRTUAL
    rows, cur, depth = rows[kept], cur[kept], depth[kept]
    while rows.size:
        real = state[cur] == EntryState.REAL
        done = rows[real]
        hit[done] = 1
        node_out[done] = cur[real]
        len_out[done] = depth[real]
        cur = parent[cur[~real]]
        rows, depth = rows[~real], depth[~real] - 1
        up = cur != -1
        rows, cur, depth = rows[up], cur[up], depth[up]
    return hit, node_out, len_out, probes


def linear_batch(fps, lens, table_fp, table_node, mask, state):
    """Longest-first scan: probe every prefix until a real entry."""
    q = lens.shape[0]
    hit, node_out, len_out, probes = _outputs(q)
    length = lens.astype(np.int32)
    active = np.flatnonzero(length > 0)
    while active.size:
        cur = length[active]
        probes[active] += 1
        found = _probe(fps[active, cur - 1], table_fp, table_node, mask)
        real = found != -1
        real[real] = state[found[real]] == EntryState.REAL
        done = active[real]
        hit[done] = 1
        node_out[done] = found[real]
        len_out[done] = cur[real]
        rest = active[~real]
        length[rest] -= 1
        active = rest[length[rest] > 0]
    return hit, node_out, len_out, probes
