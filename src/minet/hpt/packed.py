"""Array snapshot of an Hpt for the batch lookup kernels.

Names are fingerprinted by rolling a 64-bit FNV-1a over per-component
vocabulary ids, one numpy step per name column; the open-addressing
table maps fingerprints to the Hpt's own node ids, and the per-node
arrays are indexed by them; a free id keeps its slot in those arrays
(face -1) but never enters the table.  The Hpt stores no filler
states, so the build derives them in the same depth order as the
fingerprints: a node is real when it has a face, semi-virtual when a
real node lies above it, and virtual otherwise.  The build rejects any
salt under which two table keys share a fingerprint and rebuilds with
the next, so the table itself is injective.  Query prefixes are not
checked against it: a query prefix that is no table key but whose
fingerprint equals one is reported as a hit on that key's node.  The
vocabulary is fixed at build time: ids start at 1, and query packing
maps every component the table never saw to the reserved id 0, which no
table key contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count as counter, repeat

import numpy as np

from minet.names import ContentName
from minet.hpt.fib import EntryState, Hpt

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = np.uint64(0x100000001B3)
_SALTS = 16


class FingerprintCollision(Exception):
    pass


@dataclass
class PackedFib:
    table_fp: np.ndarray      # uint64, open addressing keys
    table_node: np.ndarray    # int32, -1 = empty slot
    mask: int                 # table size - 1
    state: np.ndarray         # uint8 per node (EntryState values)
    parent: np.ndarray        # int32 per node, -1 at depth 1
    face: np.ndarray          # int32 per node, -1 when no forwarding
    vocab: dict[str, int] = field(repr=False)
    salt: int = 0


def _fnv_step(h: np.ndarray, cids: np.ndarray) -> np.ndarray:
    """One FNV-1a step: fold one column of component ids into `h`.

    Both are uint64, so the product wraps modulo 2**64 as FNV intends.
    """
    return (h ^ cids) * _FNV_PRIME


def _seed(salt: int) -> np.uint64:
    """Fingerprint of the empty name under `salt`."""
    return np.uint64(_FNV_OFFSET ^ salt)


def pack_fib(hpt: Hpt) -> PackedFib:
    """Array snapshot of `hpt`, indexed by the table's own node ids."""
    count = len(hpt.parent)
    live = np.fromiter(hpt.index.values(), dtype=np.int32,
                       count=len(hpt.index))
    parent = np.array(hpt.parent, dtype=np.int32)
    face = np.fromiter(
        (-1 if f is None else f.face_id for f in hpt.forwarding),
        dtype=np.int32, count=count)
    depth = np.zeros(count, dtype=np.int32)
    depth[live] = np.fromiter(map(str.count, hpt.index, repeat("/")),
                              dtype=np.int32, count=live.size)
    vocab = dict(zip(dict.fromkeys(filter(None, hpt.component)), counter(1)))
    cids = np.fromiter(map(vocab.get, hpt.component, repeat(0)),
                       dtype=np.uint64, count=count)

    # Node ids grouped by depth, so each level reads finished parents;
    # free ids sit at depth 0, before the first level.
    order = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[order],
                             np.arange(1, int(depth.max(initial=0)) + 2))
    levels = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    # Whether a real entry lies at or above each node; the extra last
    # slot is the empty name's, so parent -1 reads False.
    real = face != -1
    covered = np.zeros(count + 1, dtype=bool)
    for nids in levels:
        covered[nids] = real[nids] | covered[parent[nids]]
    state = np.where(real, EntryState.REAL, np.where(
        covered[parent], EntryState.SEMI_VIRTUAL,
        EntryState.VIRTUAL)).astype(np.uint8)
    size = 1
    while size < max(8, 2 * live.size):
        size *= 2
    for salt in range(_SALTS):
        # The extra last slot holds the empty name, so parent -1 reads it.
        fp = np.empty(count + 1, dtype=np.uint64)
        fp[-1] = _seed(salt)
        for nids in levels:
            fp[nids] = _fnv_step(fp[parent[nids]], cids[nids])
        ordered = np.sort(fp[live])
        if not (ordered[1:] == ordered[:-1]).any():
            table_fp, table_node = _table(fp, live, size)
            return PackedFib(table_fp, table_node, size - 1, state, parent,
                             face, vocab, salt)
    raise FingerprintCollision("no collision-free salt found")


def _table(fp: np.ndarray, rows: np.ndarray,
           size: int) -> tuple[np.ndarray, np.ndarray]:
    """Open-addressing table of the distinct fingerprints `fp[rows]`,
    holding node ids `rows`, with linear probing.

    All keys still unplaced advance together, one slot per round.  Where
    several claim the same empty slot the write that lands keeps it and
    the rest move on, so no empty slot ever lies between a key's home
    slot and its position, which is what the kernels' probing assumes.
    """
    mask = size - 1
    table_fp = np.zeros(size, dtype=np.uint64)
    table_node = np.full(size, -1, dtype=np.int32)
    slot = (fp[rows] & np.uint64(mask)).astype(np.intp)
    while rows.size:
        free = table_node[slot] == -1
        table_node[slot[free]] = rows[free]
        placed = table_node[slot] == rows
        table_fp[slot[placed]] = fp[rows[placed]]
        rows = rows[~placed]
        slot = (slot[~placed] + 1) & mask
    return table_fp, table_node


def pack_queries(packed: PackedFib, queries: list[ContentName]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-fingerprint matrix and length vector for a query batch.

    Row i holds the fingerprints of query i's prefixes, shortest first,
    and zeros past its length.  Components unseen at pack time get the
    reserved id 0, which no table key contains; the vocabulary is only
    read.
    """
    comps = [name.components for name in queries]
    q = len(comps)
    lens = np.fromiter(map(len, comps), dtype=np.int32, count=q)
    max_len = int(lens.max(initial=1))
    inside = np.arange(max_len) < lens[:, None]
    cids = np.zeros((q, max_len), dtype=np.uint64)
    cids[inside] = np.fromiter(
        map(packed.vocab.get, chain.from_iterable(comps), repeat(0)),
        dtype=np.uint64, count=int(lens.sum()))
    fps = np.empty((q, max_len), dtype=np.uint64)
    h = np.full(q, _seed(packed.salt), dtype=np.uint64)
    for col in range(max_len):
        h = _fnv_step(h, cids[:, col])
        fps[:, col] = h
    fps[~inside] = 0
    return fps, lens
