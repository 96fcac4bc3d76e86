"""Array snapshot of an Hpt for the batch lookup kernels.

Names are fingerprinted by rolling a 64-bit FNV-1a over per-component
vocabulary ids; the open-addressing table maps fingerprints to node ids.
A fingerprint collision between two distinct names is detected at build
time and resolved by rebuilding with a new salt, so the kernels see an
injective mapping.  The vocabulary is fixed at build time: ids start at
1, and query packing maps every component the table never saw to the
reserved id 0, which no table key contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from minet.names import ContentName
from minet.hpt.fib import Hpt

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


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
    depth: np.ndarray         # int32 per node
    vocab: dict[str, int] = field(repr=False)
    salt: int = 0


def _fp_prefixes(cids, salt: int) -> list[int]:
    """Fingerprints of every prefix of a component-id chain, shortest first."""
    h = _FNV_OFFSET ^ salt
    out = []
    for cid in cids:
        h = ((h ^ cid) * _FNV_PRIME) & _MASK64
        out.append(h)
    return out


def pack_fib(hpt: Hpt) -> PackedFib:
    count = len(hpt.index)
    size = 1
    while size < max(8, 2 * count):
        size *= 2
    for salt in range(16):
        try:
            return _build(hpt, count, size, salt)
        except FingerprintCollision:
            continue
    raise FingerprintCollision("no collision-free salt found")


def _build(hpt: Hpt, count: int, size: int, salt: int) -> PackedFib:
    vocab: dict[str, int] = {}
    mask = size - 1
    table_fp = np.zeros(size, dtype=np.uint64)
    table_node = np.full(size, -1, dtype=np.int32)
    state = np.empty(count, dtype=np.uint8)
    parent = np.full(count, -1, dtype=np.int32)
    face = np.full(count, -1, dtype=np.int32)
    depth = np.empty(count, dtype=np.int32)

    node_ids: dict[int, int] = {}
    items = list(hpt.index.items())
    for nid, (text, node) in enumerate(items):
        node_ids[id(node)] = nid
    for nid, (text, node) in enumerate(items):
        comps = text.split("/")[1:]
        cids = [vocab.setdefault(comp, len(vocab) + 1) for comp in comps]
        fp = _fp_prefixes(cids, salt)[-1]
        slot = fp & mask
        while table_node[slot] != -1:
            if int(table_fp[slot]) == fp:
                raise FingerprintCollision(text)
            slot = (slot + 1) & mask
        table_fp[slot] = fp
        table_node[slot] = nid
        state[nid] = int(node.state)
        depth[nid] = len(comps)
        if node.forwarding is not None:
            face[nid] = node.forwarding.face_id
        if node.parent is not None and node.parent is not hpt.root:
            parent[nid] = node_ids[id(node.parent)]
    return PackedFib(table_fp, table_node, mask, state, parent, face,
                     depth, vocab, salt)


def pack_queries(packed: PackedFib, queries: list[ContentName]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-fingerprint matrix and length vector for a query batch.

    Components unseen at pack time get the reserved id 0, which no table
    key contains; the vocabulary is only read.
    """
    q = len(queries)
    max_len = max((len(name) for name in queries), default=1)
    fps = np.zeros((q, max_len), dtype=np.uint64)
    lens = np.empty(q, dtype=np.int32)
    get = packed.vocab.get
    salt = packed.salt
    for i, name in enumerate(queries):
        chain = _fp_prefixes([get(comp, 0) for comp in name.components],
                             salt)
        lens[i] = len(chain)
        fps[i, :len(chain)] = chain
    return fps, lens
