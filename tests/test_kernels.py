import numpy as np

from minet.hpt import EntryState, Hpt, pack_fib, pack_queries
from minet.hpt import kernels
from minet.hpt import packed as packed_mod
from minet.names import ContentName, ForwardingInfo
from minet.workload import WorkloadSpec, generate_workload


def _build(mode, seed):
    spec = WorkloadSpec(entry_count=3000, query_count=1500, mean_entry_len=3,
                        query_len=6, mode=mode, alphabet=300, seed=seed)
    wl = generate_workload(spec)
    fib = Hpt()
    for name, fwd in wl.entries:
        fib.insert(name, fwd)
    return fib, wl.queries


def _assert_matches_dict(fib, queries, packed=None):
    """Both kernels against their dict routes; returns the kernel outputs."""
    packed = packed if packed is not None else pack_fib(fib)
    fps, lens = pack_queries(packed, queries)
    args = (fps, lens, packed.table_fp, packed.table_node,
            np.uint64(packed.mask), packed.state)
    outs = (kernels.lpm_batch(*args, packed.parent),
            kernels.linear_batch(*args))
    for (hit, node, mlen, probes), route in zip(
            outs, (fib.lookup_lpm, fib.lookup_oracle)):
        assert hit.shape == node.shape == mlen.shape == probes.shape == (
            len(queries),)
        for i, q in enumerate(queries):
            want = route(q)
            assert bool(hit[i]) == want.hit
            assert int(probes[i]) == want.probes
            if want.hit:
                assert int(mlen[i]) == len(want.matched_prefix)
                assert int(packed.face[node[i]]) == want.forwarding.face_id
            else:
                assert (int(node[i]), int(mlen[i])) == (-1, 0)
    return outs


def _ragged(queries):
    """Lengths 1..12, so the binary searches end at different steps."""
    return [ContentName((q.components + tuple(f"t{j}" for j in range(6)))
                        [:1 + i % 12])
            for i, q in enumerate(queries)]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _ref_fingerprints(cids, salt):
    """Scalar FNV-1a over a component-id chain: one per prefix."""
    h = _FNV_OFFSET ^ salt
    out = []
    for cid in cids:
        h = ((h ^ cid) * _FNV_PRIME) % (1 << 64)
        out.append(h)
    return out


def _ref_probe(packed, fp):
    """Node id under `fp` by scalar linear probing, -1 if absent."""
    slot = fp & packed.mask
    while packed.table_node[slot] != -1:
        if int(packed.table_fp[slot]) == fp:
            return int(packed.table_node[slot])
        slot = (slot + 1) & packed.mask
    return -1


def test_selected_backend_matches_dict_routes():
    for mode, seed in [("miss", 1), ("hit", 2), ("mixed", 3), ("mixed", 4)]:
        fib, queries = _build(mode, seed)
        _assert_matches_dict(fib, queries)
    _assert_matches_dict(fib, [])
    (*_, probes), _ = _assert_matches_dict(fib, _ragged(queries))
    assert len(set(probes.tolist())) >= 3


def test_backtracking_visible_to_kernel():
    fib = Hpt()
    fib.insert(ContentName.parse("/a/b/c"), ForwardingInfo(1))
    fib.insert(ContentName.parse("/a/p/q/r"), ForwardingInfo(2))
    fib.insert(ContentName.parse("/a"), ForwardingInfo(7))
    # /a/p and /a/p/q are semi-virtual: the walk climbs two levels.
    assert fib.state(fib.index["/a/p/q"]) == EntryState.SEMI_VIRTUAL
    queries = [ContentName.parse(t) for t in
               ("/a/b/x", "/a/p/q/x", "/a", "/z", "/a/p/q/r/s")]
    (hit, node, mlen, probes), _ = _assert_matches_dict(fib, queries)
    packed = pack_fib(fib)
    assert hit.tolist() == [1, 1, 1, 0, 1]
    assert mlen.tolist() == [1, 1, 1, 0, 4]
    assert probes.tolist() == [2, 3, 1, 1, 3]
    assert packed.face[node[:3]].tolist() == [7, 7, 7]


def test_probe_chain_wraps_from_last_slot_to_first():
    # 8 slots.  Node 0 (/a, fingerprint 7) sits in slot 7; its child
    # node 1 (fingerprint 15) also hashes to slot 7 and wraps to slot 0.
    # Fingerprints 23 and 31 hash to slot 7 and miss at empty slot 1.
    table_fp = np.zeros(8, dtype=np.uint64)
    table_node = np.full(8, -1, dtype=np.int32)
    table_fp[7], table_node[7] = 7, 0
    table_fp[0], table_node[0] = 15, 1
    state = np.array([EntryState.REAL, EntryState.REAL], dtype=np.uint8)
    parent = np.array([-1, 0], dtype=np.int32)
    fps = np.array([[7, 15], [7, 23], [31, 0]], dtype=np.uint64)
    lens = np.array([2, 2, 1], dtype=np.int32)
    args = (fps, lens, table_fp, table_node, np.uint64(7), state)
    for out, probes in ((kernels.lpm_batch(*args, parent), [2, 2, 1]),
                        (kernels.linear_batch(*args), [1, 2, 1])):
        assert [a.tolist() for a in out] == [
            [1, 1, 0], [1, 0, -1], [2, 1, 0], probes]


def test_unseen_components_leave_vocab_unchanged():
    fib, _ = _build("hit", 5)
    packed = pack_fib(fib)
    vocab = len(packed.vocab)
    stored = [ContentName.parse(t) for t in list(fib.index)[:300]]
    queries = []
    for i, name in enumerate(stored):
        comps = name.components
        queries += [ContentName(comps + (f"end{i}",)),
                    ContentName(comps[:1] + (f"mid{i}",) + comps[1:]),
                    ContentName((f"top{i}",) + comps)]
    _assert_matches_dict(fib, queries, packed)
    assert len(packed.vocab) == vocab


def test_pack_queries_matches_scalar_reference():
    fib, queries = _build("mixed", 3)
    packed = pack_fib(fib)
    ragged = [ContentName((q.components * 3)[:1 + i % 13])
              for i, q in enumerate(queries)]
    assert {len(q) for q in ragged} == set(range(1, 14))
    batches = [[], ragged,
               [ContentName((f"never{i}", f"seen{i}")) for i in range(50)],
               [q.prefix(1) for q in queries[:200]]]
    for batch in batches:
        fps, lens = pack_queries(packed, batch)
        width = max((len(q) for q in batch), default=1)
        assert fps.dtype == np.uint64 and fps.shape == (len(batch), width)
        assert lens.dtype == np.int32
        assert lens.tolist() == [len(q) for q in batch]
        for row, q in zip(fps.tolist(), batch):
            cids = [packed.vocab.get(c, 0) for c in q.components]
            ref = _ref_fingerprints(cids, packed.salt)
            assert row == ref + [0] * (width - len(ref))


def test_pack_fib_matches_per_node_reference():
    fib, _ = _build("mixed", 4)
    real = [text for text, nid in fib.index.items()
            if fib.state(nid) == EntryState.REAL]
    for text in real[::5]:
        fib.delete(ContentName.parse(text))
    assert fib.free     # freed ids stay in the arrays but not in the table
    packed = pack_fib(fib)
    live = sorted(fib.index.values())
    depth = {nid: text.count("/") for text, nid in fib.index.items()}
    # Ids do not follow depth, so the packer must order levels itself.
    assert (np.diff([depth[nid] for nid in live]) < 0).any()
    assert sorted(packed.vocab.values()) == list(
        range(1, len(packed.vocab) + 1))
    assert set(packed.vocab) == {
        c for t in fib.index for c in t.split("/")[1:]}
    for text, nid in fib.index.items():
        comps = text.split("/")[1:]
        fp = _ref_fingerprints([packed.vocab[c] for c in comps],
                               packed.salt)[-1]
        assert _ref_probe(packed, fp) == nid
        up = text.rsplit("/", 1)[0]
        assert int(packed.parent[nid]) == (fib.index[up] if up else -1)
        assert int(packed.state[nid]) == fib.state(nid)
        forwarding = fib.forwarding[nid]
        assert int(packed.face[nid]) == (
            -1 if forwarding is None else forwarding.face_id)
    stored = packed.table_node[packed.table_node != -1]
    assert sorted(stored.tolist()) == live


def test_fingerprint_collision_moves_to_a_later_salt(monkeypatch):
    fib, queries = _build("mixed", 3)
    step = packed_mod._fnv_step

    def colliding(h, cids):
        out = step(h, cids)
        # Under salt 0, give the first two depth-1 names one fingerprint.
        if np.all(h == packed_mod._seed(0)) and out.size > 1:
            out[1] = out[0]
        return out

    monkeypatch.setattr(packed_mod, "_fnv_step", colliding)
    packed = pack_fib(fib)
    assert packed.salt > 0
    _assert_matches_dict(fib, queries, packed)
    _assert_matches_dict(fib, _ragged(queries), packed)
