import hashlib
import math

import numpy as np
import pytest

from minet.names import ContentName, ForwardingInfo, Identifier
from minet.hpt import (
    DuplicateBinding,
    EntryState,
    Hpt,
    UnknownContent,
    kernels,
    pack_fib,
    pack_queries,
)
from minet.workload import WorkloadSpec, generate_entries

N = ContentName.parse
F = ForwardingInfo


def states(fib):
    return {text: fib.state(nid) for text, nid in fib.index.items()}


def test_insert_creates_virtual_chain():
    fib = Hpt()
    fib.insert(N("/c1/c2/c3"), F(1))
    assert states(fib) == {
        "/c1": EntryState.VIRTUAL,
        "/c1/c2": EntryState.VIRTUAL,
        "/c1/c2/c3": EntryState.REAL,
    }
    assert fib.verify_integrity() == []


def test_insert_promotes_fillers_below_new_real():
    fib = Hpt()
    fib.insert(N("/c1/c2/c3"), F(1))
    fib.insert(N("/c1"), F(2))
    assert states(fib) == {
        "/c1": EntryState.REAL,
        "/c1/c2": EntryState.SEMI_VIRTUAL,
        "/c1/c2/c3": EntryState.REAL,
    }
    assert fib.verify_integrity() == []


def test_insert_under_real_ancestor_makes_semi_virtual_fillers():
    fib = Hpt()
    fib.insert(N("/a"), F(1))
    fib.insert(N("/a/b/c/d"), F(2))
    assert states(fib)["/a/b"] == EntryState.SEMI_VIRTUAL
    assert states(fib)["/a/b/c"] == EntryState.SEMI_VIRTUAL
    assert fib.verify_integrity() == []


def test_insert_update_replaces_forwarding():
    fib = Hpt()
    fib.insert(N("/a"), F(1))
    fib.insert(N("/a"), F(9))
    assert fib.forwarding[fib.index["/a"]] == F(9)
    assert len(fib) == 1


def test_delete_nonleaf_with_real_parent_goes_semi_virtual():
    fib = Hpt()
    for name, face in [("/a", 1), ("/a/b", 2), ("/a/b/c", 3)]:
        fib.insert(N(name), F(face))
    fib.delete(N("/a/b"))
    assert states(fib) == {
        "/a": EntryState.REAL,
        "/a/b": EntryState.SEMI_VIRTUAL,
        "/a/b/c": EntryState.REAL,
    }
    assert fib.forwarding[fib.index["/a/b"]] is None
    assert fib.verify_integrity() == []


def test_delete_nonleaf_without_real_ancestor_demotes_to_virtual():
    fib = Hpt()
    fib.insert(N("/a"), F(1))
    fib.insert(N("/a/b"), F(2))
    fib.delete(N("/a"))
    assert states(fib) == {"/a": EntryState.VIRTUAL, "/a/b": EntryState.REAL}
    assert fib.verify_integrity() == []


def test_delete_demotion_stops_at_real_descendants():
    fib = Hpt()
    fib.insert(N("/a"), F(1))
    fib.insert(N("/a/b/c"), F(2))      # /a/b becomes semi-virtual
    fib.insert(N("/a/b/c/d/e"), F(3))  # /a/b/c/d semi-virtual
    fib.delete(N("/a"))
    st = states(fib)
    assert st["/a"] == EntryState.VIRTUAL
    assert st["/a/b"] == EntryState.VIRTUAL
    assert st["/a/b/c"] == EntryState.REAL
    assert st["/a/b/c/d"] == EntryState.SEMI_VIRTUAL  # still under real /a/b/c
    assert fib.verify_integrity() == []


def test_delete_leaf_prunes_filler_ancestors():
    fib = Hpt()
    fib.insert(N("/a/b"), F(1))
    fib.delete(N("/a/b"))
    assert len(fib) == 0
    assert fib.verify_integrity() == []


def test_delete_leaf_prunes_semi_virtual_chain_up_to_real():
    fib = Hpt()
    fib.insert(N("/a/b/c"), F(1))
    fib.insert(N("/a"), F(2))
    fib.delete(N("/a/b/c"))
    assert states(fib) == {"/a": EntryState.REAL}
    assert fib.verify_integrity() == []


def test_columns_do_not_grow_across_churn():
    fib = Hpt()
    name = N("/a/b/c")
    for face in range(1000):
        fib.insert(name, F(face))
        fib.bind_identifier(name, Identifier.identity("u"))
        assert max(map(len, (fib.parent, fib.children, fib.forwarding,
                             fib.component))) <= 3
        fib.delete(name)
        assert len(fib.index) == 0
    assert set(fib.children) == {0}
    assert (fib.bindings, fib.alt_index) == ({}, {})
    assert fib.verify_integrity() == []


def child_ids(fib, nid):
    """Ids indexed directly under `nid` (-1: the depth-1 names), in
    insertion order."""
    return [i for i in fib.index.values() if fib.parent[i] == nid]


def test_unlink_head_middle_and_tail_under_wide_fan_out():
    """Deleting the first-, a middle- and the last-inserted child of a
    1,200-wide parent, at depth 1 and at depth 2, leaves the table equal
    to one rebuilt from the surviving names; so does emptying it and
    refilling the freed ids."""
    fan = 1200
    faces = {}
    for i in range(fan):
        faces[f"/n{i}"] = i
        faces[f"/w/k{i}"] = i
    fib = Hpt()
    for text, face in faces.items():
        fib.insert(N(text), F(face))

    def matches_rebuild():
        assert fib.verify_integrity() == []
        rebuilt = Hpt()
        for text, face in faces.items():
            rebuilt.insert(N(text), F(face))
        assert fib.dump() == rebuilt.dump()

    for parent in (-1, fib.index["/w"]):
        for pick in (0, fan // 2, -1):             # first, middle, last
            ids = child_ids(fib, parent)
            assert len(ids) > fan // 2
            nid = ids[pick]
            assert fib.state(nid) == EntryState.REAL
            text = next(t for t, i in fib.index.items() if i == nid)
            fib.delete(N(text))
            del faces[text]
            assert child_ids(fib, parent) == ids[:pick % len(ids)] + (
                ids[pick % len(ids) + 1:])
            if parent != -1:
                assert fib.children[parent] == len(ids) - 1
            matches_rebuild()

    survivors = list(faces.items())
    np.random.default_rng(5).shuffle(survivors)
    for step, (text, _) in enumerate(survivors, 1):
        fib.delete(N(text))
        del faces[text]
        if step % 600 == 0:
            matches_rebuild()
    assert (len(fib), fib.dump(), set(fib.children)) == (0, "", {0})
    assert fib.verify_integrity() == []

    size = len(fib.parent)
    faces = dict(survivors)
    for text, face in survivors:
        fib.insert(N(text), F(face))
    assert len(fib.parent) == size       # every new entry took a freed id
    matches_rebuild()


def test_delete_missing_or_filler_is_noop():
    fib = Hpt()
    fib.insert(N("/a/b"), F(1))
    before = fib.dump()
    fib.delete(N("/x"))
    fib.delete(N("/a"))      # virtual filler, not a real entry
    fib.delete(N("/a/b/c"))
    assert fib.dump() == before


def test_lookup_binary_search_trace_real_terminal():
    fib = Hpt()
    fib.insert(N("/a/b"), F(5))
    res = fib.lookup_lpm(N("/a/b/c/d"))
    assert res.hit and res.matched_prefix == N("/a/b")
    assert res.forwarding == F(5)
    assert res.probes == 2  # probes lengths 2 (hit) then 3 (miss)


def test_lookup_semi_virtual_backtracks_without_extra_probes():
    fib = Hpt()
    fib.insert(N("/a/b/c"), F(1))
    fib.insert(N("/a"), F(7))
    assert states(fib)["/a/b"] == EntryState.SEMI_VIRTUAL
    res = fib.lookup_lpm(N("/a/b/x"))
    assert res.hit and res.matched_prefix == N("/a")
    assert res.forwarding == F(7)
    assert res.probes == 2  # length 2 hit (semi-virtual), length 3 miss


def test_lookup_virtual_terminal_is_miss():
    fib = Hpt()
    fib.insert(N("/a/b/c"), F(1))
    res = fib.lookup_lpm(N("/a/b/x"))
    assert not res.hit
    assert res.forwarding is None


def test_lookup_oracle_scans_longest_first():
    fib = Hpt()
    fib.insert(N("/a"), F(3))
    res = fib.lookup_oracle(N("/a/b"))
    assert res.hit and res.matched_prefix == N("/a") and res.probes == 2
    miss = fib.lookup_oracle(N("/x/y/z"))
    assert not miss.hit and miss.probes == 3


def test_lookup_probe_bound():
    fib = Hpt()
    fib.insert(N("/p/q"), F(1))
    rng = np.random.default_rng(3)
    for _ in range(300):
        length = int(rng.integers(1, 13))
        comps = tuple(f"c{rng.integers(0, 4)}" for _ in range(length))
        res = fib.lookup_lpm(ContentName(comps))
        assert res.probes <= math.ceil(math.log2(length + 1)) + 1


def test_bind_translate_round_trip():
    fib = Hpt()
    fib.insert(N("/cdn/movie"), F(4))
    geo = Identifier.geo("cn.gd.sz")
    ip = Identifier.ip("10.1.2.3")
    fib.bind_identifier(N("/cdn/movie"), geo)
    fib.bind_identifier(N("/cdn/movie"), ip)
    assert fib.translate(geo) == N("/cdn/movie")
    assert fib.translate(ip) == N("/cdn/movie")
    assert fib.translate(Identifier.content("/cdn/movie")) == N("/cdn/movie")
    assert fib.verify_integrity() == []


def test_bind_errors():
    fib = Hpt()
    fib.insert(N("/cdn/movie"), F(4))
    geo = Identifier.geo("cn.gd.sz")
    fib.bind_identifier(N("/cdn/movie"), geo)
    with pytest.raises(DuplicateBinding):
        fib.bind_identifier(N("/cdn/movie"), geo)
    with pytest.raises(UnknownContent):
        fib.bind_identifier(N("/nope"), Identifier.geo("x"))
    with pytest.raises(UnknownContent):
        fib.bind_identifier(N("/cdn"), Identifier.geo("y"))  # filler, not real
    assert fib.translate(Identifier.ip("9.9.9.9")) is None
    with pytest.raises(ValueError):
        fib.bind_identifier(N("/cdn/movie"), Identifier.content("/cdn/movie"))


def test_delete_drops_bindings():
    fib = Hpt()
    fib.insert(N("/cdn/movie"), F(4))
    geo = Identifier.geo("cn")
    fib.bind_identifier(N("/cdn/movie"), geo)
    fib.delete(N("/cdn/movie"))
    assert fib.translate(geo) is None
    assert fib.verify_integrity() == []


def test_translate_returns_none_without_a_binding():
    fib = Hpt()
    fib.insert(N("/cdn/movie"), F(4))
    unbound = (Identifier.identity("bob"), Identifier.geo("cn.sz"),
               Identifier.ip("192.0.2.1"))
    assert [fib.translate(alt) for alt in unbound] == [None] * 3
    geo = Identifier.geo("cn.gd")
    fib.bind_identifier(N("/cdn/movie"), geo)
    assert fib.translate(geo) == N("/cdn/movie")
    fib.delete(N("/cdn/movie"))
    assert fib.translate(geo) is None
    # the binding went with the entry, so the id binds afresh
    fib.insert(N("/cdn/movie"), F(5))
    fib.bind_identifier(N("/cdn/movie"), geo)
    assert fib.translate(geo) == N("/cdn/movie")
    assert fib.verify_integrity() == []


def _three_children():
    fib = Hpt()
    for text in ("/a/x", "/a/y", "/a/z", "/b"):
        fib.insert(N(text), F(1))
    return fib


def test_verify_integrity_flags_forced_corruption():
    fib = _three_children()
    fib.children[fib.index["/a"]] = 0        # a filler that looks childless
    assert fib.verify_integrity() == [
        "/a: non-real leaf", "/a: child count 0 != 3"]
    fib = _three_children()
    fib.children[fib.index["/a/y"]] = 1
    assert fib.verify_integrity() == ["/a/y: child count 1 != 0"]


def test_verify_integrity_flags_broken_parent_link():
    fib = _three_children()
    fib.parent[fib.index["/a/x"]] = fib.index["/b"]
    assert fib.verify_integrity() == ["/a/x: broken parent link"]


def test_verify_integrity_flags_wrong_component():
    fib = _three_children()
    fib.component[fib.index["/a/y"]] = "q"
    assert fib.verify_integrity() == ["/a/y: component is 'q'"]


def test_insert_order_independence():
    names = ["/a", "/a/b/c", "/a/b", "/x/y", "/x/y/z/w", "/q"]
    rng = np.random.default_rng(11)
    dumps = set()
    for _ in range(6):
        order = rng.permutation(len(names))
        fib = Hpt()
        for idx in order:
            fib.insert(N(names[idx]), F(idx + 1))
        assert fib.verify_integrity() == []
        dumps.add("\n".join(sorted(
            line.rsplit("\t", 2)[0].split("\t")[0] + "\t" +
            line.split("\t")[1] for line in fib.dump().splitlines())))
    assert len(dumps) == 1


def test_reversibility_of_fresh_insert():
    fib = Hpt()
    fib.insert(N("/a/b/c"), F(1))
    fib.insert(N("/a"), F(2))
    baseline = Hpt()
    baseline.insert(N("/a/b/c"), F(1))
    baseline.insert(N("/a"), F(2))

    fib.insert(N("/a/b/x/y"), F(9))
    fib.delete(N("/a/b/x/y"))
    rng = np.random.default_rng(5)
    pool = ["a", "b", "c", "x", "y", "z"]
    for _ in range(500):
        comps = tuple(pool[rng.integers(0, len(pool))]
                      for _ in range(rng.integers(1, 6)))
        q = ContentName(comps)
        got, want = fib.lookup_lpm(q), baseline.lookup_lpm(q)
        assert (got.hit, got.matched_prefix, got.forwarding) == \
               (want.hit, want.matched_prefix, want.forwarding)


def test_random_ops_match_oracle_and_stay_consistent():
    rng = np.random.default_rng(42)
    fib = Hpt()
    shadow: dict[str, ForwardingInfo] = {}   # real entries only
    pool = [f"c{i}" for i in range(8)]

    def rand_name():
        length = int(rng.integers(1, 6))
        return ContentName(tuple(pool[rng.integers(0, len(pool))]
                                 for _ in range(length)))

    for step in range(2000):
        name = rand_name()
        if rng.random() < 0.6:
            fwd = F(int(rng.integers(0, 100)))
            fib.insert(name, fwd)
            shadow[name.text] = fwd
        else:
            fib.delete(name)
            shadow.pop(name.text, None)
        if step % 250 == 0:
            assert fib.verify_integrity() == []
    assert fib.verify_integrity() == []
    assert fib.real_count() == len(shadow)

    for _ in range(3000):
        q = rand_name()
        got = fib.lookup_lpm(q)
        want = fib.lookup_oracle(q)
        assert (got.hit, got.matched_prefix, got.forwarding) == \
               (want.hit, want.matched_prefix, want.forwarding)
        # shadow cross-check: longest real prefix by brute force
        best = None
        for k in range(len(q), 0, -1):
            if q.prefix(k).text in shadow:
                best = q.prefix(k)
                break
        assert got.matched_prefix == best


def test_golden_table_and_kernel_outputs():
    """Pins the table's observable output: its dump and both kernels'
    answers (node ids are left out, since they are the table's own)."""
    entries, _ = generate_entries(WorkloadSpec(
        entry_count=5000, query_count=0, mean_entry_len=3.0, alphabet=6,
        seed=7))
    fib = Hpt()
    for name, fwd in entries:
        fib.insert(name, fwd)
    for name, _ in entries[::3]:
        fib.delete(name)
    for i, (name, _) in enumerate(entries[1::3][:200]):
        fib.bind_identifier(name, Identifier.identity(f"u{i}"))
    assert fib.verify_integrity() == []
    assert (len(fib), fib.real_count()) == (4698, 3333)
    assert hashlib.sha256(fib.dump().encode()).hexdigest() == (
        "8bc75b64c9caae96b79436d7f3d7078a021a9e657c9805f272682cbf58a33499")

    packed = pack_fib(fib)
    queries = ([ContentName(name.components + ("zz",)) for name, _ in entries]
               + [name for name, _ in entries])
    fps, lens = pack_queries(packed, queries)
    args = (fps, lens, packed.table_fp, packed.table_node,
            np.uint64(packed.mask), packed.state)
    digest = hashlib.sha256()
    for hit, node, length, probes in (kernels.lpm_batch(*args, packed.parent),
                                      kernels.linear_batch(*args)):
        face = np.where(hit != 0, packed.face[node], -1).astype(np.int32)
        for column in (hit, length, probes, face):
            digest.update(column.tobytes())
    assert digest.hexdigest() == (
        "02321db97e2192feab404ab9b3e33c538c2cff4f5a6c8a7944e0c02bd0c37942")
