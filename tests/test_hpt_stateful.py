"""Stateful differential tests of the forwarding table.

A hypothesis state machine starts from a filler two levels below its
real ancestor, then inserts, re-inserts, deletes, binds and translates
names over a tiny alphabet, so fillers gain and lose real ancestors
often, and checks after every step that the table agrees with a plain
dict of routes, with its own oracle route and with a table rebuilt
from the routes and bindings alone, and that every entry's derived
state follows from the routes.  A repack rule
runs both batch kernels against the dict routes and checks the states
the packer derives.  The second copy narrows the packed fingerprints
under the first salts, so every repack meets key collisions and has to
move to a later salt.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from minet.hpt import (
    DuplicateBinding,
    EntryState,
    Hpt,
    UnknownContent,
    kernels,
    pack_fib,
    pack_queries,
)
from minet.hpt import packed as packed_mod
from minet.names import ContentName, ForwardingInfo, Identifier

ALPHABET = ("a", "b", "c", "d")
UNSEEN = "zz"           # never stored, so the vocabulary never holds it
MAX_DEPTH = 6

names = st.lists(st.sampled_from(ALPHABET), min_size=1,
                 max_size=MAX_DEPTH).map(lambda c: ContentName(tuple(c)))
query_names = st.lists(st.sampled_from(ALPHABET + (UNSEEN,)), min_size=1,
                       max_size=MAX_DEPTH + 2).map(
    lambda c: ContentName(tuple(c)))
alts = st.integers(0, 5).map(lambda i: Identifier.identity(f"u{i}"))

SETTINGS = settings(max_examples=40, stateful_step_count=25,
                    derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TableMachine(RuleBasedStateMachine):
    # Salt every repack must land on; None leaves the salt free.
    expected_salt = None

    def __init__(self):
        super().__init__()
        self.fib = Hpt()
        self.routes: dict[str, ForwardingInfo] = {}   # real entries only
        self.bound: dict[Identifier, str] = {}

    # -- the dict reference ---------------------------------------------

    def expected(self, name):
        """(hit, matched length, face) by scanning the plain dict."""
        for k in range(len(name), 0, -1):
            fwd = self.routes.get(name.prefix(k).text)
            if fwd is not None:
                return True, k, fwd.face_id
        return False, 0, -1

    def expected_state(self, text):
        """REAL if stored, SEMI_VIRTUAL under a stored proper prefix,
        VIRTUAL otherwise."""
        if text in self.routes:
            return EntryState.REAL
        name = ContentName.parse(text)
        if any(name.prefix(k).text in self.routes for k in range(1, len(name))):
            return EntryState.SEMI_VIRTUAL
        return EntryState.VIRTUAL

    def present(self, data):
        text = data.draw(st.sampled_from(sorted(self.routes)))
        return ContentName.parse(text)

    # -- rules ------------------------------------------------------------

    @initialize()
    def deep_filler(self):
        # /a/b/c is a semi-virtual filler two levels below its real
        # ancestor, a shape the random rules alone seldom repack
        self.insert(ContentName(("a",)), 1)
        self.insert(ContentName(("a", "b", "c", "d")), 2)

    @rule(name=names, face=st.integers(0, 9))
    def insert(self, name, face):
        self.fib.insert(name, ForwardingInfo(face))
        self.routes[name.text] = ForwardingInfo(face)

    @precondition(lambda self: self.routes)
    @rule(data=st.data(), face=st.integers(0, 9))
    def reinsert(self, data, face):
        self.insert(self.present(data), face)

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def delete_present(self, data):
        name = self.present(data)
        self.fib.delete(name)
        del self.routes[name.text]
        self.bound = {alt: text for alt, text in self.bound.items()
                      if text != name.text}

    @rule(name=names)
    def delete_absent(self, name):
        if name.text in self.routes:
            return
        before = self.fib.dump()
        self.fib.delete(name)
        assert self.fib.dump() == before

    @rule(name=names, alt=alts)
    def bind(self, name, alt):
        if name.text not in self.routes:
            with pytest.raises(UnknownContent):
                self.fib.bind_identifier(name, alt)
        elif alt in self.bound:
            with pytest.raises(DuplicateBinding):
                self.fib.bind_identifier(name, alt)
        else:
            self.fib.bind_identifier(name, alt)
            self.bound[alt] = name.text

    @rule(alt=alts)
    def translate(self, alt):
        if alt in self.bound:
            assert self.fib.translate(alt).text == self.bound[alt]
        else:
            assert self.fib.translate(alt) is None

    @rule(extra=st.lists(query_names, max_size=8))
    def repack(self, extra):
        if self.expected_salt is not None and len(self.fib) <= 4:
            return   # too few keys to be sure the narrowed salts collide
        packed = pack_fib(self.fib)
        if self.expected_salt is not None:
            assert packed.salt == self.expected_salt
        for text, nid in self.fib.index.items():
            assert packed.state[nid] == self.expected_state(text), text
        queries = list(extra) + [ContentName((UNSEEN,))]
        for text in self.fib.index:
            comps = ContentName.parse(text).components
            queries += [ContentName(comps),
                        ContentName(comps + (UNSEEN,)),
                        ContentName(comps[:1]),
                        ContentName(comps[:1] + (UNSEEN,) + comps[1:]),
                        ContentName(comps + ALPHABET * 2)]
        fps, lens = pack_queries(packed, queries)
        args = (fps, lens, packed.table_fp, packed.table_node,
                np.uint64(packed.mask), packed.state)
        for (hit, node, length, probes), route in (
                (kernels.lpm_batch(*args, packed.parent), self.fib.lookup_lpm),
                (kernels.linear_batch(*args), self.fib.lookup_oracle)):
            for i, q in enumerate(queries):
                face = int(packed.face[node[i]]) if hit[i] else -1
                got = (bool(hit[i]), int(length[i]), face)
                assert got == self.expected(q), q.text
                assert int(probes[i]) == route(q).probes, q.text

    # -- invariants -------------------------------------------------------

    @invariant()
    def integrity(self):
        assert self.fib.verify_integrity() == []
        assert self.fib.real_count() == len(self.routes)

    @invariant()
    def states_follow_routes(self):
        for text, nid in self.fib.index.items():
            assert self.fib.state(nid) == self.expected_state(text), text

    @invariant()
    def routes_agree(self):
        probes = [ContentName((UNSEEN,)), ContentName(ALPHABET * 2)]
        for text in self.fib.index:
            comps = ContentName.parse(text).components
            probes += [ContentName(comps), ContentName(comps + (UNSEEN,))]
        for q in probes:
            lpm, oracle = self.fib.lookup_lpm(q), self.fib.lookup_oracle(q)
            for res in (lpm, oracle):
                got = (res.hit,
                       len(res.matched_prefix) if res.hit else 0,
                       res.forwarding.face_id if res.hit else -1)
                assert got == self.expected(q), q.text
            assert lpm.forwarding == oracle.forwarding

    @invariant()
    def dump_matches_a_rebuild(self):
        # a fresh table built from the routes and bindings alone dumps the
        # same text, so the table keeps nothing of its own history
        fresh = Hpt()
        for text, fwd in self.routes.items():
            fresh.insert(ContentName.parse(text), fwd)
        for alt, text in self.bound.items():
            fresh.bind_identifier(ContentName.parse(text), alt)
        assert fresh.dump() == self.fib.dump()


class NarrowTableMachine(TableMachine):
    # Salts 0 and 1 keep two bits of fingerprint: more than four keys
    # always collide there, and salt 2 is full width again.
    expected_salt = 2


def test_table_machine():
    run_state_machine_as_test(TableMachine, settings=SETTINGS)


def test_table_machine_with_narrowed_fingerprints(monkeypatch):
    salt = [0]
    seed, step = packed_mod._seed, packed_mod._fnv_step

    def tracking_seed(s):
        salt[0] = s
        return seed(s)

    def narrowed(h, cids):
        out = step(h, cids)
        if salt[0] < NarrowTableMachine.expected_salt:
            out &= np.uint64(3)
        return out

    monkeypatch.setattr(packed_mod, "_seed", tracking_seed)
    monkeypatch.setattr(packed_mod, "_fnv_step", narrowed)
    run_state_machine_as_test(NarrowTableMachine, settings=SETTINGS)
