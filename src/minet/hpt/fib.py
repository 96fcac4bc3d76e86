"""Forwarding table backed by a hash index over a prefix tree.

Every stored name keeps its whole prefix chain indexed (reconstruction),
so membership of a query's prefixes is monotone in length and longest
prefix match can binary-search prefix lengths instead of scanning them.
Entries carry one of three states:

* real: has forwarding info (an inserted name).
* virtual: filler with no real entry above it.
* semi-virtual: filler with at least one real ancestor; a lookup that
  lands here backtracks parent links to the nearest real ancestor
  without further hash probes.

The table is stored as columns.  `index` maps a prefix's text to its
node id, and a node id is a position in every column: `state` (a
bytearray of EntryState values), `parent` (an int32 array, -1 at depth
1), `forwarding` (None unless real) and `component` (the last component
of the prefix).  Children hang off int32 link columns, -1 meaning none:
`first_child` is indexed by parent id + 1, so slot 0 heads the depth-1
names, and `next_sibling` / `prev_sibling` chain each parent's children,
newest first, so a node unlinks in O(1).  `bindings` holds a list only
for bound ids.  `delete` puts the ids it frees on the `free` list, with
no component or forwarding, and new entries take ids from there first,
so the columns do not grow across churn.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional

from minet.names import ContentName, ForwardingInfo, Identifier, IdKind


class FibError(Exception):
    pass


class UnknownContent(FibError):
    """Binding target is not a real entry."""


class DuplicateBinding(FibError):
    """Alternate identifier already bound."""


class NotBound(FibError):
    """Alternate identifier has no binding."""


class LoadError(FibError):
    """Dump file disagrees with the reconstructed table."""


class EntryState(IntEnum):
    REAL = 0
    VIRTUAL = 1
    SEMI_VIRTUAL = 2


_STATE_TOKEN = ("real", "virtual", "semi-virtual")   # indexed by state
_TOKEN_STATE = {token: EntryState(i) for i, token in enumerate(_STATE_TOKEN)}


@dataclass(frozen=True)
class LookupResult:
    hit: bool
    matched_prefix: Optional[ContentName]
    forwarding: Optional[ForwardingInfo]
    probes: int


_REAL, _VIRTUAL, _SEMI_VIRTUAL = map(int, EntryState)


def _ends(components: tuple[str, ...]) -> list[int]:
    """Where each prefix of ``/c1/.../cN`` ends in its text, shortest
    first, so a prefix is a slice of the text rather than a new join."""
    ends = []
    pos = 0
    for comp in components:
        pos += 1 + len(comp)
        ends.append(pos)
    return ends


class Hpt:
    """The forwarding table: hash index + prefix tree + identifier bindings."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.state = bytearray()
        self.parent = array("i")
        self.forwarding: list[Optional[ForwardingInfo]] = []
        self.component: list[Optional[str]] = []
        self.first_child = array("i", [-1])
        self.next_sibling = array("i")
        self.prev_sibling = array("i")
        self.bindings: dict[int, list[Identifier]] = {}
        self.free: list[int] = []
        self.alt_index: dict[Identifier, ContentName] = {}

    # -- size helpers -------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def real_count(self) -> int:
        return len(self.forwarding) - self.forwarding.count(None)

    # -- mutation ------------------------------------------------------

    def insert(self, name: ContentName, forwarding: ForwardingInfo) -> None:
        """Insert or update a real entry, keeping the prefix chain indexed."""
        text = name.text
        nid = self.index.get(text)
        if nid is not None:
            self.forwarding[nid] = forwarding
            if self.state[nid] != _REAL:
                # a filler turns real: virtual entries below gain a real ancestor
                self._recolor(nid, _REAL, _VIRTUAL, _SEMI_VIRTUAL)
            return
        comps = name.components
        ends = _ends(comps)
        # Find the deepest indexed prefix; every prefix below it is new.
        depth, parent = len(comps) - 1, -1
        while depth:
            parent = self.index.get(text[:ends[depth - 1]], -1)
            if parent != -1:
                break
            depth -= 1
        filler = (_VIRTUAL if parent == -1 or self.state[parent] == _VIRTUAL
                  else _SEMI_VIRTUAL)
        for d in range(depth, len(comps) - 1):
            parent = self._add(text[:ends[d]], comps[d], filler, parent, None)
        self._add(text, comps[-1], _REAL, parent, forwarding)

    def _add(self, text: str, component: str, state: int, parent: int,
             forwarding: Optional[ForwardingInfo]) -> int:
        """Index a new entry at the head of `parent`'s children, reusing a
        free id if any (a freed id was a leaf, so it has no children)."""
        head = self.first_child[parent + 1]
        if self.free:
            nid = self.free.pop()
            self.state[nid] = state
            self.parent[nid] = parent
            self.forwarding[nid] = forwarding
            self.component[nid] = component
            self.next_sibling[nid] = head
            self.prev_sibling[nid] = -1
        else:
            nid = len(self.state)
            self.state.append(state)
            self.parent.append(parent)
            self.forwarding.append(forwarding)
            self.component.append(component)
            self.next_sibling.append(head)
            self.prev_sibling.append(-1)
            self.first_child.append(-1)
        if head != -1:
            self.prev_sibling[head] = nid
        self.first_child[parent + 1] = nid
        self.index[text] = nid
        return nid

    def _recolor(self, nid: int, state: int, old: int, new: int) -> None:
        """Set `nid` to `state` and the `old` region hanging from it to `new`.
        Nothing virtual sits below a non-virtual entry and real entries
        shield their subtrees, so the walk stops at any other state."""
        self.state[nid] = state
        stack = [nid]
        while stack:
            child = self.first_child[stack.pop() + 1]
            while child != -1:
                if self.state[child] == old:
                    self.state[child] = new
                    stack.append(child)
                child = self.next_sibling[child]

    def delete(self, name: ContentName) -> None:
        """Remove a real entry; fillers demote or unlink as needed."""
        text = name.text
        nid = self.index.get(text)
        if nid is None or self.state[nid] != _REAL:
            return
        self.forwarding[nid] = None
        for alt in self.bindings.pop(nid, ()):
            self.alt_index.pop(alt, None)
        if self.first_child[nid + 1] != -1:
            parent = self.parent[nid]
            if parent != -1 and self.state[parent] != _VIRTUAL:
                self.state[nid] = _SEMI_VIRTUAL
                return
            # no real ancestor is left, so the region demotes to virtual
            self._recolor(nid, _VIRTUAL, _SEMI_VIRTUAL, _VIRTUAL)
            return
        # Leaf: unlink and free it, then free non-real ancestors that
        # became leaves.
        ends = _ends(name.components)
        while True:
            parent = self.parent[nid]
            del self.index[text[:ends.pop()]]
            prev, nxt = self.prev_sibling[nid], self.next_sibling[nid]
            if prev == -1:
                self.first_child[parent + 1] = nxt
            else:
                self.next_sibling[prev] = nxt
            if nxt != -1:
                self.prev_sibling[nxt] = prev
            self.component[nid] = None
            self.free.append(nid)
            if (parent == -1 or self.state[parent] == _REAL
                    or self.first_child[parent + 1] != -1):
                return
            nid = parent

    # -- lookup ----------------------------------------------------------

    def lookup_lpm(self, name: ContentName) -> LookupResult:
        """Binary search on prefix lengths; backtrack from semi-virtual hits.

        On an inconsistent table (semi-virtual entry without a real
        ancestor) this degrades to a miss rather than raising.
        """
        text = name.text
        ends = _ends(name.components)
        lo, hi = 1, len(ends)
        last = -1
        last_len = 0
        probes = 0
        index = self.index
        while lo <= hi:
            mid = (lo + hi) // 2
            probes += 1
            nid = index.get(text[:ends[mid - 1]])
            if nid is not None:
                last, last_len = nid, mid
                lo = mid + 1
            else:
                hi = mid - 1
        state = self.state
        if last != -1 and state[last] != _VIRTUAL:
            # A real terminal matches; a semi-virtual one walks parent
            # links to the nearest real ancestor.
            while last != -1 and state[last] != _REAL:
                last = self.parent[last]
                last_len -= 1
            if last != -1:
                return LookupResult(True, name.prefix(last_len),
                                    self.forwarding[last], probes)
        return LookupResult(False, None, None, probes)

    def lookup_oracle(self, name: ContentName) -> LookupResult:
        """Reference route: scan prefixes longest-first for a real entry."""
        text = name.text
        ends = _ends(name.components)
        probes = 0
        for k in range(len(ends), 0, -1):
            probes += 1
            nid = self.index.get(text[:ends[k - 1]])
            if nid is not None and self.state[nid] == _REAL:
                return LookupResult(True, name.prefix(k),
                                    self.forwarding[nid], probes)
        return LookupResult(False, None, None, probes)

    # -- identifier bindings ----------------------------------------------

    def bind_identifier(self, content: ContentName, alt: Identifier) -> None:
        if alt.kind is IdKind.CONTENT:
            raise ValueError("content identifiers resolve directly; nothing to bind")
        nid = self.index.get(content.text)
        if nid is None or self.state[nid] != _REAL:
            raise UnknownContent(content.text)
        if alt in self.alt_index:
            raise DuplicateBinding(alt.text)
        self.bindings.setdefault(nid, []).append(alt)
        self.alt_index[alt] = content

    def translate(self, alt: Identifier) -> ContentName:
        if alt.kind is IdKind.CONTENT:
            return alt.value
        try:
            return self.alt_index[alt]
        except KeyError:
            raise NotBound(alt.text) from None

    # -- integrity ---------------------------------------------------------

    def verify_integrity(self) -> list[str]:
        """Return every invariant violation found (empty when healthy)."""
        problems: list[str] = []
        seen: set[str] = set()
        stack: list[tuple[int, str, bool]] = [(-1, "", False)]
        while stack:
            parent, ptext, real_above = stack.pop()
            prev, nid = -1, self.first_child[parent + 1]
            while nid != -1:
                text = f"{ptext}/{self.component[nid]}"
                if text in seen:
                    # stop here: a sibling link may loop back
                    problems.append(f"{text}: duplicated in tree")
                    break
                seen.add(text)
                if self.prev_sibling[nid] != prev:
                    problems.append(f"{text}: broken sibling link")
                if self.index.get(text) != nid:
                    problems.append(f"{text}: tree node missing from index")
                if self.parent[nid] != parent:
                    problems.append(f"{text}: broken parent link")
                state = self.state[nid]
                if state == _REAL:
                    if self.forwarding[nid] is None:
                        problems.append(f"{text}: real entry without forwarding")
                else:
                    if self.forwarding[nid] is not None:
                        problems.append(f"{text}: non-real entry carries forwarding")
                    if self.first_child[nid + 1] == -1:
                        problems.append(f"{text}: non-real leaf")
                    if state == _VIRTUAL and real_above:
                        problems.append(f"{text}: virtual below a real entry")
                    if state == _SEMI_VIRTUAL and not real_above:
                        problems.append(f"{text}: semi-virtual without real ancestor")
                    if nid in self.bindings:
                        problems.append(f"{text}: bindings on non-real entry")
                stack.append((nid, text, real_above or state == _REAL))
                prev, nid = nid, self.next_sibling[nid]
        for text in self.index:
            if text not in seen:
                problems.append(f"{text}: indexed but unreachable from tree")
            head = text.rsplit("/", 1)[0]
            if head and head not in self.index:
                problems.append(f"{text}: prefix chain broken at {head}")
        if len(self.index) + len(self.free) != len(self.state):
            problems.append("some ids are neither indexed nor free")
        for alt, cname in self.alt_index.items():
            nid = self.index.get(cname.text)
            if nid is None or self.state[nid] != _REAL:
                problems.append(f"{alt.text}: bound to missing/non-real {cname.text}")
            elif alt not in self.bindings.get(nid, ()):
                problems.append(f"{alt.text}: reverse map not mirrored on {cname.text}")
        for text, nid in self.index.items():
            for alt in self.bindings.get(nid, ()):
                if self.alt_index.get(alt) is None or self.alt_index[alt].text != text:
                    problems.append(f"{text}: binding {alt.text} not in reverse map")
        return problems

    # -- persistence -------------------------------------------------------

    def dump(self) -> str:
        """One line per entry: name, state, face or '-', binding list."""
        lines = []
        for text in sorted(self.index):
            nid = self.index[text]
            fwd = self.forwarding[nid]
            face = str(fwd.face_id) if fwd else "-"
            binds = ",".join(alt.text for alt in self.bindings.get(nid, ()))
            lines.append(f"{text}\t{_STATE_TOKEN[self.state[nid]]}\t{face}\t{binds}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def load(cls, text: str) -> "Hpt":
        """Rebuild from a dump by replaying real entries, then verify that the
        reconstructed filler states match the dumped ones."""
        rows: list[tuple[str, EntryState, str, str]] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise LoadError(f"line {lineno}: expected 4 fields")
            name_text, state_tok, face, binds = parts
            if state_tok not in _TOKEN_STATE:
                raise LoadError(f"line {lineno}: unknown state {state_tok!r}")
            rows.append((name_text, _TOKEN_STATE[state_tok], face, binds))
        fib = cls()
        for name_text, state, face, _ in rows:
            if state == EntryState.REAL:
                if face == "-":
                    raise LoadError(f"{name_text}: real entry without face")
                fib.insert(ContentName.parse(name_text), ForwardingInfo(int(face)))
        for name_text, _, _, binds in rows:
            if binds:
                for alt_text in binds.split(","):
                    fib.bind_identifier(ContentName.parse(name_text),
                                        Identifier.parse(alt_text))
        mismatches = []
        if len(fib.index) != len(rows):
            mismatches.append(
                f"entry count {len(fib.index)} != dumped {len(rows)}")
        for name_text, state, _, _ in rows:
            nid = fib.index.get(name_text)
            if nid is None:
                mismatches.append(f"{name_text}: missing after replay")
            elif fib.state[nid] != state:
                mismatches.append(
                    f"{name_text}: state {_STATE_TOKEN[fib.state[nid]]} != "
                    f"dumped {_STATE_TOKEN[state]}")
        if mismatches:
            raise LoadError("; ".join(mismatches[:20]))
        return fib

    # -- iteration ----------------------------------------------------------

    def entries(self) -> Iterator[tuple[str, EntryState]]:
        """(text, state) of every indexed entry."""
        return ((text, EntryState(self.state[nid]))
                for text, nid in self.index.items())
