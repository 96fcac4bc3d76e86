"""Forwarding table backed by a hash index over a prefix tree.

Every stored name keeps its whole prefix chain indexed (reconstruction),
so membership of a query's prefixes is monotone in length and longest
prefix match can binary-search prefix lengths instead of scanning them.
An entry is real when it has forwarding info (an inserted name) and a
filler otherwise.  A filler's state is derived, never stored: it is
semi-virtual when a real entry lies above it, so a lookup that lands
there walks parent links to that entry without further hash probes, and
virtual when none does.

The table is stored as columns.  `index` maps a prefix's text to its
node id, and a node id is a position in every column: `parent` (an
int32 array, -1 at depth 1), `children` (an int32 count of the entries
one level below), `forwarding` (None unless real) and `component` (the
last component of the prefix).  `bindings` holds a list only for bound
ids.  `delete` puts the ids it frees on the `free` list, with no
component or forwarding, and new entries take ids from there first, so
the columns do not grow across churn.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from minet.names import ContentName, ForwardingInfo, Identifier, IdKind


class FibError(Exception):
    pass


class UnknownContent(FibError):
    """Binding target is not a real entry."""


class DuplicateBinding(FibError):
    """Alternate identifier already bound."""


class EntryState(IntEnum):
    REAL = 0
    VIRTUAL = 1
    SEMI_VIRTUAL = 2


# EnumType defines __getattr__, so a member read off its class takes a
# Python-level hook; `translate` and `bind_identifier` read this instead
_CONTENT = IdKind.CONTENT

_STATE_TOKEN = ("real", "virtual", "semi-virtual")   # indexed by state


@dataclass(frozen=True)
class LookupResult:
    hit: bool
    matched_prefix: Optional[ContentName]
    forwarding: Optional[ForwardingInfo]
    probes: int


# Every miss `lookup_lpm` can return, by probe count: a binary search over
# L prefix lengths makes at most L.bit_length() probes, and L < 2**64.
_MISSES = tuple(LookupResult(False, None, None, probes)
                for probes in range(65))


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
        self.parent = array("i")
        self.children = array("i")
        self.forwarding: list[Optional[ForwardingInfo]] = []
        self.component: list[Optional[str]] = []
        self.bindings: dict[int, list[Identifier]] = {}
        self.free: list[int] = []
        self.alt_index: dict[Identifier, ContentName] = {}

    # -- size helpers -------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def real_count(self) -> int:
        return len(self.forwarding) - self.forwarding.count(None)

    def state(self, nid: int) -> EntryState:
        """Real with forwarding, else semi-virtual below a real entry,
        else virtual."""
        forwarding, parent = self.forwarding, self.parent
        if forwarding[nid] is not None:
            return EntryState.REAL
        nid = parent[nid]
        while nid != -1:
            if forwarding[nid] is not None:
                return EntryState.SEMI_VIRTUAL
            nid = parent[nid]
        return EntryState.VIRTUAL

    # -- mutation ------------------------------------------------------

    def insert(self, name: ContentName, forwarding: ForwardingInfo) -> None:
        """Insert or update a real entry, keeping the prefix chain indexed."""
        text = name.text
        nid = self.index.get(text)
        if nid is not None:
            self.forwarding[nid] = forwarding
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
        for d in range(depth, len(comps) - 1):
            parent = self._add(text[:ends[d]], comps[d], parent, None)
        self._add(text, comps[-1], parent, forwarding)

    def _add(self, text: str, component: str, parent: int,
             forwarding: Optional[ForwardingInfo]) -> int:
        """Index a new child of `parent`, reusing a free id if any (a freed
        id was a leaf, so its child count is 0)."""
        if self.free:
            nid = self.free.pop()
            self.parent[nid] = parent
            self.forwarding[nid] = forwarding
            self.component[nid] = component
        else:
            nid = len(self.parent)
            self.parent.append(parent)
            self.children.append(0)
            self.forwarding.append(forwarding)
            self.component.append(component)
        if parent != -1:
            self.children[parent] += 1
        self.index[text] = nid
        return nid

    def delete(self, name: ContentName) -> None:
        """Remove a real entry; a leaf is freed with the fillers above it
        that it leaves childless."""
        text = name.text
        nid = self.index.get(text)
        if nid is None or self.forwarding[nid] is None:
            return
        self.forwarding[nid] = None
        for alt in self.bindings.pop(nid, ()):
            self.alt_index.pop(alt, None)
        ends = _ends(name.components)
        while not self.children[nid]:
            parent = self.parent[nid]
            del self.index[text[:ends.pop()]]
            self.component[nid] = None
            self.free.append(nid)
            if parent == -1:
                return
            self.children[parent] -= 1
            if self.forwarding[parent] is not None:
                return
            nid = parent

    # -- lookup ----------------------------------------------------------

    def lookup_lpm(self, name: ContentName) -> LookupResult:
        """Binary search on prefix lengths, then walk parent links from a
        filler terminal to the nearest real ancestor; the walk makes no
        hash probes, and a filler with none above it is a miss."""
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
        forwarding = self.forwarding
        while last != -1 and forwarding[last] is None:
            last = self.parent[last]
            last_len -= 1
        if last == -1:
            return _MISSES[probes]
        return LookupResult(True, name.prefix(last_len), forwarding[last],
                            probes)

    def lookup_oracle(self, name: ContentName) -> LookupResult:
        """Reference route: scan prefixes longest-first for a real entry."""
        text = name.text
        ends = _ends(name.components)
        probes = 0
        for k in range(len(ends), 0, -1):
            probes += 1
            nid = self.index.get(text[:ends[k - 1]])
            if nid is not None and self.forwarding[nid] is not None:
                return LookupResult(True, name.prefix(k),
                                    self.forwarding[nid], probes)
        return LookupResult(False, None, None, probes)

    # -- identifier bindings ----------------------------------------------

    def bind_identifier(self, content: ContentName, alt: Identifier) -> None:
        if alt.kind is _CONTENT:
            raise ValueError("content identifiers resolve directly; nothing to bind")
        nid = self.index.get(content.text)
        if nid is None or self.forwarding[nid] is None:
            raise UnknownContent(content.text)
        if alt in self.alt_index:
            raise DuplicateBinding(alt.text)
        self.bindings.setdefault(nid, []).append(alt)
        self.alt_index[alt] = content

    def translate(self, alt: Identifier) -> Optional[ContentName]:
        """The content name an identifier resolves to: a content
        identifier's own name, the entry a bound identifier is attached
        to, or None for an identifier with no binding (never bound, or
        dropped with its entry by `delete`)."""
        if alt.kind is _CONTENT:
            return alt.value
        return self.alt_index.get(alt)

    # -- integrity ---------------------------------------------------------

    def verify_integrity(self) -> list[str]:
        """Return every invariant violation found (empty when healthy)."""
        problems: list[str] = []
        index = self.index
        counts = [0] * len(self.parent)
        for text, nid in index.items():
            head, _, last = text.rpartition("/")
            up = index.get(head, -1)
            if head and up == -1:
                problems.append(f"{text}: prefix chain broken at {head}")
            elif self.parent[nid] != up:
                problems.append(f"{text}: broken parent link")
            if up != -1:
                counts[up] += 1
            if self.component[nid] != last:
                problems.append(f"{text}: component is {self.component[nid]!r}")
            if self.forwarding[nid] is None:
                if not self.children[nid]:
                    problems.append(f"{text}: non-real leaf")
                if nid in self.bindings:
                    problems.append(f"{text}: bindings on non-real entry")
        for text, nid in index.items():
            if self.children[nid] != counts[nid]:
                problems.append(f"{text}: child count {self.children[nid]} "
                                f"!= {counts[nid]}")
        ids = set(index.values()).union(self.free)
        if not len(ids) == len(index) + len(self.free) == len(self.parent):
            problems.append("some ids are neither indexed nor free")
        for alt, cname in self.alt_index.items():
            nid = index.get(cname.text)
            if nid is None or self.forwarding[nid] is None:
                problems.append(f"{alt.text}: bound to missing/non-real {cname.text}")
            elif alt not in self.bindings.get(nid, ()):
                problems.append(f"{alt.text}: reverse map not mirrored on {cname.text}")
        for text, nid in index.items():
            for alt in self.bindings.get(nid, ()):
                if self.alt_index.get(alt) is None or self.alt_index[alt].text != text:
                    problems.append(f"{text}: binding {alt.text} not in reverse map")
        return problems

    # -- text dump ---------------------------------------------------------

    def dump(self) -> str:
        """One line per entry: name, state, face or '-', binding list."""
        lines = []
        for text in sorted(self.index):
            nid = self.index[text]
            fwd = self.forwarding[nid]
            face = str(fwd.face_id) if fwd else "-"
            binds = ",".join(alt.text for alt in self.bindings.get(nid, ()))
            lines.append(f"{text}\t{_STATE_TOKEN[self.state(nid)]}\t{face}\t{binds}")
        return "\n".join(lines) + ("\n" if lines else "")
