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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Optional

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


_STATE_TOKEN = {
    EntryState.REAL: "real",
    EntryState.VIRTUAL: "virtual",
    EntryState.SEMI_VIRTUAL: "semi-virtual",
}
_TOKEN_STATE = {v: k for k, v in _STATE_TOKEN.items()}


class FibNode:
    __slots__ = ("component", "state", "parent", "children", "forwarding", "bindings")

    def __init__(self, component: str, state: EntryState,
                 forwarding: Optional[ForwardingInfo] = None):
        self.component = component
        self.state = state
        self.parent: Optional[FibNode] = None
        # both lists stay None until first use: most nodes are leaves
        # without bindings, and a million empty lists is real memory
        self.children: Optional[list[FibNode]] = None
        self.forwarding = forwarding
        self.bindings: Optional[list[Identifier]] = None

    def __repr__(self) -> str:  # debugging aid only
        return f"<FibNode {self.component!r} {self.state.name}>"


@dataclass(frozen=True)
class LookupResult:
    hit: bool
    matched_prefix: Optional[ContentName]
    forwarding: Optional[ForwardingInfo]
    probes: int


class Hpt:
    """The forwarding table: hash index + prefix tree + identifier bindings."""

    def __init__(self) -> None:
        # The root is a sentinel: never indexed, state is meaningless.
        self.root = FibNode("", EntryState.VIRTUAL)
        self.index: dict[str, FibNode] = {}
        self.alt_index: dict[Identifier, ContentName] = {}

    # -- size helpers -------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def real_count(self) -> int:
        return sum(1 for n in self.index.values() if n.state == EntryState.REAL)

    # -- mutation ------------------------------------------------------

    def insert(self, name: ContentName, forwarding: ForwardingInfo) -> None:
        """Insert or update a real entry, keeping the prefix chain indexed."""
        texts = name.prefix_texts()
        node = self.index.get(texts[-1])
        if node is not None:
            if node.state == EntryState.REAL:
                node.forwarding = forwarding
                return
            # A filler becomes real: every virtual entry below now has a
            # real ancestor.
            node.state = EntryState.REAL
            node.forwarding = forwarding
            self._promote_virtual_subtree(node)
            return

        n = len(texts)
        child = FibNode(name.components[-1], EntryState.REAL, forwarding)
        self.index[texts[-1]] = child
        created = [child]
        for i in range(n - 1, 0, -1):
            node = self.index.get(texts[i - 1])
            if node is not None:
                self._attach(node, child)
                inter = (EntryState.VIRTUAL if node.state == EntryState.VIRTUAL
                         else EntryState.SEMI_VIRTUAL)
                for filler in created[1:]:
                    filler.state = inter
                return
            filler = FibNode(name.components[i - 1], EntryState.VIRTUAL)
            self.index[texts[i - 1]] = filler
            self._attach(filler, child)
            child = filler
            created.append(filler)
        self._attach(self.root, child)
        for filler in created[1:]:
            filler.state = EntryState.VIRTUAL

    def delete(self, name: ContentName) -> None:
        """Remove a real entry; fillers demote or unlink as needed."""
        texts = name.prefix_texts()
        node = self.index.get(texts[-1])
        if node is None or node.state != EntryState.REAL:
            return
        if node.children:
            node.forwarding = None
            self._drop_bindings(node)
            parent = node.parent
            if parent is not self.root and parent.state in (
                    EntryState.REAL, EntryState.SEMI_VIRTUAL):
                node.state = EntryState.SEMI_VIRTUAL
                return
            # No real ancestor remains: this filler region loses its only
            # real prefix, so demote it (and dependent semi-virtual
            # descendants) back to virtual.  Real descendants shield their
            # own subtrees.
            queue = deque([node])
            while queue:
                cur = queue.popleft()
                cur.state = EntryState.VIRTUAL
                for ch in cur.children or ():
                    if ch.state == EntryState.SEMI_VIRTUAL:
                        queue.append(ch)
            return
        # Leaf: unlink it, then prune non-real ancestors that became leaves.
        self._drop_bindings(node)
        node.parent.children.remove(node)
        del self.index[texts[-1]]
        for i in range(len(texts) - 1, 0, -1):
            anc = self.index[texts[i - 1]]
            if anc.state != EntryState.REAL and not anc.children:
                anc.parent.children.remove(anc)
                del self.index[texts[i - 1]]
            else:
                return

    def _attach(self, parent: FibNode, child: FibNode) -> None:
        if parent.children is None:
            parent.children = [child]
        else:
            parent.children.append(child)
        child.parent = parent

    def _promote_virtual_subtree(self, node: FibNode) -> None:
        # Virtual regions are contiguous: nothing virtual sits below a
        # non-virtual entry, so pruning at non-virtual children is safe.
        stack = [node]
        while stack:
            cur = stack.pop()
            for ch in cur.children or ():
                if ch.state == EntryState.VIRTUAL:
                    ch.state = EntryState.SEMI_VIRTUAL
                    stack.append(ch)

    def _drop_bindings(self, node: FibNode) -> None:
        for alt in node.bindings or ():
            self.alt_index.pop(alt, None)
        node.bindings = None

    # -- lookup ----------------------------------------------------------

    def lookup_lpm(self, name: ContentName) -> LookupResult:
        """Binary search on prefix lengths; backtrack from semi-virtual hits.

        On an inconsistent table (semi-virtual entry without a real
        ancestor) this degrades to a miss rather than raising.
        """
        comps = name.components
        text = name.text
        # Component boundaries let each probe slice the canonical text
        # instead of re-joining components.
        ends = []
        pos = 0
        for comp in comps:
            pos += 1 + len(comp)
            ends.append(pos)
        lo, hi = 1, len(comps)
        last: Optional[FibNode] = None
        last_len = 0
        probes = 0
        index = self.index
        while lo <= hi:
            mid = (lo + hi) // 2
            probes += 1
            node = index.get(text[:ends[mid - 1]])
            if node is not None:
                last = node
                last_len = mid
                lo = mid + 1
            else:
                hi = mid - 1
        if last is None or last.state == EntryState.VIRTUAL:
            return LookupResult(False, None, None, probes)
        if last.state == EntryState.REAL:
            return LookupResult(True, name.prefix(last_len), last.forwarding, probes)
        # Semi-virtual: walk parent links to the nearest real ancestor.
        cur = last.parent
        depth = last_len - 1
        while cur is not None and cur is not self.root:
            if cur.state == EntryState.REAL:
                return LookupResult(True, name.prefix(depth), cur.forwarding, probes)
            cur = cur.parent
            depth -= 1
        return LookupResult(False, None, None, probes)

    def lookup_oracle(self, name: ContentName) -> LookupResult:
        """Reference route: scan prefixes longest-first for a real entry."""
        texts = name.prefix_texts()
        probes = 0
        for i in range(len(texts), 0, -1):
            probes += 1
            node = self.index.get(texts[i - 1])
            if node is not None and node.state == EntryState.REAL:
                return LookupResult(True, name.prefix(i), node.forwarding, probes)
        return LookupResult(False, None, None, probes)

    # -- identifier bindings ----------------------------------------------

    def bind_identifier(self, content: ContentName, alt: Identifier) -> None:
        if alt.kind is IdKind.CONTENT:
            raise ValueError("content identifiers resolve directly; nothing to bind")
        node = self.index.get(content.text)
        if node is None or node.state != EntryState.REAL:
            raise UnknownContent(content.text)
        if alt in self.alt_index:
            raise DuplicateBinding(alt.text)
        if node.bindings is None:
            node.bindings = [alt]
        else:
            node.bindings.append(alt)
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
        seen: dict[str, FibNode] = {}
        stack: list[tuple[FibNode, str, bool]] = [(self.root, "", False)]
        while stack:
            parent, ptext, real_above = stack.pop()
            for node in parent.children or ():
                text = ptext + "/" + node.component
                if text in seen:
                    problems.append(f"{text}: duplicated in tree")
                    continue
                seen[text] = node
                if self.index.get(text) is not node:
                    problems.append(f"{text}: tree node missing from index")
                if node.parent is not parent:
                    problems.append(f"{text}: broken parent link")
                if node.state == EntryState.REAL:
                    if node.forwarding is None:
                        problems.append(f"{text}: real entry without forwarding")
                else:
                    if node.forwarding is not None:
                        problems.append(f"{text}: non-real entry carries forwarding")
                    if not node.children:
                        problems.append(f"{text}: non-real leaf")
                    if node.state == EntryState.VIRTUAL and real_above:
                        problems.append(f"{text}: virtual below a real entry")
                    if node.state == EntryState.SEMI_VIRTUAL and not real_above:
                        problems.append(f"{text}: semi-virtual without real ancestor")
                    if node.bindings:
                        problems.append(f"{text}: bindings on non-real entry")
                stack.append((node, text, real_above or node.state == EntryState.REAL))
        for text in self.index:
            if text not in seen:
                problems.append(f"{text}: indexed but unreachable from tree")
        for text in self.index:
            head = text.rsplit("/", 1)[0]
            if head and head not in self.index:
                problems.append(f"{text}: prefix chain broken at {head}")
        for alt, cname in self.alt_index.items():
            node = self.index.get(cname.text)
            if node is None or node.state != EntryState.REAL:
                problems.append(f"{alt.text}: bound to missing/non-real {cname.text}")
            elif alt not in (node.bindings or ()):
                problems.append(f"{alt.text}: reverse map not mirrored on {cname.text}")
        for text, node in self.index.items():
            for alt in node.bindings or ():
                if self.alt_index.get(alt) is None or self.alt_index[alt].text != text:
                    problems.append(f"{text}: binding {alt.text} not in reverse map")
        return problems

    # -- persistence -------------------------------------------------------

    def dump(self) -> str:
        """One line per entry: name, state, face or '-', binding list."""
        lines = []
        for text in sorted(self.index):
            node = self.index[text]
            face = str(node.forwarding.face_id) if node.forwarding else "-"
            binds = ",".join(alt.text for alt in node.bindings or ())
            lines.append(f"{text}\t{_STATE_TOKEN[node.state]}\t{face}\t{binds}")
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
            node = fib.index.get(name_text)
            if node is None:
                mismatches.append(f"{name_text}: missing after replay")
            elif node.state != state:
                mismatches.append(
                    f"{name_text}: state {_STATE_TOKEN[node.state]} != "
                    f"dumped {_STATE_TOKEN[state]}")
        if mismatches:
            raise LoadError("; ".join(mismatches[:20]))
        return fib

    # -- iteration ----------------------------------------------------------

    def entries(self) -> Iterable[tuple[str, FibNode]]:
        return self.index.items()
