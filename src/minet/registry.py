"""Hierarchical identifier registration and resolution.

The network is divided into a tree of administrative domains.  Each
domain runs its own vote-based chain (see `minet.apov`): registering an
identifier means passing a compliance review, committing a registration
transaction through one consensus round among the domain's supervisor
nodes, landing the record in the domain's off-chain store, and — for
content identifiers — installing a forwarding entry in the domain's
lookup table (with optional bindings attaching other identifier kinds
to an existing content entry).

Resolution walks the tree:

1. locally: forwarding table and off-chain store first (authoritative),
   then the bounded result cache; bare IP identifiers stop here — when
   unknown locally they are handed to an IP proxy rather than recursed;
2. upward: each ancestor in turn, up to the top-level domain;
3. downward: directed descent when the identifier carries a domain path
   as its name prefix, otherwise breadth-first over the remaining
   domains; a visited set of the domains themselves (domain names are
   unique in a hierarchy, so identity is the same test and hashes in C)
   guarantees no domain is checked twice.

The hierarchy makes its own domains: one top domain, three regions and
their districts, from `DEFAULT_TREE`, so no domain is shared with
another hierarchy.  A domain links only downward, to its children; the
hierarchy records each domain's ancestors, nearest first, as one tuple
when it adds the domain, and the upward walk reads that tuple.  So the
tree holds no reference cycle, and a dropped hierarchy is freed by
reference counting at once, not by the cyclic collector.  A `Domain`
object of another hierarchy is refused by `register` and `resolve`,
never silently used.

The hop list always starts at the querying domain.  Committed records
are replicated synchronously into a hierarchy-wide duplicate index
(modeling frequently-synchronized registry databases), so duplicates
are rejected no matter which domain receives the request.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .apov import (
    Chain,
    ChainError,
    ConsensusConfig,
    IncompleteVotes,
    Transaction,
    assemble_group,
    cast_validation_votes,
    make_block,
    tally_and_seal,
)
from .hpt import Hpt
from .names import ContentName, ForwardingInfo, IdKind, Identifier

CACHE_LIMIT = 256
# the domains below /top: each label maps to its children's
DEFAULT_TREE = {"cn": {"gd": {}, "bj": {}},
                "us": {"ca": {}, "ny": {}},
                "eu": {"de": {}, "fr": {}, "es": {}}}
SUPERVISORS = (0, 1, 2, 3)        # every domain's supervisor node ids
# every round: all supervisors vote on one registration
_ROUND_CONFIG = ConsensusConfig(n_c=len(SUPERVISORS), max_txs=1)


class RegistryError(Exception):
    pass


class Duplicate(RegistryError):
    pass


class ComplianceRejected(RegistryError):
    pass


class ConsensusFailed(RegistryError):
    pass


@dataclass(frozen=True)
class RegistrationRequest:
    identifier: Identifier
    owner: Identifier
    forwarding: Optional[ForwardingInfo] = None
    binds_to: Optional[ContentName] = None


@dataclass(frozen=True)
class RegistrationRecord:
    identifier: Identifier
    owner: Identifier
    domain: ContentName
    height: int
    status: str                   # always "committed"
    tx_id: int


class ResolutionOutcome(Enum):
    RESOLVED = "resolved"
    PROXIED_TO_IP = "proxied-to-ip"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class ResolutionResult:
    outcome: ResolutionOutcome
    hops: tuple[ContentName, ...]
    record: Optional[RegistrationRecord] = None
    forwarding: Optional[ForwardingInfo] = None
    message: str = ""


# EnumType defines __getattr__, so a member read off its class takes a
# Python-level hook; registration and the resolve walk read these instead
_CONTENT, _IDENTITY, _IP = IdKind.CONTENT, IdKind.IDENTITY, IdKind.IP
_RESOLVED = ResolutionOutcome.RESOLVED


class Domain:
    def __init__(self, name: ContentName):
        self.name = name
        self.children: list[Domain] = []
        self.down_supervisors: set[int] = set()
        self.chain = Chain(first_leader=SUPERVISORS[0])
        # the one transaction id committed at each height, None for
        # genesis: all that `verify_consistency` reads of the dropped groups
        self.committed_ids: list[Optional[int]] = [None]
        self.offchain: dict[Identifier, RegistrationRecord] = {}
        self.fib = Hpt()
        self.cache: dict[Identifier, tuple[RegistrationRecord,
                                           Optional[ForwardingInfo]]] = {}

    def __repr__(self) -> str:
        return f"Domain({self.name.text})"


def default_compliance(domain: Domain,
                       request: RegistrationRequest) -> Optional[str]:
    """Syntactic validity of the request, beyond what the types enforce."""
    if request.owner.kind is not _IDENTITY:
        return "owner must be an identity identifier"
    content = request.identifier.kind is _CONTENT
    if content and request.forwarding is None:
        return "content registration needs forwarding information"
    if not content and request.forwarding is not None:
        return "only content registrations carry forwarding information"
    if request.binds_to is not None:
        if content:
            return "a content identifier cannot bind to another content entry"
        if Identifier.content(request.binds_to) not in domain.offchain:
            return f"binds_to target {request.binds_to.text} not committed here"
    return None


class Hierarchy:
    """A domain tree plus the registry operations running over it."""

    def __init__(self, *, store_path=None):
        self.root = Domain(ContentName.parse("/top"))
        self.store_path = store_path
        self.committed: dict[Identifier, ContentName] = {}
        self._index: dict[ContentName, Domain] = {}
        # each domain's ancestors, nearest first; keyed by the domain
        # itself, so it is also the membership test for Domain arguments
        self._up: dict[Domain, tuple[Domain, ...]] = {}
        stack = [(self.root, (), DEFAULT_TREE)]
        while stack:
            d, up, below = stack.pop()
            self._index[d.name] = d
            self._up[d] = up
            up = (d, *up)
            for label, grandchildren in below.items():
                child = Domain(d.name.child(label))
                d.children.append(child)
                stack.append((child, up, grandchildren))

    @staticmethod
    def default(store_path=None) -> "Hierarchy":
        """Three administrative levels: one top domain, three regions,
        two or three districts each."""
        return Hierarchy(store_path=store_path)

    def domains(self) -> Iterable[Domain]:
        return self._index.values()

    def domain(self, name: ContentName | str) -> Domain:
        key = ContentName.parse(name) if isinstance(name, str) else name
        try:
            return self._index[key]
        except KeyError:
            raise RegistryError(f"no domain named "
                                f"{key.text}") from None

    def _member(self, domain: Domain | ContentName | str) -> Domain:
        """The domain named, or the Domain given if it is one of ours."""
        if not isinstance(domain, Domain):
            return self.domain(domain)
        if domain not in self._up:
            raise RegistryError(f"domain {domain.name.text} is not in "
                                f"this hierarchy")
        return domain

    # -- registration -------------------------------------------------------

    def register(self, domain: Domain | ContentName | str,
                 request: RegistrationRequest) -> RegistrationRecord:
        domain = self._member(domain)
        if request.identifier in self.committed:
            where = self.committed[request.identifier].text
            raise Duplicate(f"{request.identifier.text} already committed "
                            f"in {where}")
        reason = default_compliance(domain, request)
        if reason is not None:
            raise ComplianceRejected(reason)
        tx = _registration_tx(request, domain)
        height = self._commit_round(domain, tx)
        record = RegistrationRecord(request.identifier, request.owner,
                                    domain.name, height, "committed", tx.id)
        domain.offchain[request.identifier] = record
        self.committed[request.identifier] = domain.name
        if request.identifier.kind is _CONTENT:
            domain.fib.insert(request.identifier.value, request.forwarding)
        if request.binds_to is not None:
            domain.fib.bind_identifier(request.binds_to, request.identifier)
        self._store(record)
        return record

    def _commit_round(self, domain: Domain, tx: Transaction) -> int:
        """One consensus round among the domain's supervisors: the round
        leader packs the registration block, every supervisor votes."""
        height = domain.chain.height + 1
        prev = domain.chain.tip_digest
        leader = domain.chain.next_leader
        block = make_block(leader, [tx], prev, timestamp=height,
                           config=_ROUND_CONFIG)
        votes = [cast_validation_votes(v, [block], prev, _ROUND_CONFIG)
                 for v in SUPERVISORS
                 if v not in domain.down_supervisors]
        seed = _round_seed(domain.name, height)
        try:
            header = tally_and_seal(leader, votes, [block], height, seed,
                                    _ROUND_CONFIG, eligible=SUPERVISORS)
        except IncompleteVotes as exc:
            raise ConsensusFailed(f"round stalled in {domain.name.text}: "
                                  f"{exc}") from exc
        group = assemble_group(header, [block])
        if not group.body:
            raise ConsensusFailed(f"registration block voted down in "
                                  f"{domain.name.text}")
        try:
            domain.chain.append(group, _ROUND_CONFIG)
        except ChainError as exc:
            raise ConsensusFailed(str(exc)) from exc
        # the body is the one block, or the round would have failed
        domain.committed_ids.append(tx.id)
        return height

    def _store(self, record: RegistrationRecord) -> None:
        if self.store_path is None:
            return
        with open(self.store_path, "a", encoding="utf-8") as fh:
            fh.write(_JSON.encode(record_to_dict(record)) + "\n")

    # -- resolution -----------------------------------------------------------

    def resolve(self, origin: Domain | ContentName | str,
                ident: Identifier) -> ResolutionResult:
        up = self._up.get(origin)
        if up is None:          # a name, or a Domain of another hierarchy
            origin = self._member(origin)
            up = self._up[origin]
        hops: list[ContentName] = [origin.name]
        found = self._check_domain(origin, ident)
        if found is not None:
            return _resolved(found, hops)
        if ident.kind is _IP:
            return ResolutionResult(
                ResolutionOutcome.PROXIED_TO_IP, tuple(hops),
                message=f"{ident.text} unknown locally; "
                        f"handing off to the IP proxy")
        cached = origin.cache.get(ident)
        if cached is not None:
            return _resolved(cached, hops, "served from cache")
        visited = {origin}
        for node in up:
            hops.append(node.name)
            visited.add(node)
            found = self._check_domain(node, ident)
            if found is not None:
                self._cache(origin, found)
                return _resolved(found, hops)
        for domain in self._descent_order(ident, visited):
            hops.append(domain.name)
            visited.add(domain)
            found = self._check_domain(domain, ident)
            if found is not None:
                self._cache(origin, found)
                return _resolved(found, hops)
        return ResolutionResult(
            ResolutionOutcome.NOT_FOUND, tuple(hops),
            message=f"{ident.text} not found after visiting "
                    f"{len(hops)} domains")

    def _descent_order(self, ident: Identifier,
                       visited: set[Domain]) -> Iterable[Domain]:
        """Directed descent along a carried domain path first, then
        breadth-first over whatever remains (exhaustive, no revisits)."""
        if ident.kind is _CONTENT:
            node = self.root
            while True:
                # descend into the child whose name prefixes the identifier
                for child in node.children:
                    if child.name.is_prefix_of(ident.value):
                        break
                else:
                    break
                if child not in visited:
                    yield child
                node = child
        queue = deque([self.root])
        while queue:
            d = queue.popleft()
            queue.extend(d.children)
            if d not in visited:
                yield d

    def _check_domain(self, domain: Domain, ident: Identifier
                      ) -> Optional[tuple[Optional[RegistrationRecord],
                                          Optional[ForwardingInfo]]]:
        record = domain.offchain.get(ident)
        forwarding = None
        # a content identifier translates to its own name
        bound = domain.fib.translate(ident)
        if bound is not None:
            hit = domain.fib.lookup_lpm(bound)
            if hit.hit:
                forwarding = hit.forwarding
        if record is None and forwarding is None:
            return None
        return record, forwarding

    def _cache(self, origin: Domain,
               found: tuple[Optional[RegistrationRecord],
                            Optional[ForwardingInfo]]) -> None:
        record = found[0]
        if record is None:
            return
        if len(origin.cache) >= CACHE_LIMIT:
            origin.cache.pop(next(iter(origin.cache)))
        origin.cache[record.identifier] = found

    # -- consistency ------------------------------------------------------------

    def verify_consistency(self) -> list[str]:
        """Off-chain records and on-chain transactions must correspond
        one to one, read through each domain's `committed_ids`, the
        transaction id it kept from each group its chain appended; the
        duplicate index must mirror the stores."""
        problems = []
        seen: dict[Identifier, ContentName] = {}
        for domain in self.domains():
            for ident, record in domain.offchain.items():
                if ident in seen:
                    problems.append(f"{ident.text} committed twice")
                seen[ident] = domain.name
                if record.height > domain.chain.height:
                    problems.append(f"{ident.text} height beyond chain tip")
                    continue
                if record.tx_id != domain.committed_ids[record.height]:
                    problems.append(
                        f"{ident.text} transaction missing at height "
                        f"{record.height} in {domain.name.text}")
        if seen != self.committed:
            problems.append("duplicate index out of sync with stores")
        return problems


def _resolved(found: tuple[Optional[RegistrationRecord],
                           Optional[ForwardingInfo]],
              hops: list[ContentName], message: str = "") -> ResolutionResult:
    record, forwarding = found
    return ResolutionResult(_RESOLVED, tuple(hops),
                            record=record, forwarding=forwarding,
                            message=message)


# json.dumps(obj, sort_keys=True) builds this encoder on every call
_JSON = json.JSONEncoder(sort_keys=True)


def _registration_tx(request: RegistrationRequest, domain: Domain
                     ) -> Transaction:
    payload = _JSON.encode(request_to_dict(request)).encode()
    digest = hashlib.sha256(
        f"{domain.name.text}|{request.identifier.text}".encode()).digest()
    tx_id = int.from_bytes(digest[:8], "big") >> 1
    return Transaction(tx_id, payload, nominal_size=len(payload))


def _round_seed(domain_name: ContentName, height: int) -> int:
    digest = hashlib.sha256(f"{domain_name.text}:{height}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- wire schema -------------------------------------------------------------

def request_to_dict(request: RegistrationRequest) -> dict:
    return {
        "identifier": request.identifier.text,
        "owner": request.owner.text,
        "forwarding": None if request.forwarding is None else {
            "face_id": request.forwarding.face_id,
            "metric": request.forwarding.metric,
        },
        "binds_to": None if request.binds_to is None else request.binds_to.text,
    }


def record_to_dict(record: RegistrationRecord) -> dict:
    return {
        "identifier": record.identifier.text,
        "owner": record.owner.text,
        "domain": record.domain.text,
        "height": record.height,
        "status": record.status,
        "tx_id": record.tx_id,
    }


def record_from_dict(data: dict) -> RegistrationRecord:
    return RegistrationRecord(
        identifier=Identifier.parse(data["identifier"]),
        owner=Identifier.parse(data["owner"]),
        domain=ContentName.parse(data["domain"]),
        height=int(data["height"]),
        status=data["status"],
        tx_id=int(data["tx_id"]),
    )


def read_record_store(path) -> list[RegistrationRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(record_from_dict(json.loads(line)))
    return out
