import dataclasses
import gc
import hashlib
import random
import struct
import tracemalloc

import pytest

from minet.names import ContentName, ForwardingInfo, Identifier
from minet.registry import (
    CACHE_LIMIT,
    SUPERVISORS,
    ComplianceRejected,
    ConsensusFailed,
    Duplicate,
    Hierarchy,
    RegistrationRequest,
    RegistryError,
    ResolutionOutcome,
    read_record_store,
    record_from_dict,
    record_to_dict,
    request_to_dict,
)

ALICE = Identifier.identity("alice")
FWD = ForwardingInfo(face_id=7, metric=1)


def content_request(name: str, face: int = 7) -> RegistrationRequest:
    return RegistrationRequest(Identifier.content(name), ALICE,
                               forwarding=ForwardingInfo(face_id=face))


def test_default_hierarchy_shape():
    hier = Hierarchy.default()
    names = sorted(d.name.text for d in hier.domains())
    assert names == [
        "/top", "/top/cn", "/top/cn/bj", "/top/cn/gd",
        "/top/eu", "/top/eu/de", "/top/eu/es", "/top/eu/fr",
        "/top/us", "/top/us/ca", "/top/us/ny",
    ]
    res = hier.resolve("/top/cn/gd", Identifier.content("/no/such/thing"))
    assert res.outcome is ResolutionOutcome.NOT_FOUND
    assert [h.text for h in res.hops[:3]] == ["/top/cn/gd", "/top/cn", "/top"]


def test_register_commits_record_chain_and_fib():
    hier = Hierarchy.default()
    cn = hier.domain("/top/cn")
    record = hier.register(cn, content_request("/video/v1"))
    assert record.status == "committed"
    assert record.height == 1
    assert record.domain == cn.name
    assert cn.chain.height == 1
    assert cn.committed_ids == [None, record.tx_id]
    hit = cn.fib.lookup_lpm(ContentName.parse("/video/v1"))
    assert hit.hit and hit.forwarding.face_id == 7


def test_compliance_rejections():
    hier = Hierarchy.default()
    cn = hier.domain("/top/cn")
    with pytest.raises(ComplianceRejected, match="forwarding"):
        hier.register(cn, RegistrationRequest(
            Identifier.content("/video/v1"), ALICE))
    with pytest.raises(ComplianceRejected, match="owner"):
        hier.register(cn, RegistrationRequest(
            Identifier.content("/video/v1"), Identifier.geo("cn/gd"),
            forwarding=FWD))
    with pytest.raises(ComplianceRejected, match="binds_to target"):
        hier.register(cn, RegistrationRequest(
            Identifier.ip("10.0.0.1"), ALICE,
            binds_to=ContentName.parse("/video/v1")))
    assert cn.chain.height == 0 and not cn.offchain


def test_duplicate_rejected_from_any_domain():
    hier = Hierarchy.default()
    hier.register("/top/cn/gd", content_request("/video/v1"))
    heights = {d.name: d.chain.height for d in hier.domains()}
    for origin in ("/top/cn/gd", "/top/us", "/top"):
        with pytest.raises(Duplicate, match="/top/cn/gd"):
            hier.register(origin, content_request("/video/v1"))
    assert {d.name: d.chain.height for d in hier.domains()} == heights


def test_resolve_local():
    hier = Hierarchy.default()
    hier.register("/top/cn", content_request("/video/v1"))
    res = hier.resolve("/top/cn", Identifier.content("/video/v1"))
    assert res.outcome is ResolutionOutcome.RESOLVED
    assert [h.text for h in res.hops] == ["/top/cn"]
    assert res.forwarding.face_id == 7
    assert res.record.status == "committed"


def test_resolve_cross_domain_directed_descent():
    hier = Hierarchy.default()
    hier.register("/top/cn/gd", content_request("/top/cn/gd/video/v1"))
    res = hier.resolve("/top/us", Identifier.content("/top/cn/gd/video/v1"))
    assert res.outcome is ResolutionOutcome.RESOLVED
    assert [h.text for h in res.hops] == [
        "/top/us", "/top", "/top/cn", "/top/cn/gd"]
    assert res.forwarding.face_id == 7


def test_resolve_breadth_first_for_unprefixed_names():
    hier = Hierarchy.default()
    hier.register("/top/eu/fr", content_request("/video/v9", face=3))
    res = hier.resolve("/top/cn/gd", Identifier.content("/video/v9"))
    assert res.outcome is ResolutionOutcome.RESOLVED
    texts = [h.text for h in res.hops]
    assert texts[:3] == ["/top/cn/gd", "/top/cn", "/top"]
    assert texts[-1] == "/top/eu/fr"
    assert len(texts) == len(set(texts))


def test_resolve_identity_record_without_forwarding():
    hier = Hierarchy.default()
    hier.register("/top/us/ca", RegistrationRequest(ALICE, ALICE))
    res = hier.resolve("/top/cn", ALICE)
    assert res.outcome is ResolutionOutcome.RESOLVED
    assert res.record.identifier == ALICE
    assert res.forwarding is None
    assert res.hops[0].text == "/top/cn"


def test_ip_identifier_proxies_when_unknown_locally():
    hier = Hierarchy.default()
    res = hier.resolve("/top/cn/gd", Identifier.ip("203.0.113.9"))
    assert res.outcome is ResolutionOutcome.PROXIED_TO_IP
    assert [h.text for h in res.hops] == ["/top/cn/gd"]
    assert "IP proxy" in res.message


def test_ip_binding_resolves_only_where_bound():
    hier = Hierarchy.default()
    hier.register("/top/cn", content_request("/video/v1"))
    ip = Identifier.ip("10.1.2.3")
    hier.register("/top/cn", RegistrationRequest(
        ip, ALICE, binds_to=ContentName.parse("/video/v1")))
    local = hier.resolve("/top/cn", ip)
    assert local.outcome is ResolutionOutcome.RESOLVED
    assert local.forwarding.face_id == 7
    remote = hier.resolve("/top/us", ip)
    assert remote.outcome is ResolutionOutcome.PROXIED_TO_IP


def test_not_found_exhausts_tree_with_nonempty_hops():
    hier = Hierarchy.default()
    # the second name carries a domain path, so directed descent runs
    # before the breadth-first walk and the two must not overlap
    for origin in [d.name.text for d in hier.domains()]:
        for unknown in ("/no/such/thing", "/top/eu/fr/none"):
            res = hier.resolve(origin, Identifier.content(unknown))
            assert res.outcome is ResolutionOutcome.NOT_FOUND
            texts = [h.text for h in res.hops]
            assert texts[0] == origin
            assert len(texts) == 11 and len(set(texts)) == 11
            assert "not found" in res.message


def test_unbound_identity_and_geo_walk_the_whole_tree():
    # every domain without a binding for the id is a plain miss, so the
    # walk and its message are those of an unknown content name
    hier = Hierarchy.default()
    hier.register("/top/cn", content_request("/video/v1"))
    hier.register("/top/cn", RegistrationRequest(
        Identifier.geo("cn.gd"), ALICE,
        binds_to=ContentName.parse("/video/v1")))
    for origin, ident, hops in (
            ("/top/us/ca", Identifier.geo("cn.sz"),
             ["/top/us/ca", "/top/us", "/top", "/top/cn", "/top/eu",
              "/top/cn/gd", "/top/cn/bj", "/top/us/ny", "/top/eu/de",
              "/top/eu/fr", "/top/eu/es"]),
            ("/top/eu/fr", Identifier.identity("mallory"),
             ["/top/eu/fr", "/top/eu", "/top", "/top/cn", "/top/us",
              "/top/cn/gd", "/top/cn/bj", "/top/us/ca", "/top/us/ny",
              "/top/eu/de", "/top/eu/es"])):
        res = hier.resolve(origin, ident)
        assert res.outcome is ResolutionOutcome.NOT_FOUND
        assert [h.text for h in res.hops] == hops
        assert res.message == (f"{ident.text} not found after visiting "
                               f"11 domains")
        assert (res.record, res.forwarding) == (None, None)
    bound = hier.resolve("/top/us/ca", Identifier.geo("cn.gd"))
    assert bound.outcome is ResolutionOutcome.RESOLVED
    assert [h.text for h in bound.hops] == ["/top/us/ca", "/top/us", "/top",
                                            "/top/cn"]
    assert bound.forwarding.face_id == 7


def test_domain_of_another_hierarchy_is_refused(tmp_path):
    stores = tmp_path / "h1.jsonl", tmp_path / "h2.jsonl"
    h1, h2 = (Hierarchy.default(store_path=s) for s in stores)
    foreign = h2.domain("/top/cn")
    request = content_request("/video/v1")
    with pytest.raises(RegistryError, match="/top/cn is not in this"):
        h1.register(foreign, request)
    with pytest.raises(RegistryError, match="/top/cn is not in this"):
        h1.resolve(foreign, request.identifier)
    # nothing was written to either hierarchy
    for hier in (h1, h2):
        assert not hier.committed
        assert hier.verify_consistency() == []
        for domain in hier.domains():
            assert domain.chain.height == 0 and domain.committed_ids == [None]
            assert not domain.offchain and not domain.cache
            assert not domain.fib.index
    assert not any(s.exists() for s in stores)
    # the same domain, named, is h1's own
    assert h1.register("/top/cn", request).domain == foreign.name
    assert h1.resolve("/top/cn", request.identifier).outcome is (
        ResolutionOutcome.RESOLVED)
    assert not h2.committed and foreign.chain.height == 0


def test_consensus_failure_leaves_no_trace():
    hier = Hierarchy.default()
    gd = hier.domain("/top/cn/gd")
    gd.down_supervisors.add(SUPERVISORS[-1])
    with pytest.raises(ConsensusFailed, match="stalled"):
        hier.register(gd, content_request("/video/v1"))
    assert gd.chain.height == 0
    assert not gd.offchain and not hier.committed
    gd.down_supervisors.clear()
    record = hier.register(gd, content_request("/video/v1"))
    assert record.height == 1


def test_cache_is_pass_through():
    hier = Hierarchy.default()
    hier.register("/top/cn/gd", content_request("/top/cn/gd/video/v1"))
    first = hier.resolve("/top/us", Identifier.content("/top/cn/gd/video/v1"))
    assert len(first.hops) == 4
    second = hier.resolve("/top/us", Identifier.content("/top/cn/gd/video/v1"))
    assert second.outcome is ResolutionOutcome.RESOLVED
    assert len(second.hops) == 1
    assert second.message == "served from cache"
    # apart from the walk, the cached answer is the uncached one
    assert first.forwarding is not None
    assert dataclasses.replace(second, hops=first.hops,
                               message=first.message) == first
    # the querying domain's own table stays untouched
    assert not hier.domain("/top/us").fib.lookup_lpm(
        ContentName.parse("/top/cn/gd/video/v1")).hit


def test_cache_evicts_its_oldest_entry_at_the_limit():
    idents = [Identifier.identity(f"user{i}") for i in range(CACHE_LIMIT + 2)]
    hier = Hierarchy.default()
    for ident in idents:
        hier.register("/top/cn/gd", RegistrationRequest(ident, ALICE))
    us = hier.domain("/top/us")
    for ident in idents:
        assert hier.resolve(us, ident).message != "served from cache"
    assert len(us.cache) == CACHE_LIMIT
    # the first two resolved were evicted first, in the order they came
    assert list(us.cache) == idents[2:]
    assert hier.resolve(us, idents[2]).message == "served from cache"
    # a hit does not move an entry, so caching the first again evicts it
    assert hier.resolve(us, idents[0]).message != "served from cache"
    assert len(us.cache) == CACHE_LIMIT and idents[2] not in us.cache


def test_record_store_roundtrip(tmp_path):
    store = tmp_path / "records.jsonl"
    hier = Hierarchy.default(store_path=store)
    hier.register("/top/cn", content_request("/video/v1"))
    hier.register("/top/us", RegistrationRequest(ALICE, ALICE))
    hier.register("/top/eu/de", RegistrationRequest(
        Identifier.geo("eu/de/berlin"), ALICE))
    records = read_record_store(store)
    assert len(records) == 3
    assert records[0] == hier.domain("/top/cn").offchain[
        Identifier.content("/video/v1")]
    assert {r.identifier.kind.value for r in records} == {
        "content", "id", "geo"}


def test_verify_consistency():
    ident = Identifier.content("/video/v1")

    def registered():
        hier = Hierarchy.default()
        hier.register("/top/cn", content_request("/video/v1"))
        hier.register("/top/us/ny", RegistrationRequest(ALICE, ALICE))
        return hier, hier.domain("/top/cn")

    hier, cn = registered()
    assert hier.verify_consistency() == []
    cn.offchain[ident] = dataclasses.replace(cn.offchain[ident], tx_id=12345)
    problems = hier.verify_consistency()
    assert any("transaction missing" in p for p in problems)

    hier, cn = registered()
    cn.offchain[ident] = dataclasses.replace(cn.offchain[ident],
                                             height=cn.chain.height + 1)
    assert hier.verify_consistency() == [
        "content:/video/v1 height beyond chain tip"]

    hier, cn = registered()
    hier.domain("/top/us/ny").offchain[ident] = cn.offchain[ident]
    problems = hier.verify_consistency()
    assert "content:/video/v1 committed twice" in problems

    hier, cn = registered()
    hier.committed.pop(ident)
    assert hier.verify_consistency() == [
        "duplicate index out of sync with stores"]


@pytest.mark.parametrize("kind", ["identity", "content"])
def test_registration_keeps_bounded_memory(kind):
    # A registration keeps its record, its index and fib entries and its
    # committed transaction id; the committed block group is dropped.
    count = 500
    if kind == "identity":
        requests = [RegistrationRequest(Identifier.identity(f"user{i}"), ALICE)
                    for i in range(count + 1)]
    else:
        requests = [content_request(f"/video/v{i}") for i in range(count + 1)]
    hier = Hierarchy.default()
    cn = hier.domain("/top/cn")
    hier.register(cn, requests.pop())     # warm-up: lazy state and caches
    gc.collect()
    tracemalloc.start()
    try:
        for request in requests:
            hier.register(cn, request)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cn.chain.height == count + 1
    assert kept / count <= 1024, kept / count


def test_registry_chain_bytes_are_pinned():
    # every kind, one binding, and a domain that commits several rounds
    hier = Hierarchy.default()
    hier.register("/top/cn", content_request("/video/v1"))
    hier.register("/top/cn", RegistrationRequest(
        Identifier.ip("10.0.0.8"), ALICE,
        binds_to=ContentName.parse("/video/v1")))
    hier.register("/top/cn", RegistrationRequest(
        Identifier.identity("carol"), ALICE))
    hier.register("/top/us/ny", RegistrationRequest(ALICE, ALICE))
    hier.register("/top/eu/de", RegistrationRequest(
        Identifier.geo("eu/de/berlin"), ALICE))
    hier.register("/top", content_request("/library/book1", face=3))
    hier.register("/top/cn/gd", content_request("/top/cn/gd/app/x", face=5))
    h = hashlib.sha256()
    for domain in sorted(hier.domains(), key=lambda d: d.name.text):
        chain = domain.chain
        h.update(struct.pack(">q", chain.height) + chain.tip_digest
                 + struct.pack(">q", chain.next_leader))
    assert h.hexdigest() == ("82d5d6409ef2d14d5e0f4a5f85abf490"
                             "1f277ba09eb6f22e00ac50afc2c17886")


def test_resolve_walk_is_pinned():
    # every kind, bound ids, misses, IP hand-offs, and two origins whose
    # caches both pass CACHE_LIMIT and evict: one digest over every answer
    rng = random.Random(27)
    hier = Hierarchy.default()
    domains = sorted(hier.domains(), key=lambda d: d.name.text)
    idents = []
    for i in range(1500):
        domain = domains[rng.randrange(len(domains))]
        kind = i % 5
        binds_to = None
        if kind == 0:
            ident = Identifier.content(f"{domain.name.text}/app/item{i}")
        elif kind == 1:
            ident = Identifier.content(f"/library/shelf{i}/vol{i % 7}")
        elif kind == 2:
            ident = Identifier.identity(f"user{i}")
        else:
            # beside the domain-path entry made just above: every IP id
            # and half the geo ids are bound to it
            domain, target = idents[-kind]
            if kind == 3:
                ident = Identifier.geo(f"zone/{i}")
                if rng.random() < 0.5:
                    binds_to = target.value
            else:
                ident = Identifier.ip(f"10.{i // 256}.{i % 256}.1")
                binds_to = target.value
        forwarding = ForwardingInfo(face_id=i % 61) if kind < 2 else None
        hier.register(domain, RegistrationRequest(
            ident, ALICE, forwarding=forwarding, binds_to=binds_to))
        idents.append((domain, ident))
    unknown = [Identifier.content("/library/shelf9999/vol1"),
               Identifier.content("/top/cn/gd/app/none"),
               Identifier.identity("mallory"), Identifier.geo("zone/x"),
               Identifier.ip("203.0.113.9")]
    origins = [hier.domain("/top/us/ca"), hier.domain("/top/eu")]
    h = hashlib.sha256()
    outcomes = []
    for step in range(1600):
        origin = origins[step % 2]
        draw = rng.random()
        if draw < 0.05:
            ident = unknown[rng.randrange(len(unknown))]
        elif draw < 0.45:        # a hot set, so some answers come from cache
            ident = idents[rng.randrange(40)][1]
        else:
            ident = idents[rng.randrange(len(idents))][1]
        res = hier.resolve(origin, ident)
        outcomes.append(res.outcome)
        line = "|".join([
            res.outcome.value, ",".join(hop.text for hop in res.hops),
            res.message,
            str(res.record.tx_id if res.record is not None else -1),
            str(res.forwarding.face_id if res.forwarding is not None
                else -1)])
        h.update(line.encode() + b"\n")
    assert all(len(origin.cache) == CACHE_LIMIT for origin in origins)
    assert set(outcomes) == set(ResolutionOutcome)
    assert h.hexdigest() == ("2bf588dda5def6b29c4ba3bb4e8fd0ee"
                             "054e6ae7088e0de64424ea86864435a5")


def test_request_and_resolution_json_schema():
    req = RegistrationRequest(
        Identifier.ip("10.0.0.8"), ALICE,
        binds_to=ContentName.parse("/video/v1"))
    # these dicts are the registration transaction's payload
    assert request_to_dict(req) == {
        "identifier": "ip:10.0.0.8", "owner": "id:alice",
        "forwarding": None, "binds_to": "/video/v1"}
    assert request_to_dict(content_request("/a/b", face=9)) == {
        "identifier": "content:/a/b", "owner": "id:alice",
        "forwarding": {"face_id": 9, "metric": 0}, "binds_to": None}

    hier = Hierarchy.default()
    rec = hier.register("/top/cn", content_request("/video/v1"))
    assert record_from_dict(record_to_dict(rec)) == rec
