"""No `src` structure needs the cyclic collector: each one built here and
dropped is freed by reference counting alone, so a second `gc.collect()`
finds nothing."""

import gc

import pytest

from minet.hpt import Hpt, pack_fib
from minet.names import ContentName, ForwardingInfo, Identifier
from minet.registry import Hierarchy, RegistrationRequest
from minet.simulate import FaultSpec, SimConfig, run_rounds
from minet.tunnel import TunnelConnection, TunnelMode

OWNER = Identifier.identity("operator")


def hierarchy():
    hier = Hierarchy.default()
    gd = hier.domain("/top/cn/gd")
    hier.register(gd, RegistrationRequest(
        Identifier.content("/top/cn/gd/app/x"), OWNER,
        forwarding=ForwardingInfo(face_id=5)))
    hier.register(gd, RegistrationRequest(
        Identifier.ip("10.0.0.8"), OWNER,
        binds_to=ContentName.parse("/top/cn/gd/app/x")))
    hier.register("/top/us", RegistrationRequest(
        Identifier.identity("carol"), OWNER))
    hier.register("/top/eu/de", RegistrationRequest(
        Identifier.geo("eu/de/berlin"), OWNER))
    for origin in ("/top/us/ca", "/top/eu", "/top/cn/gd", "/top"):
        for text in ("content:/top/cn/gd/app/x", "ip:10.0.0.8", "id:carol",
                     "geo:eu/de/berlin", "content:/no/such/thing",
                     "ip:203.0.113.9"):
            for _ in range(2):       # the second answer may come from cache
                hier.resolve(origin, Identifier.parse(text))
    return hier


def table():
    fib = Hpt()
    for i in range(50):
        fib.insert(ContentName.parse(f"/cdn/v{i % 7}/item{i}"),
                   ForwardingInfo(face_id=i))
    for i in range(0, 50, 3):
        fib.delete(ContentName.parse(f"/cdn/v{i % 7}/item{i}"))
    fib.bind_identifier(ContentName.parse("/cdn/v1/item1"),
                        Identifier.geo("zone/1"))
    fib.bind_identifier(ContentName.parse("/cdn/v2/item2"),
                        Identifier.ip("10.0.0.2"))
    return fib, pack_fib(fib)


def connection():
    conn = TunnelConnection(TunnelMode.CCN_IP_CCN, segment_size=100)
    conn.establish()
    conn.send(bytes(range(256)) * 4)
    conn.terminate()
    conn.interest_log
    return conn


def simulation():
    return run_rounds(SimConfig(
        node_count=5, rounds=3, txs_per_block=20, compute_model="zero",
        faults=(FaultSpec(1, "invalid_blocks"),)))


@pytest.mark.parametrize("build", [hierarchy, table, connection, simulation])
def test_dropped_structure_leaves_the_collector_nothing(build):
    gc.collect()
    # off while building, so no automatic pass hides garbage made on the way
    gc.disable()
    try:
        build()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
