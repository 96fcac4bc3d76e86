"""Tunnel gateways: wire formats, handshakes, fidelity, faults."""

import hashlib
import pickle
from itertools import accumulate, groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from minet.names import ContentName
from minet.tunnel import (
    A_IP,
    CHAINS,
    CONN_ID,
    FLAG_ACK,
    FLAG_FIN,
    FLAG_SYN,
    InterestPacket,
    InvalidState,
    SIGNAL_WIRE_SIZE,
    SignalingHeader,
    Timeout,
    TransferReport,
    TunnelConnection,
    TunnelError,
    TunnelMode,
    TunnelState,
    flag_names,
    read_interest_log,
    _route,
    run_scenario,
    write_interest_log,
)

MODES = list(TunnelMode)

ipv4 = st.integers(0, 2**32 - 1).map(
    lambda v: ".".join(str((v >> s) & 0xFF) for s in (24, 16, 8, 0)))

headers = st.builds(
    SignalingHeader,
    flags=st.integers(0, 255),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(0, 2**32 - 1),
    src_ip=ipv4, dst_ip=ipv4,
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
)


@given(headers)
def test_signaling_wire_round_trip(header):
    wire = header.encode()
    assert len(wire) == SIGNAL_WIRE_SIZE == 21
    assert SignalingHeader.decode(wire) == header


def test_signaling_validation():
    good = dict(flags=FLAG_SYN, seq=0, ack=0, src_ip="10.0.0.1",
                dst_ip="10.0.0.2", src_port=1, dst_port=2)
    SignalingHeader(**good)
    with pytest.raises(ValueError):
        SignalingHeader(**{**good, "src_ip": "999.1.1.1"})
    with pytest.raises(ValueError):
        SignalingHeader(**{**good, "src_port": 70000})
    with pytest.raises(ValueError):
        SignalingHeader(**{**good, "seq": 2**32})
    with pytest.raises(ValueError):
        SignalingHeader(**{**good, "flags": 300})


def test_flag_names():
    assert flag_names(FLAG_SYN | FLAG_ACK) == "SYN+ACK"
    assert flag_names(FLAG_FIN) == "FIN"
    assert flag_names(0) == "DATA"


def test_route_is_fixed_at_connect():
    conn = TunnelConnection(TunnelMode.CCN_IP)
    conn.establish()
    assert conn.interest_log[0].name.text == f"/mir1/{CONN_ID}"


def test_connections_of_a_mode_share_the_planned_routes():
    for mode in MODES:
        a, b = TunnelConnection(mode), TunnelConnection(mode)
        for conn in (a, b):
            conn.establish()
        # the Interest names were planned once per mode, not per connect
        assert all(pa.name is pb.name for pa, pb in
                   zip(a.interest_log, b.interest_log, strict=True))


@given(headers, st.one_of(st.none(), st.binary(max_size=300)))
def test_interest_wire_round_trip(header, payload):
    pkt = InterestPacket(ContentName.parse("/mir1/abc"), header, payload)
    assert InterestPacket.decode(pkt.encode()) == pkt
    bare = InterestPacket(ContentName.parse("/a/b/c"))
    assert InterestPacket.decode(bare.encode()) == bare


def test_interest_decode_rejects_trailing_bytes():
    pkt = InterestPacket(ContentName.parse("/a"))
    with pytest.raises(ValueError, match="trailing bytes"):
        InterestPacket.decode(pkt.encode() + b"x")
    header = SignalingHeader(FLAG_ACK, 1, 2, "10.0.0.1", "10.0.0.2", 80, 81)
    full = InterestPacket(ContentName.parse("/a/b"), header, b"xyz").encode()
    presence_at = 2 + len("/a/b")
    assert full[presence_at] == 3
    unknown = full[:presence_at] + b"\xff" + full[presence_at + 1:]
    with pytest.raises(ValueError, match="unknown presence bits 0xff"):
        InterestPacket.decode(unknown)
    # every cut: inside the name, before the presence byte, inside the
    # signaling header, inside the payload length and inside the payload
    for cut in range(len(full)):
        with pytest.raises(ValueError, match="truncated interest record"):
            InterestPacket.decode(full[:cut])


def test_interest_log_round_trip(tmp_path):
    conn = TunnelConnection(TunnelMode.IP_CCN_IP)
    conn.establish()
    conn.send(b"z" * 5000)
    conn.terminate()
    path = tmp_path / "interests.bin"
    write_interest_log(path, conn.interest_log)
    assert read_interest_log(path) == conn.interest_log
    full = path.read_bytes()
    first_len = int.from_bytes(full[:4], "big")
    # cut inside the first length prefix, then inside the first record
    for cut in (full[:2], full[:4 + first_len - 1]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="truncated interest log"):
            read_interest_log(path)


def test_establish_three_exchanges_all_modes():
    for mode in MODES:
        conn = TunnelConnection(mode)
        trace = conn.establish()
        assert [t.flags for t in trace] == ["SYN", "SYN+ACK", "ACK"]
        assert [t.direction for t in trace] == ["fwd", "rev", "fwd"]
        assert len(trace) == 3
        assert conn.state is TunnelState.ESTABLISHED
        ccn_crossings = mode.segments.count("ccn")
        assert all(t.interests == ccn_crossings for t in trace)


def test_terminate_four_exchanges_all_modes():
    for mode in MODES:
        conn = TunnelConnection(mode)
        conn.establish()
        trace = conn.terminate()
        assert [t.flags for t in trace] == ["FIN", "ACK", "FIN", "ACK"]
        assert len(trace) == 4
        assert conn.state is TunnelState.CLOSED
        assert conn.bytes_delivered == 0


def test_state_machine_guards():
    conn = TunnelConnection(TunnelMode.IP_CCN)
    with pytest.raises(InvalidState):
        conn.terminate()
    with pytest.raises(InvalidState):
        conn.send(b"x")
    conn.establish()
    with pytest.raises(InvalidState):
        conn.establish()
    conn.terminate()
    with pytest.raises(InvalidState):
        conn.terminate()


def test_send_takes_a_snapshot_of_a_bytes_like_payload():
    conn = TunnelConnection(TunnelMode.IP_CCN, segment_size=4)
    conn.establish()
    buf = bytearray(b"abcdefghij")
    assert conn.send(buf) == 3
    buf[:] = b"XXXXXXXXXX"
    data = [p.payload for p in conn.interest_log if p.signaling.flags == 0]
    assert data == [b"abcd", b"efgh", b"ij"]
    assert conn.receiver_digest() == hashlib.sha256(b"abcdefghij").hexdigest()
    for bad in (5, "text"):
        with pytest.raises(TypeError):
            conn.send(bad)
    assert conn.bytes_delivered == 10


def test_transfer_fidelity_all_modes_1mib():
    import numpy as np
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
    for mode in MODES:
        report = run_scenario(mode, payload)
        assert report.matched, mode
        assert report.bytes_delivered == len(payload)
        assert report.establish_exchanges == 3
        assert report.terminate_exchanges == 4
        assert report.data_segments == 256
        crossings = mode.segments.count("ccn")
        assert report.interests_total == crossings * (3 + 4 + 2 * 256)


def test_empty_payload_scenario():
    for mode in MODES:
        report = run_scenario(mode, b"")
        assert report.bytes_delivered == 0
        assert report.matched
        assert report.establish_exchanges == 3
        assert report.terminate_exchanges == 4
        assert report.data_segments == 0


def test_large_transfer_16mib():
    import numpy as np
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 256, size=16 << 20, dtype=np.uint8).tobytes()
    report = run_scenario(TunnelMode.CCN_IP_CCN, payload)
    assert report.matched
    assert report.bytes_delivered == 16 << 20
    assert report.data_segments == 4096


def test_down_node_times_out_and_closes():
    conn = TunnelConnection(TunnelMode.IP_CCN_IP, down={"mir2"})  # far gateway
    with pytest.raises(Timeout):
        conn.establish()
    assert conn.state is TunnelState.CLOSED
    with pytest.raises(Timeout):
        run_scenario(TunnelMode.IP_CCN, b"hello", down_nodes=("B",))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODES), st.binary(max_size=20000),
       st.integers(100, 5000))
def test_fidelity_property(mode, payload, seg_size):
    conn = TunnelConnection(mode, segment_size=seg_size)
    conn.establish()
    conn.send(payload)
    conn.terminate()
    assert conn.receiver_digest() == hashlib.sha256(payload).hexdigest()
    assert conn.bytes_delivered == len(payload)


def test_back_to_back_connections_share_the_chain():
    for mode in MODES:
        conns = []
        for payload in (b"first" * 2000, b"second" * 300):
            conn = TunnelConnection(mode)
            conn.establish()
            conn.send(payload)
            conn.terminate()
            assert conn.receiver_digest() == hashlib.sha256(payload).hexdigest()
            assert conn.bytes_delivered == len(payload)
            conns.append(conn)
        assert conns[0]._route is conns[1]._route


def test_down_is_per_connection():
    for mode in MODES:
        with pytest.raises(Timeout):
            TunnelConnection(mode, down={"mir1"}).establish()
        report = run_scenario(mode, b"after the outage")
        assert report.matched
        assert report.bytes_delivered == len(b"after the outage")


def test_bad_connection_parameters_raise_at_connect():
    with pytest.raises(TunnelError, match="mir2"):
        TunnelConnection(TunnelMode.IP_CCN, down={"mir2"})
    with pytest.raises(TunnelError, match="mir2"):
        run_scenario(TunnelMode.IP_CCN, b"x", down_nodes=["mir2"])
    with pytest.raises(TunnelError):
        TunnelConnection(TunnelMode.IP_CCN, segment_size=0)
    # the label is checked before the segment size
    with pytest.raises(TunnelError, match="mir2"):
        TunnelConnection(TunnelMode.IP_CCN, segment_size=0, down={"mir2"})
    # a refused label leaves no cached route behind
    cached = _route.cache_info().currsize
    with pytest.raises(TunnelError, match="mir9"):
        TunnelConnection(TunnelMode.CCN_IP_CCN, down={"mir1", "mir9"})
    assert _route.cache_info().currsize == cached


def test_deterministic_interest_logs():
    a = TunnelConnection(TunnelMode.CCN_IP_CCN)
    b = TunnelConnection(TunnelMode.CCN_IP_CCN)
    for conn in (a, b):
        conn.establish()
        conn.send(b"q" * 9000)
        conn.terminate()
    assert a.interest_log == b.interest_log


def test_interest_bytes_are_pinned():
    # every mode's establish/send/terminate, hashed over the wire bytes
    digest = hashlib.sha256()
    for mode in MODES:
        conn = TunnelConnection(mode)
        conn.establish()
        conn.send(b"q" * 9000)
        conn.terminate()
        for pkt in conn.interest_log:
            digest.update(pkt.encode())
    assert digest.hexdigest() == (
        "28d21721b2065763cb1b137b18bba05a54ef21f83f2a4350b9219ba25cd01de7")


def test_down_node_runs_are_pinned():
    # every mode, no down node and every down set of one or two labels,
    # four payload sizes: log bytes, records, counters, state and the
    # Timeout text, hashed together
    digest = hashlib.sha256()
    for mode in MODES:
        labels = [n.label for n in CHAINS[mode]]
        downs = [()] + [(a,) for a in labels] + [
            (a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        for down in downs:
            for size in (0, 1, 4096, 9000):
                conn = TunnelConnection(mode, down=down)
                records, error = [], ""
                try:
                    records += conn.establish()
                    conn.send(bytes(i % 251 for i in range(size)))
                    records += conn.terminate()
                except Timeout as exc:
                    error = str(exc)
                digest.update(repr((
                    mode.value, down, size, records, conn.interests_sent,
                    conn.bytes_delivered, conn.state.value, error)).encode())
                for pkt in conn.interest_log:
                    digest.update(pkt.encode())
    assert digest.hexdigest() == (
        "638e211ddb6659baaf29ac613849e76199db271ea4bbaaf6cfda50aac7378a55")


def test_interest_log_reads_are_equal_and_grow_by_prefix():
    for mode in MODES:
        full = TunnelConnection(mode)
        full.establish()
        after_establish = full.interest_log
        full.send(b"p" * 5000)
        full.terminate()
        assert full.interest_log == full.interest_log
        log = full.interest_log
        assert log[:len(after_establish)] == after_establish
        for label in (n.label for n in CHAINS[mode]):
            cut = TunnelConnection(mode, down={label})
            with pytest.raises(Timeout):
                cut.establish()
            partial = cut.interest_log
            assert partial == log[:len(partial)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(MODES), st.binary(max_size=20000),
       st.integers(1, 5000))
def test_data_interests_at_b_carry_the_payload_in_order(mode, payload,
                                                        seg_size):
    conn = TunnelConnection(mode, segment_size=seg_size)
    syn = conn.establish()[0]
    conn.send(payload)
    conn.terminate()
    log = conn.interest_log
    last_hop = log[syn.interests - 1].name     # the SYN's hop nearest B
    data = [p for p in log if p.name == last_hop and p.signaling.flags == 0]
    assert b"".join(p.payload for p in data) == payload
    # seq starts after the SYN's one and goes up by each chunk's length
    assert [p.signaling.seq for p in data] == list(
        accumulate((len(p.payload) for p in data), initial=1))[:-1]


def _records_from_log(conn):
    """Per flight, its flag names, direction and Interest count, read back
    from the log: a flight's Interests share one header, and no two
    consecutive flights carry equal headers."""
    return [(flag_names(header.flags),
             "fwd" if header.src_ip == A_IP else "rev", len(list(pkts)))
            for header, pkts in groupby(conn.interest_log,
                                        key=lambda p: p.signaling)]


def test_handshake_records_match_the_log_and_are_shared_per_mode():
    for mode in MODES:
        returned = []
        for _ in range(2):
            conn = TunnelConnection(mode)
            est = conn.establish()
            segments = conn.send(b"r" * 5000)
            fin = conn.terminate()
            flights = _records_from_log(conn)
            assert len(flights) == 3 + 2 * segments + 4
            assert [(r.flags, r.direction, r.interests)
                    for r in est + fin] == flights[:3] + flights[-4:]
            returned.append((est, fin))
        # built once per mode, not once per connection
        (est_a, fin_a), (est_b, fin_b) = returned
        assert all(x is y for x, y in zip(est_a + fin_a, est_b + fin_b,
                                          strict=True))
        # each call hands out its own list
        expected = list(est_b), list(fin_b)
        est_a.clear()
        fin_a[0] = None
        conn = TunnelConnection(mode)
        assert (conn.establish(), conn.terminate()) == expected


def test_sequence_numbers_wrap_modulo_2_32():
    for mode in MODES:
        conn = TunnelConnection(mode)
        conn.establish()
        conn.seq_fwd = 2**32 - 1
        conn.send(b"xyz")
        assert conn.seq_fwd == 2
        log = conn.interest_log                  # every header validates
        last_data = max(i for i, p in enumerate(log)
                        if p.signaling.flags == 0)
        assert log[last_data].signaling.seq == 4294967295
        ack = log[last_data + 1].signaling
        assert (ack.flags, ack.ack) == (FLAG_ACK, 2)
        conn.terminate()
        assert conn.interest_log[-1].signaling.seq == 3     # after the FIN
        assert conn.receiver_digest() == hashlib.sha256(b"xyz").hexdigest()


def test_pickled_modes_hash_equal_and_hit_the_same_plans():
    for mode in MODES:
        back = pickle.loads(pickle.dumps(mode))
        assert back is mode
        assert {mode: 1}[back] == 1
        assert _route(back, frozenset()) is _route(mode, frozenset())


def _labels(mode):
    return [n.label for n in CHAINS[mode]]


class _FlightReplay:
    """A connection moved one flight at a time: each flight logs its
    Interests up to the first down node on its path, and only a flight
    that gets through counts its Interests and delivers its payload."""

    def __init__(self, mode, down, segment_size):
        nodes = CHAINS[mode]
        segments = mode.segments
        self.routes = {True: self._route(nodes[1:], segments, down),
                       False: self._route(nodes[-2::-1], segments[::-1],
                                          down)}
        self.segment_size = segment_size
        self.seq = {True: 0, False: 0}
        self.state = "Closed"
        self.interests = 0
        self.delivered = bytearray()
        self.log = []

    @staticmethod
    def _route(path, segments, down):
        names = []
        for node, segment in zip(path, segments):
            if node.label in down:
                return names, node.label
            if segment == "ccn":
                names.append(ContentName.parse(f"{node.prefix.text}/"
                                               f"{CONN_ID}"))
        return names, None

    def flight(self, flags, forward, payload=None):
        ends = (("10.0.0.1", "10.0.0.2", 40001, 80) if forward
                else ("10.0.0.2", "10.0.0.1", 80, 40001))
        header = SignalingHeader(flags, self.seq[forward],
                                 self.seq[not forward], *ends)
        names, down = self.routes[forward]
        self.log += [InterestPacket(name, header, payload) for name in names]
        if down is not None:
            self.state = "Closed"
            raise Timeout(f"node {down} is unreachable")
        self.interests += len(names)
        if payload is not None:
            self.delivered += payload

    def bump(self, forward, n):
        self.seq[forward] = (self.seq[forward] + n) % 2**32

    def establish(self):
        self.flight(FLAG_SYN, True)
        self.bump(True, 1)
        self.flight(FLAG_SYN | FLAG_ACK, False)
        self.bump(False, 1)
        self.flight(FLAG_ACK, True)
        self.state = "Established"

    def send(self, payload):
        size = self.segment_size
        for off in range(0, len(payload), size):
            chunk = payload[off:off + size]
            self.flight(0, True, chunk)
            self.bump(True, len(chunk))
            self.flight(FLAG_ACK, False)
        return len(range(0, len(payload), size))

    def terminate(self):
        self.flight(FLAG_FIN, True)
        self.bump(True, 1)
        self.flight(FLAG_ACK, False)
        self.flight(FLAG_FIN, False)
        self.bump(False, 1)
        self.flight(FLAG_ACK, True)
        self.state = "Closed"


def _run_phases(conn, payload):
    """Establish, send and terminate; the segments sent and Timeout text."""
    segments, error = None, ""
    try:
        conn.establish()
        segments = conn.send(payload)
        conn.terminate()
    except Timeout as exc:
        error = str(exc)
    return segments, error


routes = st.sampled_from(MODES).flatmap(lambda mode: st.tuples(
    st.just(mode),
    st.lists(st.sampled_from(_labels(mode)), max_size=2, unique=True)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(routes, st.binary(max_size=20000), st.integers(1, 5000))
@example((TunnelMode.CCN_IP_CCN, []), bytes(range(256)) * 40, 7)
@example((TunnelMode.IP_CCN_IP, ["mir2"]), b"x" * 100, 10)
@example((TunnelMode.IP_CCN, ["B"]), b"abc", 1)
@example((TunnelMode.CCN_IP, ["B", "A"]), b"", 1)
def test_phases_match_a_flight_by_flight_replay(route, payload, seg_size):
    mode, down = route
    conn = TunnelConnection(mode, segment_size=seg_size, down=down)
    replay = _FlightReplay(mode, set(down), seg_size)
    assert _run_phases(conn, payload) == _run_phases(replay, payload)
    assert (conn.interests_sent, conn.bytes_delivered,
            conn.seq_fwd, conn.seq_rev, conn.state.value) == (
        replay.interests, len(replay.delivered),
        replay.seq[True], replay.seq[False], replay.state)
    assert b"".join(p.encode() for p in conn.interest_log) == b"".join(
        p.encode() for p in replay.log)
    assert conn.receiver_digest() == hashlib.sha256(
        replay.delivered).hexdigest()


def test_one_byte_segments_of_a_mebibyte_cost_one_phase():
    payload = bytes(range(256)) * 4096
    for mode in MODES:
        conn = TunnelConnection(mode, segment_size=1)
        conn.establish()
        assert conn.send(payload) == 1 << 20
        conn.terminate()
        crossings = mode.segments.count("ccn")
        assert conn.interests_sent == crossings * (3 + 4 + 2 * (1 << 20))
        assert conn.bytes_delivered == 1 << 20
        assert (conn.seq_fwd, conn.seq_rev) == (2 + (1 << 20), 2)
        assert conn.state is TunnelState.CLOSED
        assert conn.receiver_digest() == hashlib.sha256(payload).hexdigest()
