"""IP-over-CCN tunnel gateways.

Conversion gateways sit between IP segments and content-centric (CCN)
segments.  Transport control signaling (SYN / SYN+ACK / ACK, FIN / ACK)
is carried verbatim inside Interest packets on every CCN segment it
crosses: connection establishment is a three-flight exchange, teardown a
four-flight exchange, in all four chain shapes

    ip-ccn-ip    endpoint A -ip- gateway -ccn- gateway -ip- endpoint B
    ip-ccn       endpoint A -ip- gateway -ccn- endpoint B
    ccn-ip       endpoint A -ccn- gateway -ip- endpoint B
    ccn-ip-ccn   endpoint A -ccn- gateway -ip- gateway -ccn- endpoint B

The data phase pushes payload segments (default 4 KiB) toward the peer
as payload-bearing Interests on CCN segments, one acknowledgment flight
per segment in the reverse direction (stop-and-wait), since the
underlying fabric offers no reliability of its own.

Each mode's chain is built once, at import.  Every connection runs
between 10.0.0.1:40001 and 10.0.0.2:80, so all share CONN_ID.  The
Interest names a flight carries each way, up to the first node a
connection is told is down, are planned once per mode and down set, and
so is each handshake's outcome: the flights it sends, the Interests that
get through, its seq/ack steps and the down node it times out at.  A
connection moves through phases (establish, one data push per `send`,
terminate), and each phase costs O(1) Python however many segments it
carries: a handshake applies its planned outcome, a data push a
closed-form one, and each records one tuple.  The Interest log is
expanded from those tuples, flight by flight, only when it is read.  A
down node surfaces as a Timeout and the connection folds back to Closed.
Every node lies on the forward or the reverse path and a handshake takes
both, so only a connection with no node down gets past establish.  Each
(mode, down set) route is planned once and holds its handshake records,
which every connection on it shares.  Sequence and acknowledgment
numbers wrap modulo 2**32, as in TCP.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .names import ContentName

FLAG_SYN = 1
FLAG_ACK = 2
FLAG_FIN = 4
FLAG_RST = 8

_FLAG_NAMES = ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"),
               (FLAG_FIN, "FIN"), (FLAG_RST, "RST"))

# one byte of flags, 32-bit seq and ack, two IPv4 addresses, two ports
_SIGNAL_STRUCT = struct.Struct("!BIIIIHH")
SIGNAL_WIRE_SIZE = _SIGNAL_STRUCT.size
assert SIGNAL_WIRE_SIZE == 21

SEGMENT_SIZE = 4096


class TunnelError(Exception):
    pass


class Timeout(TunnelError):
    pass


class InvalidState(TunnelError):
    pass


def flag_names(flags: int) -> str:
    names = [n for bit, n in _FLAG_NAMES if flags & bit]
    return "+".join(names) if names else "DATA"


@dataclass(frozen=True)
class SignalingHeader:
    flags: int
    seq: int
    ack: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int

    def __post_init__(self) -> None:
        if not 0 <= self.flags <= 0xFF:
            raise ValueError("flags out of range")
        for f in (self.seq, self.ack):
            if not 0 <= f < 2**32:
                raise ValueError("seq/ack out of range")
        for p in (self.src_port, self.dst_port):
            if not 0 <= p < 2**16:
                raise ValueError("port out of range")
        ipaddress.IPv4Address(self.src_ip)
        ipaddress.IPv4Address(self.dst_ip)

    def encode(self) -> bytes:
        src, dst = (int(ipaddress.IPv4Address(ip))
                    for ip in (self.src_ip, self.dst_ip))
        return _SIGNAL_STRUCT.pack(self.flags, self.seq, self.ack, src, dst,
                                   self.src_port, self.dst_port)

    @staticmethod
    def decode(data: bytes) -> "SignalingHeader":
        flags, seq, ack, src, dst, sp, dp = _SIGNAL_STRUCT.unpack(data)
        return SignalingHeader(flags, seq, ack,
                               str(ipaddress.IPv4Address(src)),
                               str(ipaddress.IPv4Address(dst)), sp, dp)


@dataclass(frozen=True)
class InterestPacket:
    name: ContentName
    signaling: Optional[SignalingHeader] = None
    payload: Optional[bytes] = None

    def encode(self) -> bytes:
        name_text = self.name.text.encode()
        presence = (1 if self.signaling is not None else 0) \
            | (2 if self.payload is not None else 0)
        parts = [struct.pack("!H", len(name_text)), name_text,
                 struct.pack("!B", presence)]
        if self.signaling is not None:
            parts.append(self.signaling.encode())
        if self.payload is not None:
            parts.append(struct.pack("!I", len(self.payload)))
            parts.append(self.payload)
        return b"".join(parts)

    @staticmethod
    def decode(data: bytes) -> "InterestPacket":
        def field(pos: int, n: int) -> bytes:
            if pos + n > len(data):
                raise ValueError("truncated interest record")
            return data[pos:pos + n]

        (name_len,) = struct.unpack("!H", field(0, 2))
        name = ContentName.parse(field(2, name_len).decode())
        pos = 2 + name_len
        presence = field(pos, 1)[0]
        pos += 1
        if presence & ~3:
            raise ValueError(f"unknown presence bits {presence:#04x} "
                             "in interest record")
        signaling = None
        if presence & 1:
            signaling = SignalingHeader.decode(field(pos, SIGNAL_WIRE_SIZE))
            pos += SIGNAL_WIRE_SIZE
        payload = None
        if presence & 2:
            (n,) = struct.unpack("!I", field(pos, 4))
            payload = field(pos + 4, n)
            pos += 4 + n
        if pos != len(data):
            raise ValueError("trailing bytes in interest record")
        return InterestPacket(name, signaling, payload)


def write_interest_log(path, packets: Iterable[InterestPacket]) -> None:
    with open(path, "wb") as fh:
        for p in packets:
            enc = p.encode()
            fh.write(struct.pack("!I", len(enc)))
            fh.write(enc)


def read_interest_log(path) -> list[InterestPacket]:
    out = []
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0
    while pos < len(buf):
        if pos + 4 > len(buf):
            raise ValueError("truncated interest log")
        (n,) = struct.unpack_from("!I", buf, pos)
        pos += 4
        if pos + n > len(buf):
            raise ValueError("truncated interest log")
        out.append(InterestPacket.decode(buf[pos:pos + n]))
        pos += n
    return out


# -- chain topology ---------------------------------------------------------------

class TunnelMode(Enum):
    IP_CCN_IP = "ip-ccn-ip"
    IP_CCN = "ip-ccn"
    CCN_IP = "ccn-ip"
    CCN_IP_CCN = "ccn-ip-ccn"

    # members are singletons, so identity hashing keeps equality and
    # skips Enum's Python-level __hash__ on every _route lookup
    __hash__ = object.__hash__

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.value.split("-"))


class TunnelState(Enum):
    CLOSED = "Closed"
    ESTABLISHED = "Established"


# EnumType defines __getattr__, so reading a member off its class takes a
# Python-level attribute hook; the request path reads these names instead
_CLOSED, _ESTABLISHED = TunnelState.CLOSED, TunnelState.ESTABLISHED


@dataclass(frozen=True)
class ChainNode:
    label: str
    prefix: Optional[ContentName] = None


@dataclass(frozen=True)
class ExchangeRecord:
    flags: str
    direction: str                # "fwd" (A->B) or "rev"
    interests: int                # Interests used on CCN segments


@dataclass(frozen=True)
class TransferReport:
    mode: str
    bytes_delivered: int
    digest_sent: str
    digest_received: str
    interests_total: int
    establish_exchanges: int
    terminate_exchanges: int
    data_segments: int

    @property
    def matched(self) -> bool:
        return self.digest_sent == self.digest_received


# every connection runs from endpoint A's port to endpoint B's
A_IP, A_PORT = "10.0.0.1", 40001
B_IP, B_PORT = "10.0.0.2", 80
CONN_ID = hashlib.sha256(
    f"{A_IP}:{A_PORT}->{B_IP}:{B_PORT}".encode()).hexdigest()[:12]
# a flight's header addresses and ports, by direction (True: A->B)
_ENDS = {True: (A_IP, B_IP, A_PORT, B_PORT),
         False: (B_IP, A_IP, B_PORT, A_PORT)}


def _build_chain(mode: TunnelMode) -> tuple[ChainNode, ...]:
    """Endpoints at the ends, one gateway per segment boundary; gateway i
    is /mir<i> in every mode."""
    segments = mode.segments
    # endpoints on a CCN segment are named nodes themselves
    nodes = [ChainNode("A", ContentName.parse(
        "/host/a") if segments[0] == "ccn" else None)]
    for i in range(1, len(segments)):
        nodes.append(ChainNode(f"mir{i}", ContentName.parse(f"/mir{i}")))
    nodes.append(ChainNode("B", ContentName.parse(
        "/host/b") if segments[-1] == "ccn" else None))
    return tuple(nodes)


CHAINS = {mode: _build_chain(mode) for mode in TunnelMode}


# (flags, forward, seq_fwd step, seq_rev step) of each flight of the two
# handshakes; a flight's steps apply once it has gone through
_ESTABLISH = ((FLAG_SYN, True, 1, 0), (FLAG_SYN | FLAG_ACK, False, 0, 1),
              (FLAG_ACK, True, 0, 0))
_TERMINATE = ((FLAG_FIN, True, 1, 0), (FLAG_ACK, False, 0, 0),
              (FLAG_FIN, False, 0, 1), (FLAG_ACK, True, 0, 0))


def _outcome(plans, flights) -> tuple:
    """What a handshake does on planned routes: the flights it sends, the
    Interests that get through, its seq_fwd and seq_rev steps, and the
    Timeout text of the flight that meets a down node (None if none)."""
    interests = step_fwd = step_rev = 0
    for i, (_, forward, fwd, rev) in enumerate(flights):
        names, down = plans[forward]
        if down is not None:
            return (flights[:i + 1], interests, step_fwd, step_rev,
                    f"node {down} is unreachable")
        interests += len(names)
        step_fwd += fwd
        step_rev += rev
    return flights, interests, step_fwd, step_rev, None


def _records(plans, flights) -> tuple[ExchangeRecord, ...]:
    return tuple(ExchangeRecord(flag_names(flags), "fwd" if fwd else "rev",
                                len(plans[fwd][0]))
                 for flags, fwd, _, _ in flights)


class _Route(NamedTuple):
    # per direction (index True: A->B), the Interest names a flight sends
    # before the first node in the down set, and that node's label or None
    plans: tuple
    establish: tuple           # as `_outcome` returns them
    terminate: tuple
    per_segment: int           # Interests of one data flight and its ACK
    # a handshake completes only with no node down, so these are read
    # only from that route
    establish_records: tuple[ExchangeRecord, ...]
    terminate_records: tuple[ExchangeRecord, ...]


@functools.cache     # at most 4 modes x 16 down sets of their chain labels
def _route(mode: TunnelMode, down: frozenset[str]) -> _Route:
    nodes = CHAINS[mode]
    unknown = down - {node.label for node in nodes}
    if unknown:     # raised, so never cached
        raise TunnelError(f"no node {', '.join(sorted(unknown))} in "
                          f"the {mode.value} chain")
    plans = []
    for path, segments in ((nodes[-2::-1], mode.segments[::-1]),
                           (nodes[1:], mode.segments)):
        names, stop = [], None
        for node, segment in zip(path, segments, strict=True):
            if node.label in down:
                stop = node.label
                break
            if segment == "ccn":
                names.append(node.prefix.child(CONN_ID))
        plans.append((tuple(names), stop))
    plans = tuple(plans)
    return _Route(plans, _outcome(plans, _ESTABLISH),
                  _outcome(plans, _TERMINATE),
                  len(plans[True][0]) + len(plans[False][0]),
                  _records(plans, _ESTABLISH), _records(plans, _TERMINATE))


class TunnelConnection:
    """One tunneled transport connection across its mode's shared chain."""

    def __init__(self, mode: TunnelMode, segment_size: int = SEGMENT_SIZE,
                 down: Iterable[str] = ()):
        self._route = _route(mode, frozenset(down))
        if segment_size < 1:
            raise TunnelError(f"segment size {segment_size} is not positive")
        self.segment_size = segment_size
        self.state = _CLOSED
        self.interests_sent = 0
        self.bytes_delivered = 0
        self.seq_fwd = 0
        self.seq_rev = 0
        # one record per phase, (flights, seq_fwd, seq_rev, None) for a
        # handshake and (segment size, seq_fwd, seq_rev, payload) for a
        # data push, with the sequence numbers the phase started from
        self._phases: list[tuple] = []
        self._received = hashlib.sha256()     # of the bytes delivered to B

    @property
    def interest_log(self) -> list[InterestPacket]:
        """Every Interest sent so far, in order, expanded from the phases."""
        log = []
        plans = self._route.plans
        for flags, seq, ack, forward, payload in self._replay():
            header = SignalingHeader(flags, seq, ack, *_ENDS[forward])
            log.extend(InterestPacket(name, header, payload)
                       for name in plans[forward][0])
        return log

    def _replay(self):
        """(flags, seq, ack, forward, payload) of each flight sent so far."""
        for what, seq_fwd, seq_rev, payload in self._phases:
            if payload is not None:     # a data push, `what`-byte segments
                for off in range(0, len(payload), what):
                    chunk = payload[off:off + what]
                    yield 0, seq_fwd, seq_rev, True, chunk
                    seq_fwd = (seq_fwd + len(chunk)) % 2**32
                    yield FLAG_ACK, seq_rev, seq_fwd, False, None
                continue
            for flags, forward, fwd, rev in what:     # a handshake's flights
                if forward:
                    yield flags, seq_fwd, seq_rev, True, None
                else:
                    yield flags, seq_rev, seq_fwd, False, None
                seq_fwd = (seq_fwd + fwd) % 2**32
                seq_rev = (seq_rev + rev) % 2**32

    def _handshake(self, outcome: tuple) -> None:
        """Apply a handshake's planned outcome in one step."""
        flights, interests, fwd, rev, timeout = outcome
        self._phases.append((flights, self.seq_fwd, self.seq_rev, None))
        self.interests_sent += interests
        self.seq_fwd = (self.seq_fwd + fwd) % 2**32
        self.seq_rev = (self.seq_rev + rev) % 2**32
        if timeout is not None:
            self.state = _CLOSED
            raise Timeout(timeout)

    # -- lifecycle ------------------------------------------------------------

    def establish(self) -> list[ExchangeRecord]:
        if self.state is not _CLOSED:
            raise InvalidState(f"establish from {self.state.value}")
        self._handshake(self._route.establish)
        self.state = _ESTABLISHED
        return list(self._route.establish_records)

    def send(self, payload: bytes) -> int:
        """Stop-and-wait payload push; returns data segments used.  Every
        node lies on one of the two paths a handshake takes, so an
        established connection has no node down and every segment and
        its ACK go through."""
        if self.state is not _ESTABLISHED:
            raise InvalidState(f"send from {self.state.value}")
        if not isinstance(payload, bytes):
            payload = memoryview(payload).tobytes()   # the log keeps it
        segments = -(-len(payload) // self.segment_size)
        if segments:
            self._phases.append((self.segment_size, self.seq_fwd,
                                 self.seq_rev, payload))
            self.interests_sent += segments * self._route.per_segment
            self._received.update(payload)
            self.bytes_delivered += len(payload)
            self.seq_fwd = (self.seq_fwd + len(payload)) % 2**32
        return segments

    def terminate(self) -> list[ExchangeRecord]:
        if self.state is not _ESTABLISHED:
            raise InvalidState(f"terminate from {self.state.value}")
        self._handshake(self._route.terminate)
        self.state = _CLOSED
        return list(self._route.terminate_records)

    def receiver_digest(self) -> str:
        return self._received.hexdigest()


def run_scenario(mode: TunnelMode, payload: bytes,
                 down_nodes: Iterable[str] = (),
                 segment_size: int = SEGMENT_SIZE,
                 log: Optional[list[InterestPacket]] = None) -> TransferReport:
    """Establish, transfer, terminate; report fidelity and packet counts.
    Every Interest the connection sent is appended to `log` if one is
    given, also those sent before a down node timed the connection out."""
    conn = TunnelConnection(mode, segment_size=segment_size, down=down_nodes)
    try:
        est = conn.establish()
        segments = conn.send(payload)
        fin = conn.terminate()
    finally:
        if log is not None:
            log.extend(conn.interest_log)
    return TransferReport(
        mode=mode.value,
        bytes_delivered=conn.bytes_delivered,
        digest_sent=hashlib.sha256(payload).hexdigest(),
        digest_received=conn.receiver_digest(),
        interests_total=conn.interests_sent,
        establish_exchanges=len(est),
        terminate_exchanges=len(fin),
        data_segments=segments,
    )
