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

Each mode's chain is built once, at import; the Interest names a flight
carries each way, up to the first node a connection is told is down, are
planned once per mode and down set.  Every connection runs between
10.0.0.1:40001 and 10.0.0.2:80, so all share CONN_ID.  A connection keeps
its flights as tuples and builds its Interest log only when it is read; a
down node surfaces as a Timeout and the connection folds back to Closed.
A handshake only completes with no node down, so each mode's establish and
terminate records are built once, at import, and shared.  Sequence and
acknowledgment numbers wrap modulo 2**32, as in TCP.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

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
    # skips Enum's Python-level __hash__ on every _plans lookup
    __hash__ = object.__hash__

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.value.split("-"))


class TunnelState(Enum):
    CLOSED = "Closed"
    ESTABLISHED = "Established"


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


@functools.cache     # at most 4 modes x 16 down sets of their chain labels
def _plans(mode: TunnelMode, down: frozenset[str]
           ) -> tuple[tuple[tuple[ContentName, ...], Optional[str]], ...]:
    """Per direction (index True: A->B), the Interest names a flight sends
    before the first node in `down`, and that node's label or None."""
    nodes = CHAINS[mode]
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
    return tuple(plans)


# (flags, forward) of each flight of the two handshakes
_ESTABLISH = ((FLAG_SYN, True), (FLAG_SYN | FLAG_ACK, False), (FLAG_ACK, True))
_TERMINATE = ((FLAG_FIN, True), (FLAG_ACK, False), (FLAG_FIN, False),
              (FLAG_ACK, True))


def _handshake(mode: TunnelMode, flights) -> tuple[ExchangeRecord, ...]:
    """The records of a handshake, which completes only with no node down."""
    plans = _plans(mode, frozenset())
    return tuple(ExchangeRecord(flag_names(flags), "fwd" if fwd else "rev",
                                len(plans[fwd][0])) for flags, fwd in flights)


_ESTABLISH_RECORDS = {m: _handshake(m, _ESTABLISH) for m in TunnelMode}
_TERMINATE_RECORDS = {m: _handshake(m, _TERMINATE) for m in TunnelMode}


class TunnelConnection:
    """One tunneled transport connection across its mode's shared chain."""

    def __init__(self, mode: TunnelMode, segment_size: int = SEGMENT_SIZE,
                 down: Iterable[str] = ()):
        self.mode = mode
        self.nodes = CHAINS[mode]
        self.down = frozenset(down)
        unknown = self.down.difference(n.label for n in self.nodes)
        if unknown:
            raise TunnelError(f"no node {', '.join(sorted(unknown))} in "
                              f"the {mode.value} chain")
        if segment_size < 1:
            raise TunnelError(f"segment size {segment_size} is not positive")
        self.conn_id = CONN_ID
        self.segment_size = segment_size
        self.state = TunnelState.CLOSED
        self.interests_sent = 0
        self.bytes_delivered = 0
        self.seq_fwd = 0
        self.seq_rev = 0
        # (flags, seq, ack, forward, payload, Interest names) per flight
        self._flights: list[tuple] = []
        self._received = hashlib.sha256()     # of the bytes delivered to B
        self._plans = _plans(mode, self.down)

    @property
    def interest_log(self) -> list[InterestPacket]:
        """Every Interest sent so far, in order, built from the flights."""
        log = []
        for flags, seq, ack, forward, payload, names in self._flights:
            header = SignalingHeader(flags, seq, ack, *_ENDS[forward])
            log.extend(InterestPacket(name, header, payload) for name in names)
        return log

    # -- flights -----------------------------------------------------------

    def _flight(self, flags: int, forward: bool,
                payload: Optional[bytes] = None) -> None:
        """Move one flight end to end, or up to a down node on its path."""
        seq = self.seq_fwd if forward else self.seq_rev
        ack = self.seq_rev if forward else self.seq_fwd
        names, down = self._plans[forward]
        self._flights.append((flags, seq, ack, forward, payload, names))
        if down is not None:
            self.state = TunnelState.CLOSED
            raise Timeout(f"node {down} is unreachable")
        self.interests_sent += len(names)
        if payload is not None:
            self._received.update(payload)
            self.bytes_delivered += len(payload)

    # -- lifecycle ------------------------------------------------------------

    def establish(self) -> list[ExchangeRecord]:
        if self.state is not TunnelState.CLOSED:
            raise InvalidState(f"establish from {self.state.value}")
        self._flight(FLAG_SYN, forward=True)
        self.seq_fwd = (self.seq_fwd + 1) % 2**32
        self._flight(FLAG_SYN | FLAG_ACK, forward=False)
        self.seq_rev = (self.seq_rev + 1) % 2**32
        self._flight(FLAG_ACK, forward=True)
        self.state = TunnelState.ESTABLISHED
        return list(_ESTABLISH_RECORDS[self.mode])

    def send(self, payload: bytes) -> int:
        """Stop-and-wait payload push; returns data segments used."""
        if self.state is not TunnelState.ESTABLISHED:
            raise InvalidState(f"send from {self.state.value}")
        offsets = range(0, len(payload), self.segment_size)
        for off in offsets:
            chunk = bytes(payload[off:off + self.segment_size])
            self._flight(0, forward=True, payload=chunk)
            self.seq_fwd = (self.seq_fwd + len(chunk)) % 2**32
            self._flight(FLAG_ACK, forward=False)
        return len(offsets)

    def terminate(self) -> list[ExchangeRecord]:
        if self.state is not TunnelState.ESTABLISHED:
            raise InvalidState(f"terminate from {self.state.value}")
        self._flight(FLAG_FIN, forward=True)
        self.seq_fwd = (self.seq_fwd + 1) % 2**32
        self._flight(FLAG_ACK, forward=False)
        self._flight(FLAG_FIN, forward=False)
        self.seq_rev = (self.seq_rev + 1) % 2**32
        self._flight(FLAG_ACK, forward=True)
        self.state = TunnelState.CLOSED
        return list(_TERMINATE_RECORDS[self.mode])

    def receiver_digest(self) -> str:
        return self._received.hexdigest()


def run_scenario(mode: TunnelMode, payload: bytes,
                 down_nodes: Iterable[str] = (),
                 segment_size: int = SEGMENT_SIZE) -> TransferReport:
    """Establish, transfer, terminate; report fidelity and packet counts."""
    conn = TunnelConnection(mode, segment_size=segment_size, down=down_nodes)
    est = conn.establish()
    segments = conn.send(payload)
    fin = conn.terminate()
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
