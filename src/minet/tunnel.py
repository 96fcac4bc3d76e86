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

Everything that depends only on the mode is planned once, at import:
its chain of nodes and, for each direction, the next node of every hop
and, on CCN segments, the Interest name it carries.  Every connection
runs between 10.0.0.1:40001 and 10.0.0.2:80, so all share CONN_ID and
the planned routes, and keep only their own state.  Everything runs
in-process; a node a connection is told is down surfaces as a Timeout
and it folds back to Closed.
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


@functools.lru_cache(maxsize=1024)
def _ipv4(text: str) -> int:
    """The integer of dotted IPv4 text; malformed text raises ValueError."""
    return int(ipaddress.IPv4Address(text))


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
        _ipv4(self.src_ip)
        _ipv4(self.dst_ip)

    def encode(self) -> bytes:
        return _SIGNAL_STRUCT.pack(
            self.flags, self.seq, self.ack, _ipv4(self.src_ip),
            _ipv4(self.dst_ip), self.src_port, self.dst_port)

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
        (name_len,) = struct.unpack_from("!H", data, 0)
        pos = 2
        name = ContentName.parse(data[pos:pos + name_len].decode())
        pos += name_len
        presence = data[pos]
        pos += 1
        signaling = None
        if presence & 1:
            signaling = SignalingHeader.decode(data[pos:pos + SIGNAL_WIRE_SIZE])
            pos += SIGNAL_WIRE_SIZE
        payload = None
        if presence & 2:
            (n,) = struct.unpack_from("!I", data, pos)
            pos += 4
            payload = data[pos:pos + n]
            pos += n
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
        (n,) = struct.unpack_from("!I", buf, pos)
        pos += 4
        out.append(InterestPacket.decode(buf[pos:pos + n]))
        pos += n
    return out


# -- chain topology ---------------------------------------------------------------

class TunnelMode(Enum):
    IP_CCN_IP = "ip-ccn-ip"
    IP_CCN = "ip-ccn"
    CCN_IP = "ccn-ip"
    CCN_IP_CCN = "ccn-ip-ccn"

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.value.split("-"))


class TunnelState(Enum):
    CLOSED = "Closed"
    SYN_SENT = "SynSent"
    SYN_RECEIVED = "SynReceived"
    ESTABLISHED = "Established"
    FIN_WAIT = "FinWait"


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


def _route(path: tuple[ChainNode, ...], segments: tuple[str, ...]
           ) -> tuple[tuple[str, Optional[ContentName]], ...]:
    """(next node's label, Interest name or None) for each hop of `path`."""
    return tuple((nxt.label, nxt.prefix.child(CONN_ID)
                  if segment == "ccn" else None)
                 for nxt, segment in zip(path, segments, strict=True))


CHAINS = {mode: _build_chain(mode) for mode in TunnelMode}
_ROUTES = {mode: {True: _route(nodes[1:], mode.segments),
                  False: _route(nodes[-2::-1], mode.segments[::-1])}
           for mode, nodes in CHAINS.items()}


class TunnelConnection:
    """One tunneled transport connection across its mode's shared chain."""

    def __init__(self, mode: TunnelMode, segment_size: int = SEGMENT_SIZE,
                 down: Iterable[str] = ()):
        nodes = CHAINS[mode]
        self.down = frozenset(down)
        unknown = self.down.difference(n.label for n in nodes)
        if unknown:
            raise TunnelError(f"no node {', '.join(sorted(unknown))} in "
                              f"the {mode.value} chain")
        if segment_size < 1:
            raise TunnelError(f"segment size {segment_size} is not positive")
        self.mode = mode
        self.nodes = nodes
        self.conn_id = CONN_ID
        self.segment_size = segment_size
        self.state = TunnelState.CLOSED
        self.interests_sent = 0
        self.bytes_delivered = 0
        self.seq_fwd = 0
        self.seq_rev = 0
        self.interest_log: list[InterestPacket] = []
        self._received = hashlib.sha256()     # of the bytes delivered to B
        self._routes = _ROUTES[mode]

    # -- flights -----------------------------------------------------------

    def _flight(self, flags: int, forward: bool,
                payload: Optional[bytes] = None) -> ExchangeRecord:
        """Move one signaling flight end to end, hop by hop."""
        seq = self.seq_fwd if forward else self.seq_rev
        ack = self.seq_rev if forward else self.seq_fwd
        header = SignalingHeader(flags, seq, ack, *_ENDS[forward])
        interests = 0
        for label, name in self._routes[forward]:
            if label in self.down:
                self.state = TunnelState.CLOSED
                raise Timeout(f"node {label} is unreachable")
            if name is not None:
                self.interest_log.append(InterestPacket(name, header, payload))
                interests += 1
        self.interests_sent += interests
        if payload is not None:
            self._received.update(payload)
            self.bytes_delivered += len(payload)
        return ExchangeRecord(flag_names(flags), "fwd" if forward else "rev",
                              interests)

    # -- lifecycle ------------------------------------------------------------

    def establish(self) -> list[ExchangeRecord]:
        if self.state is not TunnelState.CLOSED:
            raise InvalidState(f"establish from {self.state.value}")
        trace = []
        trace.append(self._flight(FLAG_SYN, forward=True))
        self.state = TunnelState.SYN_SENT
        self.seq_fwd += 1
        trace.append(self._flight(FLAG_SYN | FLAG_ACK, forward=False))
        self.state = TunnelState.SYN_RECEIVED
        self.seq_rev += 1
        trace.append(self._flight(FLAG_ACK, forward=True))
        self.state = TunnelState.ESTABLISHED
        return trace

    def send(self, payload: bytes) -> int:
        """Stop-and-wait payload push; returns data segments used."""
        if self.state is not TunnelState.ESTABLISHED:
            raise InvalidState(f"send from {self.state.value}")
        segments = 0
        view = memoryview(payload)
        for off in range(0, len(payload), self.segment_size):
            chunk = bytes(view[off:off + self.segment_size])
            self._flight(0, forward=True, payload=chunk)
            self.seq_fwd += len(chunk)
            self._flight(FLAG_ACK, forward=False)
            segments += 1
        return segments

    def terminate(self) -> list[ExchangeRecord]:
        if self.state is not TunnelState.ESTABLISHED:
            raise InvalidState(f"terminate from {self.state.value}")
        trace = []
        trace.append(self._flight(FLAG_FIN, forward=True))
        self.state = TunnelState.FIN_WAIT
        self.seq_fwd += 1
        trace.append(self._flight(FLAG_ACK, forward=False))
        trace.append(self._flight(FLAG_FIN, forward=False))
        self.seq_rev += 1
        trace.append(self._flight(FLAG_ACK, forward=True))
        self.state = TunnelState.CLOSED
        return trace

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
