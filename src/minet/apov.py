"""Vote-based consortium consensus core.

One round: every bookkeeping node packs a block from its transaction
pool and publishes it; every consortium node votes on every block and
sends its vote message to the round leader; the leader tallies, seals a
block group whose body holds the majority-approved blocks, draws the
next leader, and publishes the sealed header; everyone validates and
stores.

Canonical serialization is length-prefixed fields in the order the
dataclasses declare them, big-endian integers throughout; digests are
sha256 over that encoding.  Node identity is simulated: per-node keyed
hashes stand in for signatures.

A block's transactions are either a tuple of `Transaction` records
(registry blocks, which carry payloads) or a `TxColumn`: payload-free
synthetic transactions held as one read-only int64 id column with one
nominal size, as the simulator makes them.  Both encode to the same
bytes, so every digest is the same whichever form built the block.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import operator
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

GENESIS_HASH = b"\x00" * 32


class ConsensusError(Exception):
    pass


class TooManyTransactions(ConsensusError):
    pass


class IncompleteVotes(ConsensusError):
    pass


class ChainError(ConsensusError):
    pass


# -- simulated identity ----------------------------------------------------

_pack_q = struct.Struct(">q").pack


@functools.lru_cache(maxsize=1024)
def node_pubkey(node_id: int) -> bytes:
    return hashlib.sha256(b"node-pub:" + _pack_q(node_id)).digest()


def _node_secret(node_id: int) -> bytes:
    return hashlib.sha256(b"node-key:" + _pack_q(node_id)).digest()


# RFC 2104: HMAC(k, m) = H((k ^ opad) || H((k ^ ipad) || m)), with k
# zero-padded to H's 64-byte block.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=1024)
def _vote_pads(voter: int) -> tuple:
    """The voter's HMAC-SHA256 inner and outer states, each with its
    padded key already absorbed; a signature copies both."""
    key = _node_secret(voter).ljust(64, b"\x00")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


def sign_vote(voter: int, block_hash: bytes, approve: bool) -> bytes:
    """HMAC-SHA256 under the voter's secret over "vote", the block hash,
    one approve byte and the voter id, from the voter's cached pads."""
    inner, outer = _vote_pads(voter)
    inner = inner.copy()
    inner.update(b"vote" + block_hash + (b"\x01" if approve else b"\x00")
                 + _pack_q(voter))
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def verify_vote_signature(voter: int, block_hash: bytes, approve: bool,
                          signature: bytes) -> bool:
    return hmac_mod.compare_digest(sign_vote(voter, block_hash, approve), signature)


# -- types -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Transaction:
    id: int
    payload: bytes = b""
    nominal_size: int = 40


@dataclass(frozen=True, eq=False)
class TxColumn:
    """Payload-free transactions: a read-only int64 id column and one
    nominal size, encoded exactly as the matching `Transaction` records.
    The column is a private copy, so a block's cached digest and content
    check cannot go stale."""
    ids: np.ndarray
    nominal_size: int = 40

    def __post_init__(self) -> None:
        col = np.array(self.ids, dtype=np.int64)
        if not 0 <= self.nominal_size < 2**32:
            raise ValueError(f"nominal size {self.nominal_size} out of range")
        col.flags.writeable = False
        object.__setattr__(self, "ids", col)

    def __len__(self) -> int:
        return len(self.ids)


Txs = Union[tuple[Transaction, ...], TxColumn]


@dataclass(frozen=True)
class Block:
    prev_group_hash: bytes
    merkle: bytes
    bookkeeper_key: bytes
    timestamp: int
    txs: Txs


@dataclass(frozen=True, slots=True)
class BlockVote:
    block_hash: bytes
    approve: bool
    voter: int
    signature: bytes


@dataclass(frozen=True, slots=True)
class VoteMessage:
    voter: int
    votes: tuple[BlockVote, ...]


@dataclass(frozen=True, slots=True)
class BlockGroupHeader:
    height: int
    leader: int
    seed: int
    next_leader: int
    tally: tuple[tuple[bytes, int, int], ...]   # (block hash, approve, reject)
    vote_messages: tuple[VoteMessage, ...]


@dataclass(frozen=True, slots=True)
class BlockGroup:
    header: BlockGroupHeader
    body: tuple[Block, ...]


@dataclass(frozen=True)
class ConsensusConfig:
    n_c: int                     # consortium (voting) nodes
    max_txs: int = 10_000        # per-block transaction cap

    def __post_init__(self) -> None:
        if self.n_c < 1:
            raise ValueError("need at least one voter")
        if self.max_txs < 1:
            raise ValueError("max_txs must be positive")

    def majority(self, approvals: int) -> bool:
        return approvals * 2 > self.n_c


# -- digests -----------------------------------------------------------------

def merkle_root(tx_ids: Iterable[int]) -> bytes:
    """Binary sha256 tree over transaction ids; odd nodes promote."""
    sha256, pack = hashlib.sha256, _pack_q
    level = [sha256(pack(t)).digest() for t in tx_ids]
    if not level:
        return sha256(b"").digest()
    while len(level) > 1:
        nxt = [sha256(a + b).digest() for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# -- canonical encoding --------------------------------------------------------

_pack_I = struct.Struct(">I").pack
_pack_qI = struct.Struct(">qI").pack


# One encoded payload-free transaction: id, payload length 0, nominal size.
_TX_ROW = np.dtype([("id", ">i8"), ("payload_len", ">u4"),
                    ("nominal_size", ">u4")])


def encode_transaction(tx: Transaction) -> bytes:
    return _pack_qI(tx.id, len(tx.payload)) + tx.payload + _pack_I(tx.nominal_size)


def encode_block(block: Block) -> bytes:
    prev, merkle, key = block.prev_group_hash, block.merkle, block.bookkeeper_key
    parts = [struct.pack(f">I{len(prev)}sI{len(merkle)}sI{len(key)}sqI",
                         len(prev), prev, len(merkle), merkle, len(key), key,
                         block.timestamp, len(block.txs))]
    if isinstance(block.txs, TxColumn):
        rows = np.zeros(len(block.txs), _TX_ROW)
        rows["id"] = block.txs.ids
        rows["nominal_size"] = block.txs.nominal_size
        parts.append(rows.tobytes())
    else:
        parts.extend(map(encode_transaction, block.txs))
    return b"".join(parts)


def block_digest(block: Block) -> bytes:
    cached = getattr(block, "_digest", None)
    if cached is not None:
        return cached
    out = hashlib.sha256(encode_block(block)).digest()
    object.__setattr__(block, "_digest", out)
    return out


def _block_content_ok(block: Block) -> bool:
    """Merkle recompute + unique tx ids, cached per immutable instance."""
    cached = getattr(block, "_content_ok", None)
    if cached is not None:
        return cached
    _, ids = _with_ids(block.txs)
    ok = len(set(ids)) == len(ids) and merkle_root(ids) == block.merkle
    object.__setattr__(block, "_content_ok", ok)
    return ok


def _with_ids(txs: Union[Sequence[Transaction], TxColumn]
               ) -> tuple[Txs, list[int]]:
    """`txs` in the form a block holds, and its ids as Python ints, which
    the merkle tree and the uniqueness check take for both forms."""
    if isinstance(txs, TxColumn):
        return txs, txs.ids.tolist()
    txs = tuple(txs)
    return txs, [t.id for t in txs]


def encode_vote_message(msg: VoteMessage) -> bytes:
    """Voter, vote count, then per vote its framed block hash, one
    approve byte, the voter and the framed signature, in one pack."""
    parts = [_pack_qI(msg.voter, len(msg.votes))]
    for v in msg.votes:
        h, sig = v.block_hash, v.signature
        parts.append(struct.pack(f">I{len(h)}s?qI{len(sig)}s", len(h), h,
                                 v.approve, v.voter, len(sig), sig))
    return b"".join(parts)


def _header_parts(header: BlockGroupHeader) -> list[bytes]:
    parts = [struct.pack(">qqqqI", header.height, header.leader, header.seed,
                         header.next_leader, len(header.tally))]
    for h, yes, no in header.tally:
        parts.append(struct.pack(f">I{len(h)}sII", len(h), h, yes, no))
    parts.append(_pack_I(len(header.vote_messages)))
    for m in header.vote_messages:
        encoded = encode_vote_message(m)
        parts += (_pack_I(len(encoded)), encoded)
    return parts


def _group_frames(group: BlockGroup) -> Iterator[bytes]:
    """The framed header, the body count and each framed body block.
    The header's parts are dropped before the body is encoded, and each
    body block is encoded only when its frame is reached."""
    head = _header_parts(group.header)
    yield _pack_I(sum(map(len, head)))
    yield from head
    del head
    yield _pack_I(len(group.body))
    for b in group.body:
        encoded = encode_block(b)
        yield _pack_I(len(encoded))
        yield encoded


def group_digest(group: BlockGroup) -> bytes:
    """sha256 over the group's canonical encoding, hashed frame by frame,
    so the whole encoded group is never held at once."""
    h = hashlib.sha256()
    for frame in _group_frames(group):
        h.update(frame)
    return h.digest()


# -- round operations -----------------------------------------------------------

def make_block(bookkeeper: int, txs: Union[Sequence[Transaction], TxColumn],
               prev_group_hash: bytes, timestamp: int,
               config: ConsensusConfig) -> Block:
    if len(txs) > config.max_txs:
        raise TooManyTransactions(f"{len(txs)} > {config.max_txs}")
    txs, ids = _with_ids(txs)
    block = Block(prev_group_hash, merkle_root(ids), node_pubkey(bookkeeper),
                  timestamp, txs)
    # The root was just computed from these ids, so only uniqueness is open.
    object.__setattr__(block, "_content_ok", len(set(ids)) == len(ids))
    return block


def block_is_valid(block: Block, prev_group_hash: bytes,
                   config: ConsensusConfig) -> bool:
    """Structural block check: linkage, tx cap, unique ids, merkle recompute."""
    return (block.prev_group_hash == prev_group_hash
            and len(block.txs) <= config.max_txs
            and _block_content_ok(block))


def cast_validation_votes(voter: int, blocks: Sequence[Block],
                          prev_group_hash: bytes,
                          config: ConsensusConfig) -> VoteMessage:
    votes = []
    for block in blocks:
        h = block_digest(block)
        approve = block_is_valid(block, prev_group_hash, config)
        votes.append(BlockVote(h, approve, voter, sign_vote(voter, h, approve)))
    return VoteMessage(voter, tuple(votes))


def tally_and_seal(leader: int, votes: Sequence[VoteMessage],
                   blocks: Sequence[Block], height: int, seed: int,
                   config: ConsensusConfig,
                   eligible: Sequence[int]) -> BlockGroupHeader:
    """Tally one vote message per consortium node and seal the header.

    `seed` drives the next-leader draw and is recorded in the header so
    that the draw can be re-audited; identical inputs give bit-identical
    headers.
    """
    n_c = config.n_c
    if len(votes) != n_c:
        raise IncompleteVotes(f"{len(votes)} of {n_c} vote messages")
    if len({m.voter for m in votes}) != n_c:
        raise IncompleteVotes("duplicate voters")
    hashes = [block_digest(b) for b in blocks]
    expected = set(hashes)
    for m in votes:
        if len(m.votes) != len(hashes) or {v.block_hash for v in m.votes} != expected:
            raise IncompleteVotes(f"voter {m.voter} did not cover every block")
    approvals = _count_approvals(votes)
    tally = []
    for h in hashes:
        yes = approvals.get(h, 0)
        tally.append((h, yes, n_c - yes))
    rng = np.random.Generator(np.random.PCG64(seed))
    next_leader = int(eligible[int(rng.integers(0, len(eligible)))])
    ordered = tuple(sorted(votes, key=_by_voter))
    return BlockGroupHeader(height, leader, seed, next_leader,
                            tuple(tally), ordered)


_by_voter = operator.attrgetter("voter")


def _count_approvals(messages: Iterable[VoteMessage]) -> dict[bytes, int]:
    """Approving votes per block hash, in one pass over every vote; a
    hash no vote approves is absent."""
    counts: dict[bytes, int] = {}
    for m in messages:
        for v in m.votes:
            if v.approve:
                counts[v.block_hash] = counts.get(v.block_hash, 0) + 1
    return counts


def assemble_group(header: BlockGroupHeader,
                   blocks: Sequence[Block]) -> BlockGroup:
    """Body = the majority-approved blocks, in tally order."""
    by_hash = {block_digest(b): b for b in blocks}
    body = []
    for h, yes, no in header.tally:
        if yes * 2 > yes + no and h in by_hash:
            body.append(by_hash[h])
    return BlockGroup(header, tuple(body))


def validate_block_group(group: BlockGroup, config: ConsensusConfig,
                         prev_group_hash: bytes) -> list[str]:
    """Every reason the sealed group is unacceptable (empty = valid)."""
    problems = []
    header = group.header
    if len(header.vote_messages) != config.n_c:
        problems.append("vote messages incomplete")
    tally_hashes = {h for h, _, _ in header.tally}
    for msg in header.vote_messages:
        if {v.block_hash for v in msg.votes} != tally_hashes:
            problems.append(f"voter {msg.voter} vote coverage mismatch")
        for v in msg.votes:
            if v.voter != msg.voter:
                problems.append(f"vote voter {v.voter} inside message of {msg.voter}")
            if not verify_vote_signature(v.voter, v.block_hash, v.approve,
                                         v.signature):
                problems.append(f"bad signature from voter {v.voter}")
    approvals = _count_approvals(header.vote_messages)
    for h, yes, no in header.tally:
        if approvals.get(h, 0) != yes or yes + no != config.n_c:
            problems.append("tally does not match vote messages")
            break
    body_hashes = [block_digest(b) for b in group.body]
    majority = {h for h, yes, no in header.tally if config.majority(yes)}
    if set(body_hashes) != majority:
        problems.append("body does not hold exactly the majority-approved blocks")
    for block in group.body:
        if block.prev_group_hash != prev_group_hash:
            problems.append("body block linkage broken")
        if not _block_content_ok(block):
            problems.append("body block content corrupt")
    return problems


# -- chains ------------------------------------------------------------------

def genesis_group(first_leader: int) -> BlockGroup:
    header = BlockGroupHeader(height=0, leader=-1, seed=0,
                              next_leader=first_leader, tally=(),
                              vote_messages=())
    return BlockGroup(header, ())


class Chain:
    """A validated chain of block groups, kept as its tip: the height, the
    digest and the drawn next leader of the last group appended, which is
    all the next append reads.  The tip digest commits to every group
    before it, so an appended group is validated and then dropped; a
    caller that needs something from a group keeps it itself."""

    __slots__ = ("height", "tip_digest", "next_leader")

    def __init__(self, first_leader: int = 0):
        self.height = 0
        self.tip_digest = group_digest(genesis_group(first_leader))
        self.next_leader = first_leader

    def append(self, group: BlockGroup, config: ConsensusConfig) -> None:
        header = group.header
        if header.height != self.height + 1:
            raise ChainError(f"height {header.height}, expected {self.height + 1}")
        problems = validate_block_group(group, config, self.tip_digest)
        if problems:
            raise ChainError("; ".join(problems))
        self.height = header.height
        self.tip_digest = group_digest(group)
        self.next_leader = header.next_leader
