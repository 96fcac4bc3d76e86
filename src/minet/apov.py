"""Vote-based consortium consensus core.

One round: every bookkeeping node packs a block from its transaction
pool and publishes it; every consortium node votes on every block and
sends its vote message to the round leader; the leader tallies, seals a
block group whose body holds the majority-approved blocks, draws the
next leader, and publishes the sealed header; everyone validates and
stores.  Bookkeepers are elected by ranked confidence votes.

Canonical serialization is length-prefixed fields in the order the
dataclasses declare them, big-endian integers throughout; digests are
sha256 over that encoding.  Node identity is simulated: per-node keyed
hashes stand in for signatures.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

GENESIS_HASH = b"\x00" * 32


class ConsensusError(Exception):
    pass


class TooManyTransactions(ConsensusError):
    pass


class IncompleteVotes(ConsensusError):
    pass


class NotEnoughCandidates(ConsensusError):
    pass


class ChainError(ConsensusError):
    pass


# -- simulated identity ----------------------------------------------------

def node_pubkey(node_id: int) -> bytes:
    return hashlib.sha256(b"node-pub:" + struct.pack(">q", node_id)).digest()


@functools.lru_cache(maxsize=1024)
def _node_secret(node_id: int) -> bytes:
    return hashlib.sha256(b"node-key:" + struct.pack(">q", node_id)).digest()


def sign_vote(voter: int, block_hash: bytes, approve: bool) -> bytes:
    msg = b"vote" + block_hash + (b"\x01" if approve else b"\x00") + struct.pack(">q", voter)
    return hmac_mod.new(_node_secret(voter), msg, hashlib.sha256).digest()


def verify_vote_signature(voter: int, block_hash: bytes, approve: bool,
                          signature: bytes) -> bool:
    return hmac_mod.compare_digest(sign_vote(voter, block_hash, approve), signature)


# -- types -------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    id: int
    payload: bytes = b""
    nominal_size: int = 40


@dataclass(frozen=True)
class Block:
    prev_group_hash: bytes
    merkle: bytes
    bookkeeper_key: bytes
    timestamp: int
    txs: tuple[Transaction, ...]


@dataclass(frozen=True)
class BlockVote:
    block_hash: bytes
    approve: bool
    voter: int
    signature: bytes


@dataclass(frozen=True)
class VoteMessage:
    voter: int
    votes: tuple[BlockVote, ...]


@dataclass(frozen=True)
class ConfidenceVote:
    voter: int
    candidate: int


@dataclass(frozen=True)
class BlockGroupHeader:
    height: int
    leader: int
    seed: int
    next_leader: int
    tally: tuple[tuple[bytes, int, int], ...]   # (block hash, approve, reject)
    vote_messages: tuple[VoteMessage, ...]


@dataclass(frozen=True)
class BlockGroup:
    header: BlockGroupHeader
    body: tuple[Block, ...]


@dataclass(frozen=True)
class ConsensusConfig:
    n_b: int                     # bookkeeping nodes
    n_c: int                     # consortium (voting) nodes
    n_bc: int = 0                # nodes holding both roles
    max_txs: int = 10_000        # per-block transaction cap
    term_length: int = 10        # rounds per bookkeeper term

    def __post_init__(self) -> None:
        if self.n_b < 1 or self.n_c < 1:
            raise ValueError("need at least one bookkeeper and one voter")
        if not 0 <= self.n_bc <= min(self.n_b, self.n_c):
            raise ValueError("n_bc must not exceed either role count")
        if self.max_txs < 1 or self.term_length < 1:
            raise ValueError("max_txs and term_length must be positive")

    def majority(self, approvals: int) -> bool:
        return approvals * 2 > self.n_c


# -- digests -----------------------------------------------------------------

def merkle_root(tx_ids: Iterable[int]) -> bytes:
    """Binary sha256 tree over transaction ids; odd nodes promote."""
    level = [hashlib.sha256(struct.pack(">q", t)).digest() for t in tx_ids]
    if not level:
        return hashlib.sha256(b"").digest()
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(hashlib.sha256(level[i] + level[i + 1]).digest())
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# -- canonical encoding --------------------------------------------------------

def _frame(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _u64(value: int) -> bytes:
    return struct.pack(">q", value)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def frame(self) -> bytes:
        (n,) = struct.unpack_from(">I", self.buf, self.pos)
        self.pos += 4
        out = self.buf[self.pos:self.pos + n]
        if len(out) != n:
            raise ChainError("truncated record")
        self.pos += n
        return out

    def u64(self) -> int:
        (v,) = struct.unpack_from(">q", self.buf, self.pos)
        self.pos += 8
        return v

    def done(self) -> bool:
        return self.pos == len(self.buf)


def encode_transaction(tx: Transaction) -> bytes:
    return _u64(tx.id) + _frame(tx.payload) + struct.pack(">I", tx.nominal_size)


def _decode_transaction(r: _Reader) -> Transaction:
    tid = r.u64()
    payload = r.frame()
    (nominal,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    return Transaction(tid, payload, nominal)


def encode_block(block: Block) -> bytes:
    # Blocks are immutable and re-encoded at every simulated node; cache
    # the encoding on the instance.
    cached = getattr(block, "_enc", None)
    if cached is not None:
        return cached
    parts = [_frame(block.prev_group_hash), _frame(block.merkle),
             _frame(block.bookkeeper_key), _u64(block.timestamp),
             struct.pack(">I", len(block.txs))]
    parts.extend(encode_transaction(t) for t in block.txs)
    out = b"".join(parts)
    object.__setattr__(block, "_enc", out)
    return out


def _decode_block(r: _Reader) -> Block:
    prev = r.frame()
    merkle = r.frame()
    key = r.frame()
    ts = r.u64()
    (count,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    txs = tuple(_decode_transaction(r) for _ in range(count))
    return Block(prev, merkle, key, ts, txs)


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
    ids = [t.id for t in block.txs]
    ok = len(set(ids)) == len(ids) and merkle_root(ids) == block.merkle
    object.__setattr__(block, "_content_ok", ok)
    return ok


def encode_vote_message(msg: VoteMessage) -> bytes:
    parts = [_u64(msg.voter), struct.pack(">I", len(msg.votes))]
    for v in msg.votes:
        parts.append(_frame(v.block_hash))
        parts.append(b"\x01" if v.approve else b"\x00")
        parts.append(_u64(v.voter))
        parts.append(_frame(v.signature))
    return b"".join(parts)


def _decode_vote_message(r: _Reader) -> VoteMessage:
    voter = r.u64()
    (count,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    votes = []
    for _ in range(count):
        block_hash = r.frame()
        approve = r.buf[r.pos:r.pos + 1] == b"\x01"
        r.pos += 1
        v_voter = r.u64()
        sig = r.frame()
        votes.append(BlockVote(block_hash, approve, v_voter, sig))
    return VoteMessage(voter, tuple(votes))


def encode_header(header: BlockGroupHeader) -> bytes:
    parts = [_u64(header.height), _u64(header.leader), _u64(header.seed),
             _u64(header.next_leader), struct.pack(">I", len(header.tally))]
    for block_hash, yes, no in header.tally:
        parts.append(_frame(block_hash))
        parts.append(struct.pack(">II", yes, no))
    parts.append(struct.pack(">I", len(header.vote_messages)))
    parts.extend(_frame(encode_vote_message(m)) for m in header.vote_messages)
    return b"".join(parts)


def _decode_header(r: _Reader) -> BlockGroupHeader:
    height = r.u64()
    leader = r.u64()
    seed = r.u64()
    next_leader = r.u64()
    (tally_n,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    tally = []
    for _ in range(tally_n):
        block_hash = r.frame()
        yes, no = struct.unpack_from(">II", r.buf, r.pos)
        r.pos += 8
        tally.append((block_hash, yes, no))
    (msg_n,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    msgs = tuple(_decode_vote_message(_Reader(r.frame())) for _ in range(msg_n))
    return BlockGroupHeader(height, leader, seed, next_leader, tuple(tally), msgs)


def encode_block_group(group: BlockGroup) -> bytes:
    parts = [_frame(encode_header(group.header)),
             struct.pack(">I", len(group.body))]
    parts.extend(_frame(encode_block(b)) for b in group.body)
    return b"".join(parts)


def decode_block_group(buf: bytes) -> BlockGroup:
    r = _Reader(buf)
    header = _decode_header(_Reader(r.frame()))
    (n,) = struct.unpack_from(">I", r.buf, r.pos)
    r.pos += 4
    body = tuple(_decode_block(_Reader(r.frame())) for _ in range(n))
    return BlockGroup(header, body)


def group_digest(group: BlockGroup) -> bytes:
    return hashlib.sha256(encode_block_group(group)).digest()


# -- round operations -----------------------------------------------------------

def make_block(bookkeeper: int, txs: Sequence[Transaction], prev_group_hash: bytes,
               timestamp: int, config: ConsensusConfig) -> Block:
    if len(txs) > config.max_txs:
        raise TooManyTransactions(f"{len(txs)} > {config.max_txs}")
    return Block(prev_group_hash, merkle_root(t.id for t in txs),
                 node_pubkey(bookkeeper), timestamp, tuple(txs))


def default_validity(prev_group_hash: bytes,
                     config: ConsensusConfig) -> Callable[[Block], bool]:
    """Structural block check: linkage, tx cap, unique ids, merkle recompute."""
    def policy(block: Block) -> bool:
        if block.prev_group_hash != prev_group_hash:
            return False
        if len(block.txs) > config.max_txs:
            return False
        return _block_content_ok(block)
    return policy


def cast_validation_votes(voter: int, blocks: Sequence[Block],
                          policy: Callable[[Block], bool]) -> VoteMessage:
    votes = []
    for block in blocks:
        h = block_digest(block)
        approve = bool(policy(block))
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
    if len(votes) != config.n_c:
        raise IncompleteVotes(f"{len(votes)} of {config.n_c} vote messages")
    voters = {m.voter for m in votes}
    if len(voters) != config.n_c:
        raise IncompleteVotes("duplicate voters")
    hashes = [block_digest(b) for b in blocks]
    expected = set(hashes)
    for m in votes:
        if {v.block_hash for v in m.votes} != expected or len(m.votes) != len(blocks):
            raise IncompleteVotes(f"voter {m.voter} did not cover every block")
    approvals = _count_approvals(votes)
    tally = [(h, approvals[h], config.n_c - approvals[h]) for h in hashes]
    rng = np.random.default_rng(np.random.PCG64(seed))
    next_leader = int(eligible[int(rng.integers(0, len(eligible)))])
    ordered = tuple(sorted(votes, key=lambda m: m.voter))
    return BlockGroupHeader(height, leader, seed, next_leader,
                            tuple(tally), ordered)


def _count_approvals(messages: Iterable[VoteMessage]) -> Counter:
    """Approving votes per block hash, in one pass over every vote."""
    return Counter(v.block_hash for m in messages for v in m.votes if v.approve)


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
    tally_hashes = [h for h, _, _ in header.tally]
    for msg in header.vote_messages:
        seen = {v.block_hash for v in msg.votes}
        if seen != set(tally_hashes):
            problems.append(f"voter {msg.voter} vote coverage mismatch")
        for v in msg.votes:
            if v.voter != msg.voter:
                problems.append(f"vote voter {v.voter} inside message of {msg.voter}")
            if not verify_vote_signature(v.voter, v.block_hash, v.approve,
                                         v.signature):
                problems.append(f"bad signature from voter {v.voter}")
    approvals = _count_approvals(header.vote_messages)
    for h, yes, no in header.tally:
        if approvals[h] != yes or yes + no != config.n_c:
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


def elect_bookkeepers(candidates: Sequence[int],
                      votes: Sequence[ConfidenceVote], n_b: int) -> list[int]:
    """Top n_b candidates by distinct confidence votes, ties to lower id."""
    if len(set(candidates)) < n_b:
        raise NotEnoughCandidates(f"{len(set(candidates))} < {n_b}")
    allowed = set(candidates)
    counted = {(v.voter, v.candidate) for v in votes if v.candidate in allowed}
    scores = {c: 0 for c in candidates}
    for _, cand in counted:
        scores[cand] += 1
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    return ranked[:n_b]


# -- chains ------------------------------------------------------------------

def genesis_group(first_leader: int) -> BlockGroup:
    header = BlockGroupHeader(height=0, leader=-1, seed=0,
                              next_leader=first_leader, tally=(),
                              vote_messages=())
    return BlockGroup(header, ())


class Chain:
    """Validated, in-memory sequence of block groups plus their digests."""

    def __init__(self, first_leader: int = 0):
        g = genesis_group(first_leader)
        self.groups: list[BlockGroup] = [g]
        self.digests: list[bytes] = [group_digest(g)]

    @property
    def height(self) -> int:
        return self.groups[-1].header.height

    @property
    def tip_digest(self) -> bytes:
        return self.digests[-1]

    @property
    def next_leader(self) -> int:
        return self.groups[-1].header.next_leader

    def append(self, group: BlockGroup, config: ConsensusConfig) -> None:
        if group.header.height != self.height + 1:
            raise ChainError(f"height {group.header.height}, expected {self.height + 1}")
        problems, digest = _checked_group(group, config, self.tip_digest)
        if problems:
            raise ChainError("; ".join(problems))
        self.groups.append(group)
        self.digests.append(digest)


# The last group `Chain.append` checked:
# (header, body digests, prev digest, config, problems, group digest).
# Every node appends a round's sealed group before the next round starts,
# so one entry lets the nodes holding the same group share one validation.
# The header is held by reference, so no other header can take its
# identity while it is the key.
_last_check: Optional[tuple] = None


def _checked_group(group: BlockGroup, config: ConsensusConfig,
                   prev_group_hash: bytes) -> tuple[tuple[str, ...], Optional[bytes]]:
    """`validate_block_group` and, for a valid group, `group_digest`,
    computed once for the same sealed header, body, chain tip and config."""
    global _last_check
    body = tuple(block_digest(b) for b in group.body)
    last = _last_check
    if (last is not None and last[0] is group.header and last[1] == body
            and last[2] == prev_group_hash and last[3] == config):
        return last[4], last[5]
    problems = tuple(validate_block_group(group, config, prev_group_hash))
    digest = None if problems else group_digest(group)
    _last_check = (group.header, body, prev_group_hash, config, problems, digest)
    return problems, digest


def append_block_group(path, group: BlockGroup) -> None:
    with open(path, "ab") as fh:
        fh.write(_frame(encode_block_group(group)))


def read_chain(path) -> list[BlockGroup]:
    out = []
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    while not r.done():
        out.append(decode_block_group(r.frame()))
    return out
