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
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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


# One encoded payload-free transaction: id, payload length 0, nominal size.
_TX_ROW = np.dtype([("id", ">i8"), ("payload_len", ">u4"),
                    ("nominal_size", ">u4")])


def encode_transaction(tx: Transaction) -> bytes:
    return _u64(tx.id) + _frame(tx.payload) + struct.pack(">I", tx.nominal_size)


def encode_block(block: Block) -> bytes:
    parts = [_frame(block.prev_group_hash), _frame(block.merkle),
             _frame(block.bookkeeper_key), _u64(block.timestamp),
             struct.pack(">I", len(block.txs))]
    if isinstance(block.txs, TxColumn):
        rows = np.zeros(len(block.txs), _TX_ROW)
        rows["id"] = block.txs.ids
        rows["nominal_size"] = block.txs.nominal_size
        parts.append(rows.tobytes())
    else:
        parts.extend(encode_transaction(t) for t in block.txs)
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
    parts = [_u64(msg.voter), struct.pack(">I", len(msg.votes))]
    for v in msg.votes:
        parts.append(_frame(v.block_hash))
        parts.append(b"\x01" if v.approve else b"\x00")
        parts.append(_u64(v.voter))
        parts.append(_frame(v.signature))
    return b"".join(parts)


def encode_header(header: BlockGroupHeader) -> bytes:
    parts = [_u64(header.height), _u64(header.leader), _u64(header.seed),
             _u64(header.next_leader), struct.pack(">I", len(header.tally))]
    for block_hash, yes, no in header.tally:
        parts.append(_frame(block_hash))
        parts.append(struct.pack(">II", yes, no))
    parts.append(struct.pack(">I", len(header.vote_messages)))
    parts.extend(_frame(encode_vote_message(m)) for m in header.vote_messages)
    return b"".join(parts)


def encode_block_group(group: BlockGroup) -> bytes:
    parts = [_frame(encode_header(group.header)),
             struct.pack(">I", len(group.body))]
    parts.extend(_frame(encode_block(b)) for b in group.body)
    return b"".join(parts)


def group_digest(group: BlockGroup) -> bytes:
    return hashlib.sha256(encode_block_group(group)).digest()


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
