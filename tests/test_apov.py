"""Consensus core: vote tallies, sealing, digests, chain linkage."""

import dataclasses
import hashlib
import hmac
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from minet.apov import (
    Block,
    BlockGroup,
    BlockGroupHeader,
    BlockVote,
    Chain,
    ChainError,
    ConsensusConfig,
    GENESIS_HASH,
    IncompleteVotes,
    TooManyTransactions,
    Transaction,
    TxColumn,
    VoteMessage,
    _group_frames,
    assemble_group,
    block_digest,
    block_is_valid,
    cast_validation_votes,
    encode_block,
    genesis_group,
    group_digest,
    make_block,
    merkle_root,
    node_pubkey,
    sign_vote,
    tally_and_seal,
    validate_block_group,
    verify_vote_signature,
)
from minet.apov import _node_secret

N_B = 4  # bookkeepers per round
CFG = ConsensusConfig(n_c=3, max_txs=100)


def _txs(start, count):
    return [Transaction(i, payload=b"p%d" % i) for i in range(start, start + count)]


def _round(chain: Chain, cfg=CFG, *, corrupt_block=None, dissent=()):
    """Run one full round against `chain` and return (header, blocks, votes)."""
    prev = chain.tip_digest
    height = chain.height + 1
    blocks = []
    for b in range(N_B):
        txs = _txs(1000 * height + 100 * b, 5)
        block = make_block(b, txs, prev, timestamp=height, config=cfg)
        if corrupt_block == b:
            block = Block(block.prev_group_hash, hashlib.sha256(b"x").digest(),
                          block.bookkeeper_key, block.timestamp, block.txs)
        blocks.append(block)
    votes = []
    for voter in range(cfg.n_c):
        msg = cast_validation_votes(voter, blocks, prev, cfg)
        if voter in dissent:
            msg = VoteMessage(voter, tuple(
                BlockVote(v.block_hash, not v.approve, v.voter,
                          sign_vote(v.voter, v.block_hash, not v.approve))
                for v in msg.votes))
        votes.append(msg)
    header = tally_and_seal(leader=chain.next_leader, votes=votes, blocks=blocks,
                            height=height, seed=77 + height, config=cfg,
                            eligible=list(range(cfg.n_c)))
    return header, blocks, votes


def test_merkle_root_known_values():
    assert merkle_root([]) == hashlib.sha256(b"").digest()
    one = merkle_root([7])
    assert one == hashlib.sha256((7).to_bytes(8, "big")).digest()
    two = merkle_root([7, 8])
    h7 = hashlib.sha256((7).to_bytes(8, "big")).digest()
    h8 = hashlib.sha256((8).to_bytes(8, "big")).digest()
    assert two == hashlib.sha256(h7 + h8).digest()
    # odd count: last leaf promotes
    three = merkle_root([7, 8, 9])
    h9 = hashlib.sha256((9).to_bytes(8, "big")).digest()
    assert three == hashlib.sha256(two + h9).digest()


def test_make_block_enforces_cap():
    with pytest.raises(TooManyTransactions):
        make_block(0, _txs(0, CFG.max_txs + 1), GENESIS_HASH, 0, CFG)


def test_make_block_with_duplicate_ids_is_refused():
    twice = make_block(0, _txs(0, 3) + _txs(1, 1), GENESIS_HASH,
                       timestamp=1, config=CFG)
    assert twice.merkle == merkle_root([0, 1, 2, 1])
    assert not block_is_valid(twice, GENESIS_HASH, CFG)
    assert block_is_valid(make_block(0, _txs(0, 3), GENESIS_HASH, timestamp=1,
                                     config=CFG), GENESIS_HASH, CFG)


@pytest.mark.parametrize("k", [1, 2, 3, 999, 1000])
def test_id_column_encodes_as_transaction_records(k):
    cfg = ConsensusConfig(n_c=1, max_txs=1000)
    ids = np.arange(k, dtype=np.int64) + (2**62 - 500)
    column = make_block(5, TxColumn(ids, nominal_size=40), GENESIS_HASH,
                        timestamp=9, config=cfg)
    records = make_block(5, [Transaction(int(i), nominal_size=40) for i in ids],
                         GENESIS_HASH, timestamp=9, config=cfg)
    assert encode_block(column) == encode_block(records)
    assert block_digest(column) == block_digest(records)
    assert column.merkle == records.merkle == merkle_root(ids.tolist())
    assert block_is_valid(column, GENESIS_HASH, cfg)


def test_id_column_with_duplicate_id_is_corrupt():
    ids = np.array([2**62, 2**62 + 1, 2**62], dtype=np.int64)
    block = make_block(0, TxColumn(ids), GENESIS_HASH, timestamp=1, config=CFG)
    assert block._content_ok is False
    # the same block without make_block's cached verdict
    rebuilt = Block(block.prev_group_hash, block.merkle, block.bookkeeper_key,
                    block.timestamp, block.txs)
    for b in (block, rebuilt):
        group = BlockGroup(genesis_group(0).header, (b,))
        assert "body block content corrupt" in validate_block_group(
            group, CFG, GENESIS_HASH)


def test_id_column_is_read_only():
    source = np.array([1, 2, 3], dtype=np.int64)
    column = TxColumn(source)
    with pytest.raises(ValueError):
        column.ids[0] = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        column.ids = source
    source[0] = 4                       # the column holds its own copy
    assert column.ids.tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        TxColumn(source, nominal_size=2**32)


def test_full_round_seals_and_appends():
    chain = Chain(first_leader=1)
    header, blocks, _ = _round(chain)
    assert header.leader == 1
    assert all(yes == CFG.n_c and no == 0 for _, yes, no in header.tally)
    group = assemble_group(header, blocks)
    assert len(group.body) == N_B
    assert validate_block_group(group, CFG, chain.tip_digest) == []
    chain.append(group, CFG)
    assert chain.height == 1
    assert chain.next_leader == header.next_leader


def test_corrupt_block_voted_out():
    chain = Chain()
    header, blocks, _ = _round(chain, corrupt_block=2)
    bad_hash = block_digest(blocks[2])
    tally = dict((h, (yes, no)) for h, yes, no in header.tally)
    assert tally[bad_hash] == (0, CFG.n_c)
    group = assemble_group(header, blocks)
    assert len(group.body) == N_B - 1
    assert bad_hash not in [block_digest(b) for b in group.body]
    assert validate_block_group(group, CFG, chain.tip_digest) == []
    chain.append(group, CFG)


def test_majority_boundaries():
    # n_c=3: 2 approvals pass, 1 fails; n_c=4: 3 pass, 2 fail (strict majority)
    assert ConsensusConfig(n_c=3).majority(2)
    assert not ConsensusConfig(n_c=3).majority(1)
    assert ConsensusConfig(n_c=4).majority(3)
    assert not ConsensusConfig(n_c=4).majority(2)
    chain = Chain()
    header, blocks, _ = _round(chain, dissent=(0,))       # 2 of 3 approve
    group = assemble_group(header, blocks)
    assert len(group.body) == N_B
    header2, blocks2, _ = _round(chain, dissent=(0, 2))   # 1 of 3 approve
    group2 = assemble_group(header2, blocks2)
    assert group2.body == ()
    assert validate_block_group(group2, CFG, chain.tip_digest) == []


def test_tally_requires_total_coverage():
    chain = Chain()
    prev = chain.tip_digest
    blocks = [make_block(b, _txs(100 * b, 3), prev, 1, CFG) for b in range(N_B)]
    votes = [cast_validation_votes(v, blocks, prev, CFG) for v in range(CFG.n_c)]
    common = dict(blocks=blocks, height=1, seed=5, config=CFG, eligible=[0, 1])
    with pytest.raises(IncompleteVotes):
        tally_and_seal(0, votes[:-1], **common)
    with pytest.raises(IncompleteVotes):
        tally_and_seal(0, votes[:-1] + [votes[0]], **common)
    short = VoteMessage(2, votes[2].votes[:-1])
    with pytest.raises(IncompleteVotes):
        tally_and_seal(0, votes[:-1] + [short], **common)


def test_seal_deterministic_and_order_invariant():
    chain = Chain()
    prev = chain.tip_digest
    blocks = [make_block(b, _txs(100 * b, 3), prev, 1, CFG) for b in range(N_B)]
    votes = [cast_validation_votes(v, blocks, prev, CFG) for v in range(CFG.n_c)]
    headers = set()
    for perm in itertools.permutations(votes):
        h = tally_and_seal(0, list(perm), blocks, 1, 42, CFG, [0, 1, 2])
        headers.add(group_digest(BlockGroup(h, ())))
    assert len(headers) == 1
    h1 = tally_and_seal(0, votes, blocks, 1, 42, CFG, [0, 1, 2])
    h2 = tally_and_seal(0, votes, blocks, 1, 42, CFG, [0, 1, 2])
    assert b"".join(_group_frames(BlockGroup(h1, tuple(blocks)))) == \
        b"".join(_group_frames(BlockGroup(h2, tuple(blocks))))
    h3 = tally_and_seal(0, votes, blocks, 1, 43, CFG, [0, 1, 2])
    assert h3.seed == 43 and h1.seed == 42


def test_group_digest_covers_every_field():
    # Changing any one field of a group changes its digest, so the
    # encoding the digest hashes drops no field.
    tx = Transaction(7, payload=b"pay", nominal_size=3)
    block = Block(b"p" * 32, b"m" * 32, b"k" * 32, 5, (tx,))
    vote = BlockVote(b"h" * 32, True, 2, b"s" * 32)
    header = BlockGroupHeader(height=1, leader=2, seed=3, next_leader=4,
                              tally=((b"h" * 32, 3, 0),),
                              vote_messages=(VoteMessage(2, (vote,)),))
    group = BlockGroup(header, (block,))
    replace = dataclasses.replace

    def with_header(**changes):
        return BlockGroup(replace(header, **changes), group.body)

    def with_vote(**changes):
        return with_header(
            vote_messages=(VoteMessage(2, (replace(vote, **changes),)),))

    def with_block(**changes):
        return BlockGroup(header, (replace(block, **changes),))

    def with_tx(**changes):
        return with_block(txs=(replace(tx, **changes),))

    variants = [
        with_header(height=9),
        with_header(leader=9),
        with_header(seed=9),
        with_header(next_leader=9),
        with_header(tally=((b"H" * 32, 3, 0),)),
        with_header(tally=((b"h" * 32, 2, 0),)),
        with_header(tally=((b"h" * 32, 3, 1),)),
        with_header(vote_messages=(VoteMessage(9, (vote,)),)),
        with_vote(block_hash=b"H" * 32),
        with_vote(approve=False),
        with_vote(voter=9),
        with_vote(signature=b"S" * 32),
        with_block(prev_group_hash=b"P" * 32),
        with_block(merkle=b"M" * 32),
        with_block(bookkeeper_key=b"K" * 32),
        with_block(timestamp=9),
        with_tx(id=9),
        with_tx(payload=b"pa"),
        with_tx(nominal_size=9),
        BlockGroup(header, ()),
    ]
    digests = {group_digest(g) for g in variants}
    assert len(digests) == len(variants)
    assert group_digest(group) not in digests


def test_tally_matches_brute_force_count():
    chain = Chain()
    header, blocks, votes = _round(chain, corrupt_block=2, dissent=(0,))
    brute = [(block_digest(b),
              sum(1 for m in votes for v in m.votes
                  if v.block_hash == block_digest(b) and v.approve))
             for b in blocks]
    assert [(h, yes) for h, yes, _ in header.tally] == brute
    assert [yes for _, yes in brute] == [2, 2, 1, 2]
    assert all(yes + no == CFG.n_c for _, yes, no in header.tally)
    group = assemble_group(header, blocks)
    assert validate_block_group(group, CFG, chain.tip_digest) == []


def test_chain_append_refuses_what_direct_validation_refuses():
    header, blocks, _ = _round(Chain(), dissent=(0,))
    good = assemble_group(header, blocks)
    b0 = good.body[0]
    tampered_block = Block(b0.prev_group_hash, b0.merkle, b0.bookkeeper_key,
                           b0.timestamp, (Transaction(999999),) + b0.txs[1:])
    wider = ConsensusConfig(n_c=4, max_txs=100)
    cases = [
        (Chain(), BlockGroup(header, (tampered_block,) + good.body[1:]), CFG),
        (Chain(), BlockGroup(header, good.body[1:]), CFG),
        (Chain(first_leader=1), good, CFG),      # a different previous digest
        (Chain(), good, wider),
    ]
    for chain, group, cfg in cases:
        honest = Chain()
        honest.append(good, CFG)
        assert honest.tip_digest == group_digest(good)
        expected = validate_block_group(group, cfg, chain.tip_digest)
        assert expected
        with pytest.raises(ChainError) as err:
            chain.append(group, cfg)
        assert str(err.value) == "; ".join(expected)
        assert chain.height == 0


def test_tampering_detected():
    chain = Chain()
    header, blocks, _ = _round(chain)
    group = assemble_group(header, blocks)

    # swap one transaction inside a body block
    b0 = group.body[0]
    tampered_block = Block(b0.prev_group_hash, b0.merkle, b0.bookkeeper_key,
                           b0.timestamp, (Transaction(999999),) + b0.txs[1:])
    tampered = BlockGroup(group.header, (tampered_block,) + group.body[1:])
    problems = validate_block_group(tampered, CFG, chain.tip_digest)
    assert any("corrupt" in p or "majority" in p for p in problems)

    # forge a vote signature
    msg0 = header.vote_messages[0]
    forged_vote = BlockVote(msg0.votes[0].block_hash, not msg0.votes[0].approve,
                            msg0.votes[0].voter, msg0.votes[0].signature)
    forged_msg = VoteMessage(msg0.voter, (forged_vote,) + msg0.votes[1:])
    forged_header = header.__class__(header.height, header.leader, header.seed,
                                     header.next_leader, header.tally,
                                     (forged_msg,) + header.vote_messages[1:])
    problems = validate_block_group(BlockGroup(forged_header, group.body),
                                    CFG, chain.tip_digest)
    assert any("signature" in p for p in problems)

    # inflate the tally
    (h0, yes, no), *rest = header.tally
    cooked = header.__class__(header.height, header.leader, header.seed,
                              header.next_leader,
                              ((h0, yes + 1, no - 1), *rest),
                              header.vote_messages)
    problems = validate_block_group(BlockGroup(cooked, group.body),
                                    CFG, chain.tip_digest)
    assert any("tally" in p for p in problems)


def test_chain_rejects_bad_linkage_and_height():
    chain = Chain()
    header, blocks, _ = _round(chain)
    group = assemble_group(header, blocks)
    chain.append(group, CFG)
    with pytest.raises(ChainError):
        chain.append(group, CFG)  # height replay
    # a group built against the old tip no longer links
    stale = assemble_group(
        header.__class__(2, header.leader, header.seed, header.next_leader,
                         header.tally, header.vote_messages), blocks)
    with pytest.raises(ChainError):
        chain.append(stale, CFG)


def test_two_identical_chains_stay_bit_identical():
    a, b = Chain(), Chain()
    assert a.tip_digest == b.tip_digest
    for _ in range(5):
        ha, blocks_a, _ = _round(a)
        hb, blocks_b, _ = _round(b)
        a.append(assemble_group(ha, blocks_a), CFG)
        b.append(assemble_group(hb, blocks_b), CFG)
        assert a.tip_digest == b.tip_digest
        assert (a.height, a.next_leader) == (b.height, b.next_leader)


def test_genesis_shape():
    g = genesis_group(first_leader=2)
    assert g.header.height == 0 and g.body == () and g.header.next_leader == 2
    assert group_digest(g) == group_digest(genesis_group(2))
    assert group_digest(g) != group_digest(genesis_group(3))


def test_node_keys_distinct():
    assert node_pubkey(1) != node_pubkey(2)
    s1 = sign_vote(1, b"\x00" * 32, True)
    s2 = sign_vote(2, b"\x00" * 32, True)
    s3 = sign_vote(1, b"\x00" * 32, False)
    assert len({s1, s2, s3}) == 3


_BLOCK_HASHES = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.integers(0, 40).flatmap(lambda k: st.binary(min_size=2 * k + 1,
                                                   max_size=2 * k + 1)))


@given(voter=st.integers(0, 5000), block_hash=_BLOCK_HASHES,
       approve=st.booleans(), bit=st.integers(0, 255))
def test_vote_signature_matches_plain_hmac(voter, block_hash, approve, bit):
    msg = (b"vote" + block_hash + (b"\x01" if approve else b"\x00")
           + struct.pack(">q", voter))
    sig = sign_vote(voter, block_hash, approve)
    assert sig == hmac.new(_node_secret(voter), msg, hashlib.sha256).digest()
    assert verify_vote_signature(voter, block_hash, approve, sig)
    # a one-bit flip of any signed field or of the signature is refused
    flipped_sig = bytearray(sig)
    flipped_sig[bit // 8] ^= 1 << (bit % 8)
    assert not verify_vote_signature(voter, block_hash, approve,
                                     bytes(flipped_sig))
    flipped_hash = bytearray(block_hash)
    flipped_hash[bit % len(block_hash)] ^= 1 << (bit % 8)
    assert not verify_vote_signature(voter, bytes(flipped_hash), approve, sig)
    assert not verify_vote_signature(voter, block_hash, not approve, sig)
    assert not verify_vote_signature(voter ^ (1 << (bit % 13)), block_hash,
                                     approve, sig)
