"""Consensus core: vote tallies, sealing, serialization, chain linkage."""

import hashlib
import itertools

import pytest

from minet.apov import (
    Block,
    BlockGroup,
    BlockVote,
    Chain,
    ChainError,
    ConfidenceVote,
    ConsensusConfig,
    GENESIS_HASH,
    IncompleteVotes,
    NotEnoughCandidates,
    TooManyTransactions,
    Transaction,
    VoteMessage,
    append_block_group,
    assemble_group,
    block_digest,
    cast_validation_votes,
    decode_block_group,
    default_validity,
    elect_bookkeepers,
    encode_block_group,
    genesis_group,
    group_digest,
    make_block,
    merkle_root,
    node_pubkey,
    read_chain,
    sign_vote,
    tally_and_seal,
    validate_block_group,
)

CFG = ConsensusConfig(n_b=4, n_c=3, n_bc=2, max_txs=100)


def _txs(start, count):
    return [Transaction(i, payload=b"p%d" % i) for i in range(start, start + count)]


def _round(chain: Chain, cfg=CFG, *, corrupt_block=None, dissent=()):
    """Run one full round against `chain` and return (header, blocks, votes)."""
    prev = chain.tip_digest
    height = chain.height + 1
    blocks = []
    for b in range(cfg.n_b):
        txs = _txs(1000 * height + 100 * b, 5)
        block = make_block(b, txs, prev, timestamp=height, config=cfg)
        if corrupt_block == b:
            block = Block(block.prev_group_hash, hashlib.sha256(b"x").digest(),
                          block.bookkeeper_key, block.timestamp, block.txs)
        blocks.append(block)
    policy = default_validity(prev, cfg)
    votes = []
    for voter in range(cfg.n_c):
        msg = cast_validation_votes(voter, blocks, policy)
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


def test_full_round_seals_and_appends():
    chain = Chain(first_leader=1)
    header, blocks, _ = _round(chain)
    assert header.leader == 1
    assert all(yes == CFG.n_c and no == 0 for _, yes, no in header.tally)
    group = assemble_group(header, blocks)
    assert len(group.body) == CFG.n_b
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
    assert len(group.body) == CFG.n_b - 1
    assert bad_hash not in [block_digest(b) for b in group.body]
    assert validate_block_group(group, CFG, chain.tip_digest) == []
    chain.append(group, CFG)


def test_majority_boundaries():
    # n_c=3: 2 approvals pass, 1 fails; n_c=4: 3 pass, 2 fail (strict majority)
    assert ConsensusConfig(n_b=1, n_c=3).majority(2)
    assert not ConsensusConfig(n_b=1, n_c=3).majority(1)
    assert ConsensusConfig(n_b=1, n_c=4).majority(3)
    assert not ConsensusConfig(n_b=1, n_c=4).majority(2)
    chain = Chain()
    header, blocks, _ = _round(chain, dissent=(0,))       # 2 of 3 approve
    group = assemble_group(header, blocks)
    assert len(group.body) == CFG.n_b
    header2, blocks2, _ = _round(chain, dissent=(0, 2))   # 1 of 3 approve
    group2 = assemble_group(header2, blocks2)
    assert group2.body == ()
    assert validate_block_group(group2, CFG, chain.tip_digest) == []


def test_tally_requires_total_coverage():
    chain = Chain()
    prev = chain.tip_digest
    blocks = [make_block(b, _txs(100 * b, 3), prev, 1, CFG) for b in range(CFG.n_b)]
    policy = default_validity(prev, CFG)
    votes = [cast_validation_votes(v, blocks, policy) for v in range(CFG.n_c)]
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
    blocks = [make_block(b, _txs(100 * b, 3), prev, 1, CFG) for b in range(CFG.n_b)]
    policy = default_validity(prev, CFG)
    votes = [cast_validation_votes(v, blocks, policy) for v in range(CFG.n_c)]
    headers = set()
    for perm in itertools.permutations(votes):
        h = tally_and_seal(0, list(perm), blocks, 1, 42, CFG, [0, 1, 2])
        headers.add(group_digest(BlockGroup(h, ())))
    assert len(headers) == 1
    h1 = tally_and_seal(0, votes, blocks, 1, 42, CFG, [0, 1, 2])
    h2 = tally_and_seal(0, votes, blocks, 1, 42, CFG, [0, 1, 2])
    assert encode_block_group(BlockGroup(h1, tuple(blocks))) == \
        encode_block_group(BlockGroup(h2, tuple(blocks)))
    h3 = tally_and_seal(0, votes, blocks, 1, 43, CFG, [0, 1, 2])
    assert h3.seed == 43 and h1.seed == 42


def test_serialization_round_trip():
    chain = Chain()
    header, blocks, _ = _round(chain)
    group = assemble_group(header, blocks)
    buf = encode_block_group(group)
    again = decode_block_group(buf)
    assert again == group
    assert group_digest(again) == group_digest(group)


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


def test_shared_validation_refuses_what_direct_validation_refuses():
    header, blocks, _ = _round(Chain(), dissent=(0,))
    good = assemble_group(header, blocks)
    b0 = good.body[0]
    tampered_block = Block(b0.prev_group_hash, b0.merkle, b0.bookkeeper_key,
                           b0.timestamp, (Transaction(999999),) + b0.txs[1:])
    wider = ConsensusConfig(n_b=4, n_c=4, n_bc=2, max_txs=100)
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
    for _ in range(5):
        ha, blocks_a, _ = _round(a)
        hb, blocks_b, _ = _round(b)
        a.append(assemble_group(ha, blocks_a), CFG)
        b.append(assemble_group(hb, blocks_b), CFG)
    assert a.digests == b.digests


def test_election_ranking_and_errors():
    votes = [ConfidenceVote(voter, cand)
             for voter, cands in {10: [1, 2, 3], 11: [2, 3], 12: [3], 13: [3, 9]}.items()
             for cand in cands]
    # scores: 3 -> 4, 2 -> 2, 1 -> 1, rest 0; candidate 9 not in roster
    ranked = elect_bookkeepers([1, 2, 3, 4, 5], votes, 4)
    assert ranked == [3, 2, 1, 4]
    # duplicate (voter, candidate) pairs count once
    ranked2 = elect_bookkeepers([1, 2], votes + [ConfidenceVote(10, 1)] * 5, 2)
    assert ranked2 == [1, 2] or ranked2 == [2, 1]
    assert set(ranked2) == {1, 2}
    with pytest.raises(NotEnoughCandidates):
        elect_bookkeepers([1, 2], votes, 3)


def test_election_input_order_invariance():
    votes = [ConfidenceVote(v, c) for v in range(6) for c in ((1, 4) if v < 4 else (2,))]
    base = elect_bookkeepers([1, 2, 3, 4], votes, 3)
    for perm in itertools.permutations(votes[:4]):
        assert elect_bookkeepers([1, 2, 3, 4], list(perm) + votes[4:], 3) == base
    # tie between 1 and 4 breaks toward the lower id
    assert base == [1, 4, 2]


def test_chain_file_round_trip(tmp_path):
    chain = Chain()
    path = tmp_path / "chain.bin"
    append_block_group(path, chain.groups[0])
    for _ in range(3):
        header, blocks, _ = _round(chain)
        group = assemble_group(header, blocks)
        chain.append(group, CFG)
        append_block_group(path, group)
    loaded = read_chain(path)
    assert loaded == chain.groups
    replay = Chain()
    for g in loaded[1:]:
        replay.append(g, CFG)
    assert replay.digests == chain.digests


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
