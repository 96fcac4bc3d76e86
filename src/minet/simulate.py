"""Deterministic virtual-time simulator of consortium consensus rounds.

Every node owns one full-duplex link: an uplink and a downlink that each
carry one message at a time at `band` bytes per second.  A transfer
grabs the sender's uplink and the receiver's downlink together, so
broadcasts serialize on the sender's uplink and fan-ins serialize on the
receiver's downlink.  Message sizes are nominal accounting values,
`perfmodel.ModelParams`'s defaults; the structures that actually flow
carry real digests and signatures.  A run keeps one chain for all its
nodes: every node starts from the same genesis and appends the same
sealed group, so no two nodes' copies can differ, and one validation
per round stands for every node's.  The chain keeps only its tip, and a
round's blocks and group are dropped once it ends, so a run's memory
does not grow with its round count.

One `_Sim` per run holds the links, the chain and the constants every
round shares (the round's `ConsensusConfig`, the node list, message
sizes and compute delays), and plays each round in one call.  A round
walks four steps, each started only once the previous one is complete:

1. every bookkeeper packs a block and broadcasts it (ring-staggered
   slot order, so concurrent broadcasts never idle a link);
2. every voter validates all blocks and sends one vote message to the
   round leader;
3. the leader tallies, seals the group header, draws the next leader
   from the round's seed, and broadcasts the header;
4. every node assembles the group, validates it, and appends.

Each step is one loop of link reservations.  Links are FIFO in
reservation order, so reserving a step's transfers in the order they
become ready gives each the times an event-driven replay would.  Rounds
are barrier-synchronized: a new round starts once every node has
appended the previous group.  Computation delays come from fitted
per-step curves (see `minet.perfmodel`); virtual time is integer
nanoseconds, so identical configs replay bit-identically.

A crash at round r silences the node from round r onward.  Every node
is that round's leader or one of its voters, so round r stalls: with
"header never sealed" when the leader crashed, else with the voters
whose votes are missing.  A round whose group the chain refuses stalls
too, naming every node as refusing it.  A stalled round ends the run
with a diagnostic — it is flagged, never silently recovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import perfmodel
from .apov import (
    Block,
    Chain,
    ChainError,
    ConsensusConfig,
    TxColumn,
    VoteMessage,
    BlockVote,
    assemble_group,
    cast_validation_votes,
    make_block,
    node_pubkey,
    sign_vote,
    tally_and_seal,
)

FAULT_BEHAVIORS = ("crash_at_round", "invalid_blocks", "dissenting_votes")
COMPUTE_MODELS = ("fitted", "steps-fit", "zero")

NS = 1_000_000_000


class ConfigInvalid(ValueError):
    pass


class UnknownNode(ConfigInvalid):
    pass


@dataclass(frozen=True)
class FaultSpec:
    node: int
    behavior: str
    round: Optional[int] = None     # crash round (crash_at_round only)


@dataclass(frozen=True)
class SimConfig:
    node_count: int = 3
    rounds: int = 1
    seed: int = 0
    band: float = 125e6             # bytes/second per node per direction
    txs_per_block: int = 10_000
    compute_model: str = "fitted"
    leader_in_consortium: bool = False
    first_leader: int = 0
    faults: tuple[FaultSpec, ...] = ()
    # message sizes: perfmodel's defaults, readable here but not settable
    msg_bytes: ClassVar[int] = perfmodel.ModelParams.msg_bytes
    block_header_bytes: ClassVar[int] = perfmodel.ModelParams.block_header_bytes
    tx_bytes: ClassVar[int] = perfmodel.ModelParams.tx_bytes
    vote_header_bytes: ClassVar[int] = perfmodel.ModelParams.vote_header_bytes
    vote_per_block_bytes: ClassVar[int] = perfmodel.ModelParams.vote_per_block_bytes
    result_header_bytes: ClassVar[int] = perfmodel.ModelParams.result_header_bytes
    result_per_block_bytes: ClassVar[int] = perfmodel.ModelParams.result_per_block_bytes

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigInvalid("need at least two nodes")
        if self.rounds < 1:
            raise ConfigInvalid("rounds must be positive")
        if not 1 <= self.band < math.inf:
            raise ConfigInvalid("band must be finite and at least one byte/second")
        if self.txs_per_block <= 0:
            raise ConfigInvalid("txs_per_block must be positive")
        if self.compute_model not in COMPUTE_MODELS:
            raise ConfigInvalid(f"unknown compute model {self.compute_model!r}")
        if not 0 <= self.first_leader < self.node_count:
            raise UnknownNode(f"first_leader {self.first_leader} out of range")
        for f in self.faults:
            if not 0 <= f.node < self.node_count:
                raise UnknownNode(f"fault node {f.node} out of range")
            if f.behavior not in FAULT_BEHAVIORS:
                raise ConfigInvalid(f"unknown fault behavior {f.behavior!r}")
            if f.behavior == "crash_at_round" and (f.round is None or f.round < 1):
                raise ConfigInvalid("crash_at_round needs a positive round")
            if f.behavior != "crash_at_round" and f.round is not None:
                raise ConfigInvalid(f"{f.behavior} takes no round")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    t1: float
    t2: float
    t3: float
    t4: float
    t_cons: float
    committed_txs: int


@dataclass(frozen=True)
class SimSummary:
    node_count: int
    rounds_requested: int
    rounds_completed: int
    total_virtual_seconds: float
    mean_round_seconds: float
    mean_step_seconds: tuple[float, float, float, float]
    committed_total: int
    throughput_txs_per_sec: float
    divergences: int            # one chain per run: always 0
    stalled_round: Optional[int]
    stall_reason: str


@dataclass(frozen=True)
class SimResult:
    rounds: list[RoundMetrics]
    summary: SimSummary


def round_seed(config_seed: int, height: int) -> int:
    """Per-round seed, recorded in the sealed header for re-audit."""
    ss = np.random.SeedSequence([config_seed, height])
    return int(ss.generate_state(1, np.uint64)[0]) & (2**63 - 1)


def _compute_durations_ns(model: str, n: int) -> tuple[int, int, int, int]:
    if model == "zero":
        return 0, 0, 0, 0
    steps = perfmodel.step_computation_fits(n)
    if model == "fitted":
        # rescale the per-step shape so the four steps sum to the
        # whole-round computation share
        scale = perfmodel.residual_computation_time(n) / sum(steps)
        steps = tuple(s * scale for s in steps)
    return tuple(round(s * NS) for s in steps)


class _Sim:
    """One run: its links, its chain and the constants every round
    shares; `round` plays one round."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        n = config.node_count
        self.chain = Chain(config.first_leader)
        self.nodes = list(range(n))
        # n_c counts the voters, whichever node leads
        self.rcfg = ConsensusConfig(
            n_c=n if config.leader_in_consortium else n - 1,
            max_txs=config.txs_per_block)
        self.up_free = [0] * n
        self.down_free = [0] * n
        self.band = int(config.band)
        self.crash_round = {f.node: f.round for f in config.faults
                            if f.behavior == "crash_at_round"}
        self.invalid_nodes = {f.node for f in config.faults
                              if f.behavior == "invalid_blocks"}
        self.dissent_nodes = {f.node for f in config.faults
                              if f.behavior == "dissenting_votes"}
        self.comp_ns = _compute_durations_ns(config.compute_model, n)
        sizes = perfmodel.ModelParams(
            node_count=n, voters=self.rcfg.n_c,
            txs_per_block=config.txs_per_block, band=config.band)
        self.block_bytes = perfmodel.block_message_bytes(sizes)
        self.vote_bytes = perfmodel.vote_message_bytes(sizes)
        self.result_bytes = perfmodel.result_message_bytes(sizes)

    def reserve(self, src: int, dst: int, nbytes: int, ready: int) -> int:
        """Reserve the sender's uplink and the receiver's downlink together
        for one transfer ready at `ready`; return its end time."""
        start = max(ready, self.up_free[src], self.down_free[dst])
        end = start + nbytes * NS // self.band
        self.up_free[src] = end
        self.down_free[dst] = end
        return end

    def round(self, height: int, t0: int
              ) -> tuple[str, Optional[RoundMetrics], int]:
        """Play the round at `height` starting at `t0`; return why it
        stalled ("" once every node stored the group), its metrics and
        its end time (`t0` on a stall)."""
        n, comp, rcfg, nodes = (self.cfg.node_count, self.comp_ns,
                                self.rcfg, self.nodes)
        leader = self.chain.next_leader
        prev = self.chain.tip_digest
        crashed = sorted(x for x, r in self.crash_round.items()
                         if r <= height)
        if leader in crashed:
            return f"leader {leader} silent: header never sealed", None, t0
        if crashed:
            # every node is the leader or a voter, so each crash here is
            # a lost vote
            return (f"IncompleteVotes: leader {leader} holds "
                    f"{rcfg.n_c - len(crashed)} of {rcfg.n_c} "
                    f"vote messages (missing voters {crashed})"), None, t0

        # step 1: every bookkeeper packs a block and broadcasts it
        ready = t0 + comp[0]
        blocks = [self._build_block(b, height, prev, t0) for b in nodes]
        # (end, slot, sender) of the last block each node receives: the
        # order in which the nodes come to hold every block
        last = [(ready, 0, 0)] * n
        # slot-major ring stagger: in slot j every sender pushes to the
        # peer j positions ahead, so each downlink sees at most one
        # transfer per slot and links never idle mid-broadcast
        for j in range(1, n):
            for b in nodes:
                recv = (b + j) % n
                end = self.reserve(b, recv, self.block_bytes, ready)
                last[recv] = (end, j, b)
        t1_end = max(last)[0]

        # step 2: each voter validates every block and votes to the leader
        voters = (nodes if self.cfg.leader_in_consortium
                  else [x for x in nodes if x != leader])
        votes: list[VoteMessage] = []
        t2_end = 0
        for voter in sorted(voters, key=last.__getitem__):
            votes.append(self._vote(voter, blocks, prev))
            ready = last[voter][0] + comp[1]
            # a leader voting in its own round hands its message over
            # locally; no link time is spent
            if voter != leader:
                ready = self.reserve(voter, leader, self.vote_bytes, ready)
            t2_end = max(t2_end, ready)

        # step 3: the leader tallies, seals and broadcasts the header
        t_seal = t2_end + comp[2]
        header = tally_and_seal(leader, votes, blocks, height,
                                round_seed(self.cfg.seed, height), rcfg,
                                eligible=nodes)
        ring = [(leader + j) % n for j in range(1, n)]
        t3_end = t_seal
        for recv in ring:
            t3_end = self.reserve(leader, recv, self.result_bytes, t_seal)

        # step 4: every node appends the group, in header arrival order;
        # all assemble the same group from the same header and blocks onto
        # the same tip, so the run's one chain appends it once for all
        group = assemble_group(header, blocks)
        try:
            self.chain.append(group, rcfg)
        except ChainError as exc:
            return "; ".join(f"node {node} refused group: {exc}"
                             for node in [leader] + ring), None, t0
        end = t3_end + comp[3]
        t1 = (t1_end - t0) / NS
        t2 = (t2_end - t1_end) / NS
        t3 = (t3_end - t2_end) / NS
        t4 = (end - t3_end) / NS
        return "", RoundMetrics(
            height, t1, t2, t3, t4, t1 + t2 + t3 + t4,
            sum(len(b.txs) for b in group.body)), end

    def _build_block(self, bookkeeper: int, height: int, prev: bytes,
                     t0: int) -> Block:
        k = self.cfg.txs_per_block
        base = (height * self.cfg.node_count + bookkeeper) * k
        txs = TxColumn(np.arange(base, base + k, dtype=np.int64),
                       nominal_size=self.cfg.tx_bytes)
        if bookkeeper in self.invalid_nodes:
            # a wrong merkle root, which every validator's recompute refuses
            return Block(prev, b"\xff" * 32, node_pubkey(bookkeeper), t0, txs)
        return make_block(bookkeeper, txs, prev, timestamp=t0,
                          config=self.rcfg)

    def _vote(self, voter: int, blocks: list[Block],
              prev: bytes) -> VoteMessage:
        msg = cast_validation_votes(voter, blocks, prev, self.rcfg)
        if voter in self.dissent_nodes:
            msg = VoteMessage(voter, tuple(
                BlockVote(v.block_hash, not v.approve, v.voter,
                          sign_vote(v.voter, v.block_hash, not v.approve))
                for v in msg.votes))
        return msg


def run_rounds(config: SimConfig) -> SimResult:
    sim = _Sim(config)
    rounds: list[RoundMetrics] = []
    stalled_round: Optional[int] = None
    stall_reason = ""
    clock = 0
    committed_total = 0

    for height in range(1, config.rounds + 1):
        stall_reason, m, clock = sim.round(height, clock)
        if stall_reason:
            stalled_round = height
            break
        rounds.append(m)
        committed_total += m.committed_txs

    total_seconds = clock / NS
    done = len(rounds)
    mean_round = total_seconds / done if done else 0.0
    mean_steps = tuple(
        sum(getattr(m, f"t{i}") for m in rounds) / done if done else 0.0
        for i in (1, 2, 3, 4))
    throughput = committed_total / total_seconds if total_seconds else 0.0
    summary = SimSummary(
        node_count=config.node_count,
        rounds_requested=config.rounds,
        rounds_completed=done,
        total_virtual_seconds=total_seconds,
        mean_round_seconds=mean_round,
        mean_step_seconds=mean_steps,
        committed_total=committed_total,
        throughput_txs_per_sec=throughput,
        divergences=0,
        stalled_round=stalled_round,
        stall_reason=stall_reason,
    )
    return SimResult(rounds=rounds, summary=summary)
