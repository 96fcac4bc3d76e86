"""Deterministic virtual-time simulator of consortium consensus rounds.

Every node owns one full-duplex link: an uplink and a downlink that each
carry one message at a time at `band` bytes per second.  A transfer
grabs the sender's uplink and the receiver's downlink together, so
broadcasts serialize on the sender's uplink and fan-ins serialize on the
receiver's downlink.  Message sizes are nominal accounting values from
the size parameters; the structures that actually flow carry real
digests and signatures so chain agreement is checked end to end.

A round walks four steps, each gated on message completeness:

1. every bookkeeper packs a block and broadcasts it (ring-staggered
   slot order, so concurrent broadcasts never idle a link);
2. every voter validates all blocks and sends one vote message to the
   round leader;
3. the leader tallies, seals the group header, draws the next leader
   from the round's seed, and broadcasts the header;
4. every node assembles the group, validates it, and appends.

Rounds are barrier-synchronized: a new round starts once every live
node has appended the previous group.  Computation delays come from
fitted per-step curves (see `minet.perfmodel`); virtual time is integer
nanoseconds, so identical configs replay bit-identically.

A crash is a mid-round failure: the node's block for its crash round
was already queued when it died, but its voting, sealing, and storing
duties are lost from that round onward, and later rounds see nothing
from it at all.  Any step left incomplete stalls the round with a
diagnostic — the round is flagged, never silently recovered.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Callable, Optional

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
    round: Optional[int] = None     # first affected round (crash only)


@dataclass(frozen=True)
class SimConfig:
    node_count: int = 3
    rounds: int = 1
    seed: int = 0
    band: float = 125e6             # bytes/second per node per direction
    msg_bytes: int = 266
    block_header_bytes: int = 692
    tx_bytes: int = 40
    txs_per_block: int = 10_000
    vote_header_bytes: int = 400
    vote_per_block_bytes: int = 100
    result_header_bytes: int = 170
    result_per_block_bytes: int = 400
    compute_model: str = "fitted"
    leader_in_consortium: bool = False
    first_leader: int = 0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigInvalid("need at least two nodes")
        if self.rounds < 1:
            raise ConfigInvalid("rounds must be positive")
        if self.band < 1:
            raise ConfigInvalid("band must be at least one byte/second")
        for name in ("msg_bytes", "block_header_bytes", "tx_bytes",
                     "txs_per_block", "vote_header_bytes",
                     "vote_per_block_bytes", "result_header_bytes",
                     "result_per_block_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"{name} must be positive")
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

    @staticmethod
    def from_dict(data: dict) -> "SimConfig":
        payload = dict(data)
        faults = tuple(FaultSpec(**f) for f in payload.pop("faults", []))
        return SimConfig(faults=faults, **payload)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["faults"] = [dataclasses.asdict(f) for f in self.faults]
        return out


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    t1: float
    t2: float
    t3: float
    t4: float
    t_cons: float
    committed_txs: int
    forked: bool


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
    divergences: int
    stalled_round: Optional[int]
    stall_reason: str


@dataclass(frozen=True)
class SimResult:
    rounds: list[RoundMetrics]
    summary: SimSummary


def inject_fault(config: SimConfig, fault: FaultSpec) -> SimConfig:
    return dataclasses.replace(config, faults=config.faults + (fault,))


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


class _Round:
    """One consensus round driven by a timed-event priority queue."""

    def __init__(self, sim: "_Sim", height: int, t0: int):
        self.sim = sim
        self.cfg = sim.cfg
        self.height = height
        self.t0 = t0
        n = self.cfg.node_count
        self.leader = sim.chains[0].next_leader
        self.alive = [x for x in range(n) if not sim.silent_for_round(x, height)]
        self.producers = [x for x in range(n)
                          if not sim.silent_for_blocks(x, height)]
        if self.cfg.leader_in_consortium:
            self.consortium = list(range(n))
        else:
            self.consortium = [x for x in range(n) if x != self.leader]
        self.rcfg = ConsensusConfig(n_c=len(self.consortium),
                                    max_txs=self.cfg.txs_per_block)
        self.prev_digest = sim.chains[0].tip_digest

        self.heap: list = []
        self.seq = 0
        self.blocks_held: dict[int, dict[int, Block]] = {x: {} for x in range(n)}
        self.all_blocks_t: dict[int, int] = {}
        self.votes: list[VoteMessage] = []
        self.votes_seen: set[int] = set()
        self.votes_complete_t: Optional[int] = None
        self.header = None
        self.header_t: dict[int, int] = {}
        self.finish_t: dict[int, int] = {}
        self.committed = 0
        self.refusals: list[str] = []

    # -- engine ------------------------------------------------------------

    def push(self, t: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self.heap, (t, self.seq, fn))
        self.seq += 1

    def transfer(self, src: int, dst: int, nbytes: int, ready: int,
                 fn: Callable[[int], None]) -> None:
        """Reserve both link ends, deliver at the transfer's end time."""
        start = max(ready, self.sim.up_free[src], self.sim.down_free[dst])
        end = start + nbytes * NS // self.sim.band
        self.sim.up_free[src] = end
        self.sim.down_free[dst] = end
        self.push(end, lambda: fn(end))

    def run(self) -> None:
        self._start_step1()
        while self.heap:
            _, _, fn = heapq.heappop(self.heap)
            fn()

    # -- step 1: block production and broadcast ------------------------------

    def _start_step1(self) -> None:
        comp1 = self.sim.comp_ns[0]
        ready = self.t0 + comp1
        blocks: dict[int, Block] = {}
        for b in self.producers:
            blocks[b] = self._build_block(b)
            self._take_block(b, b, blocks[b], ready)
        n = self.cfg.node_count
        # slot-major ring stagger: in slot j every live sender pushes to
        # the peer j+1 positions ahead, so each downlink sees at most one
        # transfer per slot and links never idle mid-broadcast
        for j in range(1, n):
            for b, block in blocks.items():
                recv = (b + j) % n
                self.transfer(b, recv, self.sim.block_bytes, ready,
                              lambda t, b=b, recv=recv, block=block:
                              self._take_block(recv, b, block, t))

    def _build_block(self, bookkeeper: int) -> Block:
        k = self.cfg.txs_per_block
        base = (self.height * self.cfg.node_count + bookkeeper) * k
        txs = TxColumn(np.arange(base, base + k, dtype=np.int64),
                       nominal_size=self.cfg.tx_bytes)
        block = make_block(bookkeeper, txs, self.prev_digest,
                           timestamp=self.t0, config=self.rcfg)
        if self.sim.invalid_nodes and bookkeeper in self.sim.invalid_nodes:
            block = Block(block.prev_group_hash,
                          b"\xff" * 32, block.bookkeeper_key,
                          block.timestamp, block.txs)
        return block

    def _take_block(self, node: int, sender: int, block: Block, t: int) -> None:
        held = self.blocks_held[node]
        held[sender] = block
        if len(held) != self.cfg.node_count or node in self.all_blocks_t:
            return
        self.all_blocks_t[node] = t
        if node in self.consortium and node in self.alive:
            self.push(t + self.sim.comp_ns[1],
                      lambda node=node: self._send_vote(node))

    # -- step 2: voting ------------------------------------------------------

    def _ordered_blocks(self, node: int) -> list[Block]:
        held = self.blocks_held[node]
        return [held[b] for b in sorted(held)]

    def _send_vote(self, voter: int) -> None:
        msg = cast_validation_votes(voter, self._ordered_blocks(voter),
                                    self.prev_digest, self.rcfg)
        if voter in self.sim.dissent_nodes:
            msg = VoteMessage(voter, tuple(
                BlockVote(v.block_hash, not v.approve, v.voter,
                          sign_vote(v.voter, v.block_hash, not v.approve))
                for v in msg.votes))
        ready = self.all_blocks_t[voter] + self.sim.comp_ns[1]
        if voter == self.leader:
            # a leader voting in its own round hands its message over
            # locally; no link time is spent
            self.push(ready, lambda: self._take_vote(msg, ready))
        else:
            self.transfer(voter, self.leader, self.sim.vote_bytes, ready,
                          lambda t, msg=msg: self._take_vote(msg, t))

    def _take_vote(self, msg: VoteMessage, t: int) -> None:
        if self.leader not in self.alive:
            return
        if msg.voter in self.votes_seen:
            return
        self.votes_seen.add(msg.voter)
        self.votes.append(msg)
        if len(self.votes) == self.rcfg.n_c:
            self.votes_complete_t = t
            self.push(t + self.sim.comp_ns[2], self._seal)

    # -- step 3: seal and result broadcast ------------------------------------

    def _seal(self) -> None:
        t_seal = self.votes_complete_t + self.sim.comp_ns[2]
        seed = round_seed(self.cfg.seed, self.height)
        self.header = tally_and_seal(
            self.leader, self.votes, self._ordered_blocks(self.leader),
            self.height, seed, self.rcfg,
            eligible=list(range(self.cfg.node_count)))
        self.header_t[self.leader] = t_seal
        self.push(t_seal + self.sim.comp_ns[3],
                  lambda: self._finish(self.leader, t_seal))
        n = self.cfg.node_count
        for j in range(1, n):
            recv = (self.leader + j) % n
            self.transfer(self.leader, recv, self.sim.result_bytes, t_seal,
                          lambda t, recv=recv: self._take_header(recv, t))

    def _take_header(self, node: int, t: int) -> None:
        if node not in self.alive:
            return
        self.header_t[node] = t
        self.push(t + self.sim.comp_ns[3], lambda: self._finish(node, t))

    # -- step 4: assemble, validate, append --------------------------------------

    def _finish(self, node: int, header_t: int) -> None:
        group = assemble_group(self.header, self._ordered_blocks(node))
        try:
            self.sim.chains[node].append(group, self.rcfg)
        except ChainError as exc:
            self.refusals.append(f"node {node} refused group: {exc}")
            return
        self.finish_t[node] = header_t + self.sim.comp_ns[3]
        if node == 0 or (0 not in self.alive and node == min(self.alive)):
            self.committed = sum(len(b.txs) for b in group.body)

    # -- outcome -------------------------------------------------------------

    def complete(self) -> bool:
        return not self.refusals and all(x in self.finish_t for x in self.alive)

    def metrics(self) -> RoundMetrics:
        t1_end = max(self.all_blocks_t[x] for x in self.alive)
        t2_end = self.votes_complete_t
        t3_end = max(self.header_t[x] for x in self.alive)
        t4_end = max(self.finish_t[x] for x in self.alive)
        t1 = (t1_end - self.t0) / NS
        t2 = (t2_end - t1_end) / NS
        t3 = (t3_end - t2_end) / NS
        t4 = (t4_end - t3_end) / NS
        tips = {self.sim.chains[x].tip_digest for x in self.alive}
        return RoundMetrics(self.height, t1, t2, t3, t4, t1 + t2 + t3 + t4,
                            self.committed, forked=len(tips) > 1)

    def end_time(self) -> int:
        return max(self.finish_t.values())

    def diagnose(self) -> str:
        n = self.cfg.node_count
        incomplete = [x for x in self.alive if len(self.blocks_held[x]) < n]
        if incomplete:
            missing = sorted(set(range(n)) - set(self.producers))
            held = len(self.blocks_held[incomplete[0]])
            return (f"step 1 incomplete: node {incomplete[0]} holds {held} of "
                    f"{n} blocks (silent bookkeepers {missing})")
        if self.leader not in self.alive:
            return f"leader {self.leader} silent: header never sealed"
        if len(self.votes) < self.rcfg.n_c:
            missing = sorted(set(self.consortium) - self.votes_seen)
            return (f"IncompleteVotes: leader {self.leader} holds "
                    f"{len(self.votes)} of {self.rcfg.n_c} vote messages "
                    f"(missing voters {missing})")
        if self.refusals:
            return "; ".join(self.refusals)
        waiting = sorted(set(self.alive) - set(self.finish_t))
        return f"step 4 incomplete: nodes {waiting} never stored the group"


class _Sim:
    def __init__(self, config: SimConfig):
        self.cfg = config
        n = config.node_count
        self.chains = [Chain(config.first_leader) for _ in range(n)]
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
            node_count=n,
            bookkeepers=n,
            voters=n if config.leader_in_consortium else n - 1,
            msg_bytes=config.msg_bytes,
            block_header_bytes=config.block_header_bytes,
            tx_bytes=config.tx_bytes,
            txs_per_block=config.txs_per_block,
            vote_header_bytes=config.vote_header_bytes,
            vote_per_block_bytes=config.vote_per_block_bytes,
            result_header_bytes=config.result_header_bytes,
            result_per_block_bytes=config.result_per_block_bytes,
            band=config.band)
        self.block_bytes = perfmodel.block_message_bytes(sizes)
        self.vote_bytes = perfmodel.vote_message_bytes(sizes)
        self.result_bytes = perfmodel.result_message_bytes(sizes)

    def silent_for_round(self, node: int, height: int) -> bool:
        """Voting/sealing/storing lost from the crash round onward."""
        r = self.crash_round.get(node)
        return r is not None and height >= r

    def silent_for_blocks(self, node: int, height: int) -> bool:
        """The crash-round block was already queued; later ones are not."""
        r = self.crash_round.get(node)
        return r is not None and height > r


def run_rounds(config: SimConfig) -> SimResult:
    sim = _Sim(config)
    rounds: list[RoundMetrics] = []
    divergences = 0
    stalled_round: Optional[int] = None
    stall_reason = ""
    clock = 0
    committed_total = 0

    for height in range(1, config.rounds + 1):
        rnd = _Round(sim, height, clock)
        rnd.run()
        if not rnd.complete():
            stalled_round = height
            stall_reason = rnd.diagnose()
            break
        m = rnd.metrics()
        rounds.append(m)
        committed_total += m.committed_txs
        if m.forked:
            divergences += 1
        clock = rnd.end_time()

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
        divergences=divergences,
        stalled_round=stalled_round,
        stall_reason=stall_reason,
    )
    return SimResult(rounds=rounds, summary=summary)
