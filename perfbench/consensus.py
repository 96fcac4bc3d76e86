"""consensus: one simulated proof-of-vote round per loop operation.

Every operation calls `simulate.run_rounds` for one round at the workload's
shape, with the faults from spec.json and compute model `zero` over
virtual links, so wall time is processor time only.  The oracle is exact: at zero compute the
virtual round time equals `perfmodel.transmission_total` to the
nanosecond, and every valid bookkeeper's K transactions commit.
"""

from __future__ import annotations

import time

import numpy as np

import minet.apov as apov
import minet.simulate as simulate
from minet import perfmodel

from common import Host, Outcome, SetupError, closed_loop, repeat_setup

OPERATION = "round"
RATE = ("rounds_per_s", "rounds/s")


def span_targets():
    return [(simulate, "run_rounds", "simulate.run_rounds"),
            (simulate, "make_block", "apov.make_block"),
            (simulate, "cast_validation_votes", "apov.cast_votes"),
            (simulate, "sign_vote", "apov.sign_vote"),
            (apov, "sign_vote", "apov.sign_vote"),
            (simulate, "tally_and_seal", "apov.tally_and_seal"),
            (simulate, "assemble_group", "apov.assemble_group"),
            (apov.Chain, "append", "apov.chain_append")]


def sim_config(shape: dict, leader: int, seed: int) -> simulate.SimConfig:
    faults = tuple(simulate.FaultSpec(node, behavior)
                   for node, behavior in shape["faults"])
    return simulate.SimConfig(node_count=shape["n"], rounds=1, seed=seed,
                              txs_per_block=shape["K"],
                              compute_model=shape["compute_model"],
                              band=shape["band_bytes_per_s"],
                              first_leader=leader, faults=faults)


def oracle(cfg: simulate.SimConfig) -> tuple[int, int]:
    """Virtual round time in ns and committed transactions of one round."""
    params = perfmodel.ModelParams(
        node_count=cfg.node_count, bookkeepers=cfg.node_count,
        voters=cfg.node_count - 1, msg_bytes=cfg.msg_bytes,
        block_header_bytes=cfg.block_header_bytes, tx_bytes=cfg.tx_bytes,
        txs_per_block=cfg.txs_per_block,
        vote_header_bytes=cfg.vote_header_bytes,
        vote_per_block_bytes=cfg.vote_per_block_bytes,
        result_header_bytes=cfg.result_header_bytes,
        result_per_block_bytes=cfg.result_per_block_bytes, band=cfg.band)
    invalid = {f.node for f in cfg.faults if f.behavior == "invalid_blocks"}
    return (round(perfmodel.transmission_total(params) * simulate.NS),
            cfg.txs_per_block * (cfg.node_count - len(invalid)))


def problems(summary: simulate.SimSummary, expect: tuple[int, int]) -> list[str]:
    virtual_ns, committed = expect
    out = []
    if summary.stalled_round is not None:
        out.append("stall")
    if summary.divergences:
        out.append("divergence")
    if summary.committed_total != committed:
        out.append("committed")
    if round(summary.total_virtual_seconds * simulate.NS) != virtual_ns:
        out.append("virtual_time")
    return out


def run(shape: dict, seed: int, seconds: float, tracer,
        host: Host) -> Outcome:
    n = shape["n"]
    draws = np.random.default_rng([seed, 3])

    def warm_up():
        # one checked round at the measured shape, off the measured stream
        cfg = sim_config(shape, 0, seed)
        found = problems(simulate.run_rounds(cfg).summary, oracle(cfg))
        if found:
            raise SetupError(f"warm-up round failed: {found}")

    _, setup_s = repeat_setup(warm_up, shape["setup_reps"], tracer, host)
    spans = {"setup": tracer.take()}
    window = shape["window"]
    latency = []
    failures: dict[str, int] = {}
    win = dict(virtual_ns=0, committed=0, failed=0)
    failed = 0

    def step(i: int) -> None:
        nonlocal failed
        cfg = sim_config(shape, int(draws.integers(n)),
                         int(draws.integers(2**62)))
        t0 = time.perf_counter()
        summary = simulate.run_rounds(cfg).summary
        latency.append(time.perf_counter() - t0)
        idx = tracer.begin("bench.check")
        found = problems(summary, oracle(cfg))
        tracer.end(idx)
        for kind in found:
            failures[kind] = failures.get(kind, 0) + 1
        failed += bool(found)
        if i < window:
            win["virtual_ns"] += round(summary.total_virtual_seconds
                                       * simulate.NS)
            win["committed"] += summary.committed_total
            win["failed"] += bool(found)

    rounds, loop_s, rss = closed_loop(step, seconds, window, tracer, host)
    spans["loop"] = tracer.take()
    return Outcome(
        setup_s=setup_s, latency_s=latency, work=rounds, named={},
        counts={"simulate.virtual_round_s":
                win["virtual_ns"] / window / simulate.NS,
                "committed_in_window": win["committed"],
                "failed_in_window": win["failed"]},
        per={"rounds": rounds},
        attempted=rounds, rss_mib=rss, failures=failures, failed=failed,
        loop_s=loop_s, spans=spans)
