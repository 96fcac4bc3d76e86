"""Round simulator: closed-form agreement, replay, faults, determinism."""

import pytest

from minet import apov, perfmodel
from minet.simulate import (
    ConfigInvalid,
    FaultSpec,
    SimConfig,
    UnknownNode,
    inject_fault,
    round_seed,
    run_rounds,
)


def _small(n=4, rounds=3, k=25, **kw):
    return SimConfig(node_count=n, rounds=rounds, txs_per_block=k, **kw)


def test_zero_compute_matches_structural_transmission_exactly():
    for n in (3, 5, 8, 16, 32, 64, 128):
        cfg = SimConfig(node_count=n, rounds=1, txs_per_block=100,
                        compute_model="zero")
        m = run_rounds(cfg).rounds[0]
        p = perfmodel.ModelParams(node_count=n, txs_per_block=100)
        e1, e2, e3 = perfmodel.transmission_times(p)
        assert m.t1 == e1
        assert m.t2 == e2
        assert m.t3 == e3
        assert m.t4 == 0.0
        assert m.t_cons == m.t1 + m.t2 + m.t3 + m.t4


def test_each_sealed_group_is_validated_once_per_round(monkeypatch):
    checked = 0
    verify = apov.verify_vote_signature

    def counting(*args):
        nonlocal checked
        checked += 1
        return verify(*args)

    monkeypatch.setattr(apov, "verify_vote_signature", counting)
    n = 8
    res = run_rounds(_small(n=n, rounds=2, k=10))
    assert res.summary.rounds_completed == 2
    n_b, n_c = n, n - 1
    assert checked == 2 * n_c * n_b


def test_step_additivity_and_fault_free_invariants():
    cfg = _small(n=5, rounds=4, k=30)
    res = run_rounds(cfg)
    assert len(res.rounds) == 4
    for m in res.rounds:
        assert m.t_cons == m.t1 + m.t2 + m.t3 + m.t4
        assert m.committed_txs == 30 * 5          # every block commits
        assert not m.forked
    s = res.summary
    assert s.divergences == 0 and s.stalled_round is None
    assert s.committed_total == 4 * 30 * 5
    assert s.throughput_txs_per_sec == pytest.approx(
        s.committed_total / s.total_virtual_seconds)
    assert s.mean_round_seconds == pytest.approx(
        sum(m.t_cons for m in res.rounds) / 4, rel=1e-12)


def test_reference_replay_round_time_within_10pct():
    for n in (3, 8):
        res = run_rounds(SimConfig(node_count=n, rounds=1))
        m = res.rounds[0]
        ref_round = perfmodel.REFERENCE_TIMINGS[n][4]
        ref_tput = perfmodel.REFERENCE_TIMINGS[n][5]
        assert m.t_cons == pytest.approx(ref_round, rel=0.10)
        assert res.summary.throughput_txs_per_sec == pytest.approx(
            ref_tput, rel=0.10)
        assert m.committed_txs == 10_000 * n


def test_steps_fit_compute_model_runs_hotter_than_reference():
    # the raw per-step fits deliberately sum above the measured round;
    # this model choice is exposed but is not the default
    res = run_rounds(SimConfig(node_count=5, rounds=1,
                               compute_model="steps-fit"))
    assert res.rounds[0].t_cons > perfmodel.REFERENCE_TIMINGS[5][4] * 1.10


def test_determinism_bit_identical():
    a = run_rounds(_small(seed=9))
    b = run_rounds(_small(seed=9))
    assert a == b
    # the seed steers leader draws and chain content, not step timing:
    # a symmetric topology yields the same metrics under any leader
    c = run_rounds(_small(seed=10))
    assert [m.t_cons for m in c.rounds] == [m.t_cons for m in a.rounds]
    d = run_rounds(_small(k=26))
    assert d.summary.committed_total != a.summary.committed_total


def test_no_divergence_across_many_rounds():
    res = run_rounds(_small(n=4, rounds=120, k=10, seed=5))
    assert res.summary.rounds_completed == 120
    assert res.summary.divergences == 0


def test_crashed_voter_stalls_round_with_incomplete_votes():
    base = _small(n=6, rounds=5, k=10, seed=3)
    crash = inject_fault(base, FaultSpec(node=2, behavior="crash_at_round",
                                         round=3))
    res = run_rounds(crash)
    assert res.summary.stalled_round == 3
    assert res.summary.rounds_completed == 2
    reason = res.summary.stall_reason
    assert "IncompleteVotes" in reason or "leader" in reason
    # rounds before the crash are untouched
    clean = run_rounds(base)
    assert res.rounds == clean.rounds[:2]


def test_crashed_leader_reported():
    base = _small(n=4, rounds=3, k=10, first_leader=1)
    res = run_rounds(inject_fault(
        base, FaultSpec(node=1, behavior="crash_at_round", round=1)))
    assert res.summary.stalled_round == 1
    assert "leader 1 silent" in res.summary.stall_reason


def test_crash_in_later_round_stalls_step1():
    # the crash round itself may stall on votes; if the crashed node were
    # only a bookkeeper its absence shows up one round later as missing
    # blocks — force that path by crashing the round-2 leader's voter...
    # simplest observable: a crash at round 1 of a node that happens to be
    # the leader stalls step 3; all other crashes stall at votes. Missing
    # blocks are reported when a round starts after a crash round.
    base = _small(n=4, rounds=4, k=10)
    res = run_rounds(inject_fault(
        base, FaultSpec(node=3, behavior="crash_at_round", round=2)))
    assert res.summary.stalled_round in (2, 3)
    assert res.summary.stall_reason


def test_invalid_blocks_bookkeeper_excluded_every_round():
    base = _small(n=6, rounds=6, k=10, seed=2)
    res = run_rounds(inject_fault(base,
                                  FaultSpec(node=1, behavior="invalid_blocks")))
    assert res.summary.rounds_completed == 6
    assert res.summary.stalled_round is None
    for m in res.rounds:
        assert m.committed_txs == 10 * (6 - 1)    # its block never commits
        assert not m.forked
    assert res.summary.divergences == 0


def test_dissenting_votes_outvoted_by_honest_majority():
    base = _small(n=6, rounds=5, k=10, seed=2)
    res = run_rounds(inject_fault(base,
                                  FaultSpec(node=4,
                                            behavior="dissenting_votes")))
    assert res.summary.rounds_completed == 5
    for m in res.rounds:
        assert m.committed_txs == 10 * 6          # dissent changes no outcome
    assert res.summary.divergences == 0


def test_leader_in_consortium_mode_completes():
    res = run_rounds(_small(n=4, rounds=3, k=10, leader_in_consortium=True))
    assert res.summary.rounds_completed == 3
    assert res.summary.divergences == 0
    assert all(m.committed_txs == 10 * 4 for m in res.rounds)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SimConfig(node_count=1)
    with pytest.raises(ConfigInvalid):
        SimConfig(rounds=0)
    with pytest.raises(ConfigInvalid):
        SimConfig(band=0)
    with pytest.raises(ConfigInvalid):
        SimConfig(compute_model="nope")
    with pytest.raises(UnknownNode):
        SimConfig(first_leader=7)
    with pytest.raises(UnknownNode):
        inject_fault(SimConfig(), FaultSpec(node=9, behavior="invalid_blocks"))
    with pytest.raises(ConfigInvalid):
        inject_fault(SimConfig(), FaultSpec(node=0, behavior="weird"))
    with pytest.raises(ConfigInvalid):
        inject_fault(SimConfig(), FaultSpec(node=0, behavior="crash_at_round"))


def test_config_dict_round_trip():
    cfg = inject_fault(_small(seed=4),
                       FaultSpec(node=1, behavior="crash_at_round", round=2))
    assert SimConfig.from_dict(cfg.as_dict()) == cfg


def test_round_seed_varies_by_height_and_config_seed():
    assert round_seed(42, 1) == round_seed(42, 1)
    assert round_seed(42, 1) != round_seed(42, 2)
    assert round_seed(43, 1) != round_seed(42, 1)
    assert 0 <= round_seed(7, 3) < 2**63
