"""Analytic model: structural vs fitted families, identities, scaling."""

import math

import pytest

from minet.perfmodel import (
    REFERENCE_TIMINGS,
    ModelError,
    ModelParams,
    block_message_bytes,
    consensus_time_fit,
    fitted_transmission_mb,
    fitted_transmission_time,
    printed_residual_poly,
    residual_computation_time,
    result_message_bytes,
    scaled_computation_time,
    scaled_consensus_time,
    step_computation_fits,
    sweep_grid,
    throughput_limit,
    transmission_coefficient_report,
    transmission_times,
    transmission_total,
    vote_message_bytes,
)


def test_structural_message_sizes_prototype():
    p = ModelParams(node_count=3)
    assert block_message_bytes(p) == 266 + 692 + 40 * 10_000 == 400_958
    assert vote_message_bytes(p) == 266 + 400 + 3 * 100 == 966
    assert result_message_bytes(p) == 266 + 170 + 3 * 400 + 2 * (400 + 300) == 3036


def test_structural_transmission_hand_values():
    p = ModelParams(node_count=3)
    t1, t2, t3 = transmission_times(p)
    assert t1 == pytest.approx(2 * 400_958 / 125e6, rel=0, abs=0)
    assert t2 == pytest.approx(2 * 966 / 125e6, rel=0, abs=0)
    assert t3 == pytest.approx(2 * 3036 / 125e6, rel=0, abs=0)
    # additivity is exact, not approximate, at any bandwidth
    assert transmission_total(p) == t1 + t2 + t3
    wide = ModelParams(node_count=5, band=250e6)
    assert transmission_total(wide) == sum(transmission_times(wide))


def test_fitted_round_time_hand_value():
    assert consensus_time_fit(3) == pytest.approx(0.1326288, rel=1e-9)
    assert fitted_transmission_time(3) == pytest.approx(0.0052192, rel=1e-9)
    assert residual_computation_time(3) == pytest.approx(0.1274096, rel=1e-9)


def test_round_fit_tracks_reference_measurements_within_5pct():
    for n, row in REFERENCE_TIMINGS.items():
        measured_round = row[4]
        assert consensus_time_fit(n) == pytest.approx(measured_round, rel=0.05)


def test_residual_identity_is_exact():
    for n in range(3, 60):
        lhs = residual_computation_time(n)
        rhs = consensus_time_fit(n) - fitted_transmission_time(n, 125e6)
        assert lhs == rhs  # same expression by construction
        assert printed_residual_poly(n) == pytest.approx(lhs, rel=1e-12)


def test_scaling_surcharge_matches_step_fits():
    # the printed surcharge ratio equals (step3 + common) / (n * common)
    # where common = step1 + step2 + step4
    for n in range(3, 40):
        c1, c2, c3, c4 = step_computation_fits(n)
        common = c1 + c2 + c4
        derived = 1.0 + (c3 + common) / (n * common)
        printed = scaled_computation_time(n, 1.0) / residual_computation_time(n)
        assert printed == pytest.approx(derived, rel=1e-12)


def test_scaled_computation_hand_values():
    assert scaled_computation_time(3, 1.0) == pytest.approx(0.18025350, rel=1e-7)
    assert scaled_consensus_time(3, 1.0, 125e6) == pytest.approx(0.18547270, rel=1e-7)
    # the round is scaled computation plus fitted transmission
    assert scaled_consensus_time(5, 2.0, 250e6) == pytest.approx(
        scaled_computation_time(5, 2.0) + fitted_transmission_time(5, 250e6))
    # doubling compute speed exactly halves the computation share
    for n in (3, 10, 50):
        assert scaled_computation_time(n, 2.0) == scaled_computation_time(n, 1.0) / 2


def test_throughput_hand_values():
    # direct evaluation at the reference point; the reference deployment
    # measured 223,706 tx/s at n = 3, which this curve does NOT bound —
    # the fitted scaling curve sits below the measurement as printed.
    assert throughput_limit(3, 1.0, 125e6) == pytest.approx(161748.87, rel=1e-6)
    assert throughput_limit(8, 1.0, 125e6) == pytest.approx(277730.46, rel=1e-6)
    # every node's block commits once per scaled round
    assert throughput_limit(5, 2.0, 250e6) == pytest.approx(
        10_000 * 5 / scaled_consensus_time(5, 2.0, 250e6))


def test_throughput_monotone_in_speedup_and_band():
    ns = list(range(3, 201, 7)) + [200]
    speedups = [0.5, 1.0, 2.0, 4.0, 8.0]
    bands = [62.5e6, 125e6, 250e6, 1e9]
    for n in ns:
        for band in bands:
            vals = [throughput_limit(n, a, band) for a in speedups]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for a in speedups:
            vals = [throughput_limit(n, a, band) for band in bands]
            assert all(b > a_ for a_, b in zip(vals, vals[1:]))


def test_step_fits_hand_values():
    c1, c2, c3, c4 = step_computation_fits(3)
    assert c1 == pytest.approx(0.0297, rel=1e-9)
    assert c2 == pytest.approx(0.0619, rel=1e-9)
    assert c3 == pytest.approx(0.0277, rel=1e-9)
    assert c4 == pytest.approx(0.0218, rel=1e-9)
    # step fits approximate the measured step means loosely (fit residuals)
    for n, row in REFERENCE_TIMINGS.items():
        fits = step_computation_fits(n)
        for fit, measured in zip(fits, row[:4]):
            assert fit == pytest.approx(measured, rel=0.15)


def test_coefficient_report_flags_linear_gap():
    rep = transmission_coefficient_report()
    assert not rep.consistent
    assert rep.linear_gap_ratio == pytest.approx(0.2476, abs=2e-3)
    a3, a2, a1, a0 = rep.structural
    assert a3 == pytest.approx(1e-4, rel=1e-6)
    assert a2 == pytest.approx(7e-4, rel=1e-6)
    assert a1 == pytest.approx(0.40086, rel=1e-6)
    assert a0 == pytest.approx(-0.40166, rel=1e-6)
    assert rep.fitted == (0.0001, 0.0008, 0.3213, -0.3214)
    # sanity: the fitted cubic evaluated per its own coefficients
    assert fitted_transmission_mb(3) == pytest.approx(0.6524, rel=1e-9)


def test_sweep_grid_shape_and_content():
    rows = list(sweep_grid([3, 4], [1.0, 2.0], [125e6]))
    assert len(rows) == 4
    first = rows[0]
    assert set(first) == {"n", "a", "band", "t_tran", "t_comp", "t_cons",
                          "throughput"}
    assert first["n"] == 3 and first["a"] == 1.0
    assert first["t_cons"] == pytest.approx(first["t_tran"] + first["t_comp"])
    assert first["throughput"] == pytest.approx(161748.87, rel=1e-6)


def test_param_validation():
    with pytest.raises(ModelError):
        ModelParams(node_count=1)
    with pytest.raises(ModelError):
        ModelParams(node_count=3, band=0)
    with pytest.raises(ModelError):
        ModelParams(node_count=3, tx_bytes=0)
    with pytest.raises(ModelError):
        scaled_computation_time(3, 0.0)
    with pytest.raises(ModelError):
        next(sweep_grid([3], [1.0], [125e6], txs_per_block=0))
    for n in (-1, 0, 2):
        with pytest.raises(ModelError, match="at least three nodes"):
            next(sweep_grid([3, n], [1.0], [125e6]))
    for band in (1e-320, 0.5, math.inf, math.nan):
        with pytest.raises(ModelError, match="at least one byte/second"):
            next(sweep_grid([3], [1.0], [band]))
    assert next(sweep_grid([3], [1.0], [1.0]))["t_tran"] > 0


def test_role_defaults_mirror_prototype():
    p = ModelParams(node_count=6)
    assert p.bookkeepers == 6 and p.voters == 5
    assert p.peers == 5
    # nodes 0..b-1 bookkeep and 0..v-1 vote: peers are the union less one
    for b in range(1, 9):
        for v in range(1, 9):
            p = ModelParams(node_count=8, bookkeepers=b, voters=v)
            assert p.peers == len(set(range(b)) | set(range(v))) - 1
