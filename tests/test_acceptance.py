"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single
``[criterion N] PASS/FAIL`` line (visible with ``pytest -s`` and in the
captured output of failing runs).  Tolerances are stated inline next to
each check.
"""

import gc
import time

import numpy as np
import pytest

from minet import perfmodel, registry, simulate, tunnel
from minet.bench import (
    measure_build_scaling,
    run_consistency_drill,
    run_lookup_bench,
)
from minet.names import ForwardingInfo, Identifier
from minet.perfmodel import REFERENCE_TIMINGS, ModelParams


def _criterion(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status} — {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_fib_oracle_equivalence():
    failures = []
    t0 = time.perf_counter()
    report = run_consistency_drill(operations=10_000, lookups=10_000,
                                   check_every=1_000, seed=11, alphabet=100)
    wall = time.perf_counter() - t0
    if report.mismatches:
        failures.append(f"{report.mismatches}/10000 lookups diverged "
                        f"from the oracle")
    if report.integrity_checks != 10:
        failures.append(f"expected 10 integrity checks, "
                        f"ran {report.integrity_checks}")
    if report.integrity_problems:
        failures.append(f"{report.integrity_problems} integrity violations")
    if wall >= 60:
        failures.append(f"took {wall:.1f}s (limit 60s)")
    _criterion(1, "10k ops + 10k lookups oracle-equivalent, "
                  f"integrity clean, {wall:.1f}s", failures)


MISS_BINARY_REFERENCE = {6: 2.34, 7: 2.54, 8: 2.70, 9: 2.85, 10: 2.96}


def test_criterion_2_all_miss_probe_table():
    failures = []
    t0 = time.perf_counter()
    report = run_lookup_bench(mode="miss", entry_count=100_000,
                              query_count=50_000,
                              query_lens=(6, 7, 8, 9, 10), seed=7)
    wall = time.perf_counter() - t0
    ratios = []
    for row in report.rows:
        n = row.query_len
        if row.linear_probes != pytest.approx(float(n), abs=1e-9):
            failures.append(f"N={n}: linear probes {row.linear_probes:.4f} "
                            f"!= {n} exactly")
        ref = MISS_BINARY_REFERENCE[n]
        if not ref * 0.85 <= row.binary_probes <= ref * 1.15:
            failures.append(f"N={n}: binary probes {row.binary_probes:.3f} "
                            f"outside {ref}±15%")
        ratios.append(row.ratio_pct)
    if ratios[0] < 230.0:
        failures.append(f"ratio at N=6 is {ratios[0]:.0f}% (< 230%)")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        failures.append(f"ratio not increasing in N: "
                        f"{[round(r) for r in ratios]}")
    if wall >= 120:
        failures.append(f"took {wall:.1f}s (limit 120s)")
    _criterion(2, "all-miss probes: linear exact, binary within 15%, "
                  f"ratio {ratios[0]:.0f}%->{ratios[-1]:.0f}%, {wall:.1f}s",
               failures)


HIT_BINARY_RANGE = {3.0: (2.84, 3.45), 4.0: (2.90, 3.47)}


def test_criterion_3_all_hit_probe_table():
    failures = []
    for m, (lo, hi) in HIT_BINARY_RANGE.items():
        report = run_lookup_bench(mode="hit", entry_count=100_000,
                                  query_count=50_000, mean_entry_len=m,
                                  query_lens=(6, 7, 8, 9, 10), seed=7)
        for row in report.rows:
            n = row.query_len
            want = n - m + 1
            if not 0.9 * want <= row.linear_probes <= 1.1 * want:
                failures.append(f"M={m:g} N={n}: linear "
                                f"{row.linear_probes:.3f} outside "
                                f"{want:g}±10%")
            if not lo * 0.85 <= row.binary_probes <= hi * 1.15:
                failures.append(f"M={m:g} N={n}: binary "
                                f"{row.binary_probes:.3f} outside "
                                f"[{lo}, {hi}]±15%")
    _criterion(3, "all-hit probes: linear within 10% of N-M+1, "
                  "binary within the reference bands", failures)


def test_criterion_4_build_scaling():
    failures = []
    report = measure_build_scaling(100_000, 1_000_000, seed=7)
    if report.big_wall_s >= 60:
        failures.append(f"1M build took {report.big_wall_s:.1f}s "
                        f"(limit 60s)")
    if not 7.0 <= report.ratio <= 13.0:
        failures.append(f"time(1M)/time(100k) = {report.ratio:.2f} "
                        f"outside [7, 13]")
    _criterion(4, f"1M entries in {report.big_wall_s:.1f}s, "
                  f"growth x{report.ratio:.2f} over 100k", failures)


def test_criterion_5_round_time_replay():
    failures = []
    # the wall-clock bound covers the replay, not the collection of the
    # previous test's million-node tables, so settle the heap first
    gc.collect()
    t0 = time.perf_counter()
    for n, ref in REFERENCE_TIMINGS.items():
        ref_round, ref_tput = ref[4], ref[5]
        config = simulate.SimConfig(node_count=n, rounds=2,
                                    txs_per_block=10_000,
                                    compute_model="fitted", seed=1)
        summary = simulate.run_rounds(config).summary
        if abs(summary.mean_round_seconds - ref_round) > 0.10 * ref_round:
            failures.append(f"n={n}: round {summary.mean_round_seconds:.4f}s "
                            f"vs {ref_round}s (>10%)")
        if abs(summary.throughput_txs_per_sec - ref_tput) > 0.10 * ref_tput:
            failures.append(f"n={n}: throughput "
                            f"{summary.throughput_txs_per_sec:.0f} vs "
                            f"{ref_tput} (>10%)")
    wall = time.perf_counter() - t0
    if wall >= 10:
        failures.append(f"took {wall:.1f}s (limit 10s)")
    _criterion(5, f"virtual-time replay of the six reference rows within "
                  f"10%, {wall:.1f}s wall", failures)


def test_criterion_6_model_identities():
    failures = []
    # transmission additivity, exact in floating point
    for n in (3, 5, 8, 20, 64):
        p = ModelParams(node_count=n, txs_per_block=2_000, band=250e6)
        t1, t2, t3 = perfmodel.transmission_times(p)
        if perfmodel.transmission_total(p) != t1 + t2 + t3:
            failures.append(f"n={n}: transmission total is not the "
                            f"exact step sum")
    # computation-residual identity: expanded polynomial vs construction
    for n in range(3, 51):
        a = perfmodel.residual_computation_time(n)
        b = perfmodel.printed_residual_poly(n)
        if a != pytest.approx(b, rel=1e-9):
            failures.append(f"n={n}: residual identity off by "
                            f"{abs(a - b):.2e}")
            break
    # whole-round fit against the six reference rows, within 5%
    for n, ref in REFERENCE_TIMINGS.items():
        fit = perfmodel.consensus_time_fit(n)
        if abs(fit - ref[4]) > 0.05 * ref[4]:
            failures.append(f"n={n}: fit {fit:.4f}s vs {ref[4]}s (>5%)")
    # throughput monotone in speedup and in bandwidth across the n grid
    ns = range(3, 201)
    for n in ns:
        tputs_a = [perfmodel.throughput_limit(n, a, 125e6) for a in (1, 2, 4)]
        if not tputs_a[0] < tputs_a[1] < tputs_a[2]:
            failures.append(f"n={n}: throughput not increasing in speedup")
            break
        tputs_b = [perfmodel.throughput_limit(n, 1.0, b)
                   for b in (125e6, 250e6, 1e9)]
        if not tputs_b[0] < tputs_b[1] < tputs_b[2]:
            failures.append(f"n={n}: throughput not increasing in bandwidth")
            break
    # the structural-vs-fitted transmission coefficient gap is reported
    rep = perfmodel.transmission_coefficient_report()
    if rep.consistent:
        failures.append("coefficient discrepancy not flagged")
    if rep.structural[2] != pytest.approx(0.401, abs=0.01):
        failures.append(f"structural linear coefficient "
                        f"{rep.structural[2]:.4f}, expected ~0.401")
    if rep.fitted[2] != 0.3213:
        failures.append("fitted linear coefficient is not 0.3213")
    _criterion(6, "additivity exact, residual identity exact, fit within "
                  "5%, throughput monotone in a/band, coefficient gap "
                  f"reported ({rep.structural[2]:.3f} vs {rep.fitted[2]})",
               failures)


def test_criterion_7_consensus_safety():
    failures = []
    config = simulate.SimConfig(node_count=4, rounds=1_000, txs_per_block=50,
                                compute_model="zero", seed=42)
    summary = simulate.run_rounds(config).summary
    if summary.rounds_completed != 1_000:
        failures.append(f"only {summary.rounds_completed}/1000 rounds ran")
    if summary.divergences:
        failures.append(f"{summary.divergences} divergent rounds")
    if summary.committed_total != 1_000 * 4 * 50:
        failures.append(f"committed {summary.committed_total}, "
                        f"expected {1_000 * 4 * 50}")

    faulty = simulate.SimConfig(
        node_count=4, rounds=40, txs_per_block=50, compute_model="zero",
        seed=42, faults=(simulate.FaultSpec(2, "invalid_blocks"),))
    result = simulate.run_rounds(faulty)
    expected = 50 * (4 - 1)
    bad_rounds = [m.round for m in result.rounds
                  if m.committed_txs != expected]
    if bad_rounds:
        failures.append(f"rounds {bad_rounds[:5]} did not commit "
                        f"exactly K*(n_b-1)={expected}")
    if result.summary.divergences:
        failures.append("invalid-block run diverged")
    if result.summary.rounds_completed != 40:
        failures.append("invalid-block run stalled")
    _criterion(7, "1000 fault-free rounds without divergence; corrupt "
                  "bookkeeper excluded in all 40 rounds", failures)


def test_criterion_8_tunnel_fidelity():
    failures = []
    rng = np.random.default_rng(2024)
    mismatches = 0
    bad_exchanges = 0
    for trial in range(100):
        payload = rng.integers(0, 256, size=1 << 20, dtype=np.uint8).tobytes()
        for mode in tunnel.TunnelMode:
            rep = tunnel.run_scenario(mode, payload)
            if not rep.matched:
                mismatches += 1
            if rep.establish_exchanges != 3 or rep.terminate_exchanges != 4:
                bad_exchanges += 1
        if mismatches or bad_exchanges:
            failures.append(f"first failure at trial {trial}")
            break
    if mismatches:
        failures.append(f"{mismatches} digest mismatches")
    if bad_exchanges:
        failures.append(f"{bad_exchanges} runs without the 3/4 control "
                        f"exchange pattern")
    _criterion(8, "400 seeded 1 MiB transfers digest-equal with 3 "
                  "establishment / 4 termination exchanges", failures)


def test_criterion_9_registry_end_to_end():
    failures = []
    hier = registry.Hierarchy.default()
    domains = sorted(hier.domains(), key=lambda d: d.name.text)
    owner = Identifier.identity("operator")
    registered = []
    for i in range(1_000):
        domain = domains[i % len(domains)]
        style = i % 4
        if style == 0:
            ident = Identifier.content(f"{domain.name.text}/app/item{i}")
        elif style == 1:
            ident = Identifier.content(f"/library/shelf{i}")
        elif style == 2:
            ident = Identifier.identity(f"user{i}")
        else:
            ident = Identifier.geo(f"zone/{i}")
        fwd = (ForwardingInfo(face_id=i % 64)
               if ident.kind.value == "content" else None)
        hier.register(domain, registry.RegistrationRequest(
            ident, owner, forwarding=fwd))
        registered.append(ident)

    unresolved = 0
    for origin in domains:
        for ident in registered:
            res = hier.resolve(origin, ident)
            if res.outcome is not registry.ResolutionOutcome.RESOLVED:
                unresolved += 1
    if unresolved:
        failures.append(f"{unresolved}/{len(domains) * 1_000} resolutions "
                        f"did not succeed")

    rejected = 0
    for origin in (domains[0], domains[5], domains[-1]):
        try:
            hier.register(origin, registry.RegistrationRequest(
                registered[0], owner, forwarding=ForwardingInfo(face_id=1)))
        except registry.Duplicate:
            rejected += 1
    if rejected != 3:
        failures.append(f"duplicate accepted ({rejected}/3 rejected)")

    for text in ("content:/never/was", "id:nobody", "geo:nowhere/0"):
        res = hier.resolve(domains[3], Identifier.parse(text))
        if res.outcome is not registry.ResolutionOutcome.NOT_FOUND:
            failures.append(f"{text}: expected NotFound, "
                            f"got {res.outcome.value}")
        elif not res.hops:
            failures.append(f"{text}: NotFound with empty hop trace")

    problems = hier.verify_consistency()
    if problems:
        failures.append(f"store/chain inconsistencies: {problems[:3]}")
    _criterion(9, "1000 identifiers resolvable from all 11 domains, "
                  "duplicates rejected, NotFound traces non-empty",
               failures)
