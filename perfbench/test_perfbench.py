"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench

Toy size runs the same code paths and oracle checks as the measured
size, so these tests exercise everything a measured run does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import common
import run
from common import REFERENCE_S, Host
from run import coverage
from spans import NullTracer, Tracer, patched

TOY = argparse.Namespace(seconds=0.2, size="toy")
SEED = 3

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(run.HERE, "spec.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return {(w, trace): run.child(w, SEED, trace, TOY)
            for w in run.WORKLOADS for trace in (0, 1)}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(SPEC["workloads"]) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(runs, trace, key):
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for workload in run.WORKLOADS:
        result = runs[workload, trace]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_across_runs(runs):
    for workload in run.WORKLOADS:
        assert runs[workload, 0]["counts"] == runs[workload, 1]["counts"]


def test_environment_block(runs):
    env = runs["consensus", 0]["env"]
    assert env["seed"] == SEED
    assert set(env) == {"python", "numpy", "numba_importable",
                        "kernel_backend", "cpu_count", "git", "seed"}


def test_traced_spans_account_for_loop_wall_time(runs):
    for workload in run.WORKLOADS:
        share = runs[workload, 1]["per_layer"]["trace.self_share"][0]
        assert run.MIN_SELF_SHARE <= share <= 1.0


def test_every_wrapped_span_is_reported_or_a_phase():
    for workload in run.WORKLOADS:
        for _, _, span in run.load_workload(workload).span_targets():
            assert coverage({span: 1.0}) == (1.0, []), span


def test_unreported_span_time_is_not_covered():
    busy = {"bench.request": 0.5, "hpt.insert": 0.3, "hpt.lookup_oracle": 0.2}
    assert coverage(busy) == (pytest.approx(0.8), ["hpt.lookup_oracle"])


def test_all_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "all", "--size", "toy",
                           "--seconds", "0.2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "overhead" in proc.stdout
    assert proc.stdout.rstrip().endswith("all checks passed")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "consensus", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the oracles see wrong answers --------------------------------------------

def toy_run(workload: str):
    module = run.load_workload(workload)
    shape = SPEC["workloads"][workload]["toy"]
    return module.run(shape, SEED, 0.0, NullTracer(), Host())


def test_fib_lookup_catches_a_wrong_kernel_answer(monkeypatch):
    fib = run.load_workload("fib-lookup")
    real = fib.kernels.lpm_batch

    def extra_probe(*args):
        hit, node, length, probes = real(*args)
        return hit, node, length, probes + 1
    monkeypatch.setattr(fib.kernels, "lpm_batch", extra_probe)
    outcome = toy_run("fib-lookup")
    assert outcome.failures == {"kernel_mismatch": outcome.attempted}


def test_fib_lookup_catches_a_table_that_every_route_reads_wrong(monkeypatch):
    """A fault in Hpt.insert reaches both dict routes and the packed table
    alike; only the generator's ground truth sees it."""
    fib = run.load_workload("fib-lookup")
    real = fib.Hpt.insert

    def wrong_face(self, name, forwarding, *args, **kwargs):
        return real(self, name, fib.ForwardingInfo(forwarding.face_id + 1),
                    *args, **kwargs)
    monkeypatch.setattr(fib.Hpt, "insert", wrong_face)
    outcome = toy_run("fib-lookup")
    assert set(outcome.failures) == {"wrong_answer"}
    assert 0 < outcome.failed < outcome.attempted   # the hits, not the misses


def test_fib_lookup_ground_truth_matches_a_correct_table():
    outcome = toy_run("fib-lookup")
    assert outcome.failures == {} and outcome.failed == 0
    assert 0 < outcome.counts["kernels.backtrack_share"]


def test_consensus_catches_a_wrong_commit_count(monkeypatch):
    consensus = run.load_workload("consensus")
    real = consensus.simulate.run_rounds
    warm_ups = SPEC["workloads"]["consensus"]["toy"]["setup_reps"]
    calls = []

    def short_by_one(cfg):
        result = real(cfg)
        calls.append(cfg)
        if len(calls) <= warm_ups:
            return result
        summary = dataclasses.replace(
            result.summary, committed_total=result.summary.committed_total - 1)
        return dataclasses.replace(result, summary=summary)
    monkeypatch.setattr(consensus.simulate, "run_rounds", short_by_one)
    outcome = toy_run("consensus")
    assert outcome.failures == {"committed": outcome.attempted}


def test_resolve_fetch_catches_a_corrupt_tunnel(monkeypatch):
    rf = run.load_workload("resolve-fetch")
    monkeypatch.setattr(rf.tunnel.TunnelConnection, "receiver_digest",
                        lambda self: "0" * 64)
    outcome = toy_run("resolve-fetch")
    assert outcome.failures["digest_mismatch"] == outcome.per["resolves"]
    assert outcome.failed == outcome.per["resolves"]


def test_resolve_fetch_reports_the_known_defect_without_failing():
    outcome = toy_run("resolve-fetch")
    assert outcome.failures["cache_forwarding_lost"] > 0
    assert set(outcome.failures) == {"cache_forwarding_lost"}
    assert outcome.failed == 0
    assert 0 < outcome.counts["registry.forwarding_lost_share"] < 1


def test_resolve_fetch_judges_answers_against_its_own_records():
    rf = run.load_workload("resolve-fetch")
    reg = rf.registry
    ident = rf.Identifier.content("/top/app/x")
    record = reg.RegistrationRecord(ident, rf.OWNER, reg.ContentName.parse("/top"),
                                    1, "committed", 7)
    fwd = rf.ForwardingInfo(5)
    hops = (record.domain,)
    ok = reg.ResolutionResult(reg.ResolutionOutcome.RESOLVED, hops, record, fwd)
    cached = reg.ResolutionResult(reg.ResolutionOutcome.RESOLVED, hops, record,
                                  None, "served from cache")
    wrong = reg.ResolutionResult(reg.ResolutionOutcome.NOT_FOUND, hops)
    assert rf.judge((record, fwd), ok) is None
    assert rf.judge((record, fwd), cached) == "cache_forwarding_lost"
    assert rf.judge((record, fwd), wrong) == "wrong_resolution"
    assert rf.judge((record, None), cached) is None


# -- host-speed scaling ---------------------------------------------------------

def test_host_scales_each_time_by_the_readings_around_it():
    host = Host()
    host.readings = [REFERENCE_S] * 5 + [2 * REFERENCE_S] * 5
    host.op_at = [0, 5, 9]
    host.setup_at = [(0, 1), (4, 5)]
    assert host.scaled_latency([1.0, 1.0, 1.0]) == pytest.approx(
        [1.0, 1 / 2, 1 / 2])
    assert host.scaled_setup([3.0, 3.0]) == pytest.approx([3.0, 2.0])
    assert host.factor() == pytest.approx(2 / 3)


def test_loop_reads_the_host_before_the_first_operation_and_after_the_last():
    host = Host()
    ops, _, _ = common.closed_loop(lambda i: None, 0.0, 3, NullTracer(), host)
    assert ops == 3 and host.op_at == [0, 0, 0] and len(host.readings) == 2


# -- spans ---------------------------------------------------------------------

def test_self_times_partition_the_root_span():
    tracer = Tracer()
    t0 = time.perf_counter()
    root = tracer.begin("root")
    child = tracer.begin("child")
    time.sleep(0.01)
    grandchild = tracer.begin("grandchild")
    time.sleep(0.01)
    tracer.end(grandchild)
    tracer.end(child)
    time.sleep(0.01)
    tracer.end(root)
    elapsed = time.perf_counter() - t0
    busy, calls = tracer.take()
    assert calls == {"root": 1, "child": 1, "grandchild": 1, "trace.fold": 1}
    assert 0.03 <= sum(busy.values()) <= elapsed
    assert all(busy[name] >= 0.009 for name in ("root", "child", "grandchild"))
    assert tracer.take() == ({}, {})


def test_out_of_order_span_close_fails():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_patched_restores_the_original():
    class Owner:
        def f(self):
            return 1
    original = Owner.__dict__["f"]
    tracer = Tracer()
    with patched(tracer, [(Owner, "f", "owner.f")]):
        assert Owner().f() == 1
        assert Owner.__dict__["f"] is not original
    assert Owner.__dict__["f"] is original
    assert tracer.take()[1] == {"owner.f": 1, "trace.fold": 1}
    with patched(NullTracer(), [(Owner, "f", "owner.f")]):
        assert Owner.__dict__["f"] is original
