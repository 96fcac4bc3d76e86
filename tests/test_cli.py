import csv
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minet
from minet import bench, cli, perfmodel, registry, tunnel
from minet.cli import run_command
from minet.hpt import kernels
from minet.workload import WorkloadSpec, generate_entries


def read_report(out, stem):
    with open(out / f"{stem}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / f"{stem}.json") as fh:
        sidecar = json.load(fh)
    return rows, sidecar


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_command([]) == 2
    assert run_command(["no-such-command"]) == 2
    assert run_command(["fib-bench", "--bogus-flag"]) == 2
    assert run_command(["consensus-sim", "--nodes", "1",
                        "--out", str(tmp_path)]) == 2
    assert run_command(["consensus-sim", "--fault", "nonsense",
                        "--out", str(tmp_path)]) == 2
    assert run_command(["model-eval", "--nodes", "2",
                        "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    for argv in (["fib-bench", "--query-lens", "6,x"],
                 ["fib-bench", "--query-lens", "6:9:1:2"],
                 ["fib-bench", "--build-scaling", "1:2:3"],
                 ["fib-bench", "--build-scaling", "abc"],
                 ["model-sweep", "--nodes", "a:b"],
                 ["model-sweep", "--speedups", "1,z"],
                 ["model-sweep", "--nodes", "5:3"],
                 ["model-sweep", "--nodes", "2:4"],
                 ["model-sweep", "--speedups", ","],
                 ["model-sweep", "--bands", "0"],
                 ["model-sweep", "--speedups", "0"],
                 ["model-eval", "--band", "0"],
                 ["model-eval", "--txs-per-block", "-10"],
                 ["model-eval", "--speedup", "inf", "--band", "inf"],
                 ["model-sweep", "--speedups", "inf", "--bands", "inf"],
                 ["consensus-sim", "--band", "nan"],
                 ["consensus-sim", "--band", "inf"],
                 ["model-sweep", "--txs-per-block", "0"],
                 ["fib-bench", "--queries", "0"],
                 ["fib-bench", "--queries", "0", "--route", "dict"],
                 ["tunnel-demo", "--segment-size", "0"],
                 ["tunnel-demo", "--payload-bytes", "-1"],
                 ["tunnel-demo", "--mode", "ip-ccn", "--down", "mir2"],
                 ["consensus-sim", "--fault", "x:invalid_blocks"],
                 ["consensus-sim", "--fault", "1:crash_at_round:y"],
                 ["consensus-sim", "--fault", "1:invalid_blocks:3"],
                 ["fib-check", "--check-every", "0"],
                 ["fib-check", "--ops", "-5"],
                 ["fib-check", "--lookups", "-1"]):
        assert run_command(argv + ["--out", str(tmp_path)]) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # sizes out of order are a usage error before any bench runs
    assert run_command(["fib-bench", "--entries", "2000", "--queries", "200",
                        "--build-scaling", "5000:500",
                        "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
    # an interest log the run cannot write
    assert run_command(["tunnel-demo", "--payload-bytes", "10", "--out",
                        str(tmp_path), "--interest-log",
                        str(tmp_path / "missing" / "log.bin")]) == 2
    assert capsys.readouterr().err.startswith("error: --interest-log ")


def test_subnormal_band_is_a_usage_error(tmp_path, capsys):
    # a positive band below one byte/second underflows in MB/s
    for argv in (["model-eval", "--band", "1e-320"],
                 ["model-sweep", "--bands", "125e6,1e-320"],
                 ["model-eval", "--band", "0.5"]):
        assert run_command(argv + ["--out", str(tmp_path)]) == 2, argv
        err = capsys.readouterr().err
        assert err == ("error: bands must be finite and at least one "
                       "byte/second\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    assert run_command(["--help"]) == 0
    assert "fib-bench" in capsys.readouterr().out


def test_fib_bench_report(tmp_path, capsys):
    assert run_command([
        "fib-bench", "--out", str(tmp_path), "--entries", "2000",
        "--queries", "600", "--query-lens", "6,8", "--seed", "7"]) == 0
    rows, sidecar = read_report(tmp_path, "fib_bench")
    assert [r["query_len"] for r in rows] == ["6", "8"]
    assert float(rows[0]["linear_probes"]) == pytest.approx(6.0)
    assert float(rows[0]["binary_probes"]) < 4.0
    assert float(rows[0]["ratio_pct"]) > 150.0
    assert sidecar["entry_count"] == 2000
    _, lengths = generate_entries(WorkloadSpec(
        entry_count=2000, query_count=600, mean_entry_len=4.0, query_len=6,
        seed=7))
    assert sidecar["entry_len_mean"] == float(lengths.mean())
    assert sidecar["mean_entry_len"] == 4.0
    assert sidecar["query_pack_wall_s"] > 0.0
    assert "table_bytes_per_name" in sidecar
    assert "note" in sidecar and sidecar["csv"] == "fib_bench.csv"
    assert "N=6" in capsys.readouterr().out


def test_fib_bench_routes_agree_on_probes(tmp_path):
    args = ["fib-bench", "--entries", "1500", "--queries", "400",
            "--query-lens", "7", "--seed", "3"]
    assert run_command(args + ["--route", "kernel",
                               "--out", str(tmp_path / "k")]) == 0
    assert run_command(args + ["--route", "dict",
                               "--out", str(tmp_path / "d")]) == 0
    kernel_rows, _ = read_report(tmp_path / "k", "fib_bench")
    dict_rows, dict_sidecar = read_report(tmp_path / "d", "fib_bench")
    assert dict_sidecar["query_pack_wall_s"] == 0.0
    assert kernel_rows[0]["linear_probes"] == dict_rows[0]["linear_probes"]
    assert kernel_rows[0]["binary_probes"] == dict_rows[0]["binary_probes"]


def test_fib_bench_table_bytes_per_name_in_fresh_process(tmp_path):
    """RSS growth per name is the table's own only in a fresh process:
    one that freed memory earlier, as this test process has, reuses it
    first."""
    src = str(Path(minet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run(
        [sys.executable, "-m", "minet.cli", "fib-bench", "--out",
         str(tmp_path), "--entries", "5000", "--queries", "100",
         "--query-lens", "6", "--route", "dict"],
        env=env, check=True, capture_output=True, timeout=120)
    _, sidecar = read_report(tmp_path, "fib_bench")
    assert sidecar["table_bytes_per_name"] > 0.0


def test_fib_bench_build_scaling_option(tmp_path, capsys):
    assert run_command([
        "fib-bench", "--out", str(tmp_path), "--entries", "1000",
        "--queries", "100", "--query-lens", "6",
        "--build-scaling", "500:5000"]) == 0
    _, sidecar = read_report(tmp_path, "fib_bench")
    scaling = sidecar["build_scaling"]
    assert scaling["small_entries"] == 500
    assert scaling["big_entries"] == 5000
    assert scaling["ratio"] > 1.0
    assert "build scaling" in capsys.readouterr().out


def test_fib_check_report(tmp_path, capsys):
    assert run_command([
        "fib-check", "--out", str(tmp_path), "--ops", "2000",
        "--lookups", "1000", "--check-every", "500"]) == 0
    rows, sidecar = read_report(tmp_path, "fib_check")
    assert len(rows) == 1
    assert rows[0]["integrity_problems"] == "0"
    assert rows[0]["mismatches"] == "0"
    assert sidecar["clean"] is True
    assert "integrity checks" in capsys.readouterr().out


def test_consensus_sim_csv_contract(tmp_path, capsys):
    assert run_command([
        "consensus-sim", "--out", str(tmp_path), "--nodes", "3",
        "--rounds", "2", "--txs-per-block", "100",
        "--compute-model", "zero"]) == 0
    with open(tmp_path / "consensus_sim.csv", newline="") as fh:
        text = fh.read()
    assert text.splitlines()[0] == "round,t1,t2,t3,t4,t_cons,committed_txs"
    rows, sidecar = read_report(tmp_path, "consensus_sim")
    assert [r["round"] for r in rows] == ["1", "2"]
    for r in rows:
        parts = sum(float(r[k]) for k in ("t1", "t2", "t3", "t4"))
        assert float(r["t_cons"]) == pytest.approx(parts, rel=1e-9)
        assert r["committed_txs"] == "300"
    assert sidecar["config"]["node_count"] == 3
    assert sidecar["divergences"] == 0
    capsys.readouterr()


def test_consensus_sim_fault_stalls_cleanly(tmp_path, capsys):
    assert run_command([
        "consensus-sim", "--out", str(tmp_path), "--nodes", "4",
        "--rounds", "5", "--txs-per-block", "50",
        "--compute-model", "zero", "--fault", "1:crash_at_round:2"]) == 0
    rows, sidecar = read_report(tmp_path, "consensus_sim")
    assert sidecar["stalled_round"] == 2
    assert sidecar["rounds_completed"] == 1
    assert len(rows) == 1
    assert "stalled at round 2" in capsys.readouterr().out


def test_model_eval_reference_point(tmp_path, capsys):
    assert run_command(["model-eval", "--out", str(tmp_path)]) == 0
    rows, sidecar = read_report(tmp_path, "model_eval")
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == "3" and row["a"] == "1.0"
    assert float(row["t_cons"]) == pytest.approx(0.13263, abs=1e-5)
    assert float(row["throughput"]) == pytest.approx(
        perfmodel.throughput_limit(3, 1.0, 125e6, 10_000), rel=1e-6)
    assert sidecar["transmission_fit_consistent"] is False
    assert "t_cons" in capsys.readouterr().out


def test_model_sweep_grid(tmp_path, capsys):
    assert run_command([
        "model-sweep", "--out", str(tmp_path), "--nodes", "3:6",
        "--speedups", "1,2", "--bands", "125e6"]) == 0
    rows, sidecar = read_report(tmp_path, "model_sweep")
    assert len(rows) == 8
    assert sidecar["cells"] == 8
    assert {r["n"] for r in rows} == {"3", "4", "5", "6"}
    best = sidecar["best"]
    assert best["throughput"] == pytest.approx(
        max(float(r["throughput"]) for r in rows), rel=1e-6)
    capsys.readouterr()


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"entries": 1500, "query_lens": [6],
                               "queries": 300}))
    assert run_command([
        "fib-bench", "--out", str(tmp_path), "--entries", "9999",
        "--config", str(cfg)]) == 0
    rows, sidecar = read_report(tmp_path, "fib_bench")
    assert sidecar["entry_count"] == 1500
    assert len(rows) == 1 and rows[0]["query_len"] == "6"
    capsys.readouterr()


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    assert run_command(["fib-bench", "--out", str(tmp_path),
                        "--config", str(cfg)]) == 2
    assert "bad --config" in capsys.readouterr().err


def _run_with_config(tmp_path, argv, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    return run_command(argv + ["--out", str(tmp_path), "--config", str(cfg)])


def test_config_label_goes_through_append_action(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["tunnel-demo"], {
        "down": "mir1", "mode": "ip-ccn-ip", "payload_bytes": 100}) == 0
    _, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["down_nodes"] == ["mir1"]
    assert sidecar["timeout"]
    capsys.readouterr()


def test_config_string_goes_through_flag_type(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["tunnel-demo"],
                            {"payload_bytes": "10"}) == 0
    rows, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["payload_bytes"] == 10
    assert all(r["digests_match"] == "True" for r in rows)
    capsys.readouterr()


def test_config_node_count_and_fault_list(tmp_path, capsys):
    # the file's --fault list replaces the command line's, as any key does
    assert _run_with_config(tmp_path, [
        "consensus-sim", "--rounds", "3", "--txs-per-block", "50",
        "--compute-model", "zero", "--fault", "2:crash_at_round:1"],
        {"nodes": "5", "fault": ["1:crash_at_round:2"]}) == 0
    rows, sidecar = read_report(tmp_path, "consensus_sim")
    assert sidecar["config"]["node_count"] == 5
    assert sidecar["stalled_round"] == 2
    assert len(rows) == 1
    capsys.readouterr()


def test_config_value_the_flag_rejects_is_usage_error(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["tunnel-demo"],
                            {"payload_bytes": "ten"}) == 2
    err = capsys.readouterr().err
    assert "error" in err and "--payload-bytes" in err
    assert not (tmp_path / "tunnel_demo.csv").exists()


def test_tunnel_demo_all_modes(tmp_path, capsys):
    assert run_command([
        "tunnel-demo", "--out", str(tmp_path),
        "--payload-bytes", "20000"]) == 0
    rows, sidecar = read_report(tmp_path, "tunnel_demo")
    assert len(rows) == 4
    assert all(r["digests_match"] == "True" for r in rows)
    assert sidecar["all_digests_match"] is True
    assert sidecar["interest_log"] is None
    est = {r["mode"]: r["establish_exchanges"] for r in rows}
    assert est == {"ip-ccn-ip": "3", "ip-ccn": "3",
                   "ccn-ip": "3", "ccn-ip-ccn": "3"}
    capsys.readouterr()


def test_tunnel_demo_down_node_times_out(tmp_path, capsys):
    assert run_command([
        "tunnel-demo", "--out", str(tmp_path), "--mode", "ip-ccn-ip",
        "--payload-bytes", "100", "--down", "mir1"]) == 0
    _, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["timeout"]
    assert "folded to CLOSED" in capsys.readouterr().out


def _in_process_log(modes, payload_bytes, segment_size, down):
    """The Interests a TunnelConnection sends in each mode on tunnel-demo's
    default-seed payload, in mode order."""
    payload = np.random.default_rng(5).integers(
        0, 256, size=payload_bytes, dtype=np.uint8).tobytes()
    log = []
    for mode in modes:
        conn = tunnel.TunnelConnection(mode, segment_size=segment_size,
                                       down=down)
        try:
            conn.establish()
            conn.send(payload)
            conn.terminate()
        except tunnel.Timeout:
            pass
        log.extend(conn.interest_log)
    return log


@pytest.mark.parametrize("modes, size, segment, down", [
    (list(tunnel.TunnelMode), 9000, 1000, ()),
    # the SYN crosses the CCN segment to mir2, then B times it out
    ([tunnel.TunnelMode.IP_CCN_IP], 100, tunnel.SEGMENT_SIZE, ("B",))])
def test_tunnel_demo_interest_log_reads_back(tmp_path, capsys, modes, size,
                                             segment, down):
    path = tmp_path / "interests.bin"
    argv = ["tunnel-demo", "--out", str(tmp_path), "--interest-log",
            str(path), "--payload-bytes", str(size), "--segment-size",
            str(segment)]
    if down:
        argv += ["--mode", modes[0].value, "--down", *down]
    assert run_command(argv) == 0
    expected = [p.encode() for p in _in_process_log(modes, size, segment,
                                                    down)]
    assert expected
    assert [p.encode() for p in tunnel.read_interest_log(path)] == expected
    _, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["interest_log"] == {"path": str(path),
                                       "interests": len(expected)}
    capsys.readouterr()


def test_registry_demo(tmp_path, capsys):
    assert run_command([
        "registry-demo", "--out", str(tmp_path),
        "--identifiers", "24"]) == 0
    rows, sidecar = read_report(tmp_path, "registry_demo")
    assert len(rows) == 24 + 2
    outcomes = [r["outcome"] for r in rows]
    assert outcomes[:-2] == ["resolved"] * 24
    assert outcomes[-2] == "not-found"
    assert outcomes[-1] == "proxied-to-ip"
    assert sidecar["consistency_problems"] == []
    assert sidecar["failed_checks"] == []
    assert sidecar["duplicates_rejected"] == 1
    assert (tmp_path / "registry_records.jsonl").exists()
    assert "consistency problems: 0" in capsys.readouterr().out


# sha256 of each report's bytes; every figure in them is deterministic
PINNED_REPORTS = (
    (["consensus-sim", "--nodes", "5", "--rounds", "3", "--txs-per-block",
      "50", "--compute-model", "zero", "--fault", "1:invalid_blocks",
      "--fault", "2:dissenting_votes"],
     {"consensus_sim.csv": "b58bc1fd5075e17d8d00275cd87a8b5c"
                           "199ad3466c1ba0e654166c47fef710f3"}),
    (["consensus-sim", "--nodes", "4", "--rounds", "5", "--txs-per-block",
      "50", "--fault", "1:crash_at_round:2"],
     {"consensus_sim.csv": "055df0186c4600c18a71e41f9f644236"
                           "f6f554fa1ab9cd42eed0bf0c4d3478c8"}),
    (["model-eval"],
     {"model_eval.csv": "3c0fe974e14cc28434b8b0e30647efb7"
                        "5b691064f9b22013c0eb501ddccdeee6"}),
    (["model-sweep", "--nodes", "3:8", "--speedups", "1,2",
      "--bands", "125e6,1e8"],
     {"model_sweep.csv": "b16a082a29d143b796029cbac307044f"
                         "70b904db1904f22164e7758c85fc147e"}),
    (["tunnel-demo", "--payload-bytes", "20000"],
     {"tunnel_demo.csv": "a5319bf74a69bad359e8bad0be205824"
                         "795bed474149942857719b2d2e12f10c"}),
    (["tunnel-demo", "--mode", "ip-ccn-ip", "--payload-bytes", "100",
      "--down", "mir1"],
     {"tunnel_demo.csv": "893fc1edf3245a5d7562a3c248a6b048"
                         "d0e091377211df7d87e0c4e043c664c0"}),
    (["registry-demo", "--identifiers", "24"],
     {"registry_demo.csv": "dbd078bca52ad195ecb96134341dbc9b"
                           "b844216ddb8c10ca19cb2367a1bf0fa0",
      "registry_records.jsonl": "6f26c9a7643f8a51d2869c6abefc5b61"
                                "0ac0af0cdd7ec53ce9c9212fd2ed2c7f"}),
)


def test_report_bytes_are_pinned(tmp_path, capsys):
    for i, (argv, digests) in enumerate(PINNED_REPORTS):
        out = tmp_path / str(i)
        assert run_command(argv + ["--out", str(out)]) == 0, argv
        for name, digest in digests.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest, (argv, name)
    capsys.readouterr()


def _assert_failed(tmp_path, capsys, argv, stem, line):
    assert run_command(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"FAILED: {line}\n"
    assert f"report: {tmp_path / stem}.csv" in captured.out
    assert (tmp_path / f"{stem}.csv").exists()
    assert (tmp_path / f"{stem}.json").exists()


def test_fib_check_divergence_exits_1(tmp_path, capsys, monkeypatch):
    drill = bench.run_consistency_drill
    monkeypatch.setattr(bench, "run_consistency_drill", lambda **kw:
                        dataclasses.replace(drill(**kw), mismatches=1))
    _assert_failed(tmp_path, capsys, [
        "fib-check", "--ops", "200", "--lookups", "100",
        "--check-every", "100"], "fib_check",
        "table diverged from the reference")
    _, sidecar = read_report(tmp_path, "fib_check")
    assert sidecar["clean"] is False and sidecar["mismatches"] == 1


def test_tunnel_digest_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    scenario = tunnel.run_scenario
    monkeypatch.setattr(tunnel, "run_scenario", lambda *a, **kw:
                        dataclasses.replace(scenario(*a, **kw),
                                            digest_received="0" * 64))
    _assert_failed(tmp_path, capsys, [
        "tunnel-demo", "--mode", "ccn-ip", "--payload-bytes", "100"],
        "tunnel_demo", "payload digest mismatch")
    rows, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["all_digests_match"] is False
    assert rows[0]["digests_match"] == "False"


def test_tunnel_interest_log_read_back_mismatch_exits_1(tmp_path, capsys,
                                                        monkeypatch):
    read = tunnel.read_interest_log
    monkeypatch.setattr(tunnel, "read_interest_log",
                        lambda path: read(path)[:-1])
    path = tmp_path / "interests.bin"
    _assert_failed(tmp_path, capsys, [
        "tunnel-demo", "--mode", "ccn-ip", "--payload-bytes", "100",
        "--interest-log", str(path)], "tunnel_demo",
        "interest log read back differs")
    rows, sidecar = read_report(tmp_path, "tunnel_demo")
    assert sidecar["all_digests_match"] is True
    assert sidecar["interest_log"]["interests"] == len(read(path))
    assert rows[0]["digests_match"] == "True"


def test_registry_inconsistency_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(registry.Hierarchy, "verify_consistency",
                        lambda self: ["injected problem"])
    _assert_failed(tmp_path, capsys, [
        "registry-demo", "--identifiers", "8"], "registry_demo",
        "registry invariants violated: consistency problems found")
    _, sidecar = read_report(tmp_path, "registry_demo")
    assert sidecar["consistency_problems"] == ["injected problem"]
    assert sidecar["failed_checks"] == ["consistency problems found"]


def test_registry_store_read_back_mismatch_exits_1(tmp_path, capsys,
                                                    monkeypatch):
    # the store is written with every tx id one off, so the records read
    # back from it differ from those the registrations returned
    to_dict = registry.record_to_dict
    monkeypatch.setattr(registry, "record_to_dict", lambda record: {
        **to_dict(record), "tx_id": record.tx_id + 1})
    _assert_failed(tmp_path, capsys, [
        "registry-demo", "--identifiers", "8"], "registry_demo",
        "registry invariants violated: store read back differs")
    _, sidecar = read_report(tmp_path, "registry_demo")
    assert sidecar["consistency_problems"] == []
    assert sidecar["failed_checks"] == ["store read back differs"]


ENV_RUNS = (["fib-bench", "--entries", "2000", "--queries", "200",
             "--query-lens", "6"],
            ["fib-check", "--ops", "200", "--lookups", "100",
             "--check-every", "100"],
            ["consensus-sim", "--nodes", "4", "--rounds", "2",
             "--txs-per-block", "50"],
            ["model-eval"],
            ["model-sweep", "--nodes", "3:4"],
            ["tunnel-demo", "--payload-bytes", "100"],
            ["registry-demo", "--identifiers", "8"])


def test_every_sidecar_records_its_environment(tmp_path, capsys):
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert [argv[0] for argv in ENV_RUNS] == list(commands)
    for argv in ENV_RUNS:
        out = tmp_path / argv[0]
        assert run_command(argv + ["--out", str(out)]) == 0, argv
        sidecar, = (json.loads(p.read_text()) for p in out.glob("*.json"))
        env = sidecar["env"]
        assert env == {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "kernel_backend": kernels.BACKEND,
                       "numba_importable": env["numba_importable"],
                       "cpu_count": os.cpu_count(),
                       "git": env["git"]}, argv
        assert isinstance(env["numba_importable"], bool)
        rev, dirty = env["git"]["rev"], env["git"]["dirty"]
        assert ((rev, dirty) == (None, None)
                or (len(rev) == 40 and isinstance(dirty, bool))), argv
    capsys.readouterr()


HASH_SEED_RUNS = (["registry-demo"],
                  ["consensus-sim", "--nodes", "6", "--rounds", "3"],
                  ["tunnel-demo"])


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """The same seed writes the same bytes under any PYTHONHASHSEED, so no
    report follows the iteration order of a set or dict of strings."""
    src = str(Path(minet.__file__).resolve().parents[1])
    script = ("import sys\n"
              "from minet.cli import run_command\n"
              f"for i, argv in enumerate({HASH_SEED_RUNS!r}):\n"
              "    code = run_command(argv + ['--out', f'{sys.argv[1]}/{i}'])\n"
              "    assert code == 0, argv\n")
    outs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                       check=True, capture_output=True, timeout=120)
        outs.append({p.relative_to(out): p.read_bytes()
                     for p in sorted(out.rglob("*"))
                     if p.suffix in (".csv", ".jsonl")})
    assert len(outs[0]) == len(HASH_SEED_RUNS) + 1
    assert outs[0] == outs[1]
