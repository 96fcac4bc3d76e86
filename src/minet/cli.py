"""Command-line workbench over the library.

Every subcommand echoes a human-readable summary to stdout and returns
its report to `run_command`, which alone writes the CSV and the JSON
sidecar into the directory named by --out, both named after the
subcommand, and picks the exit code:

* 0 — ran to completion (a simulated stall or injected fault that the
  run was asked to produce still counts as completion);
* 1 — the run finished but failed its own correctness expectations
  (digest mismatch, integrity violation, unresolvable identifier);
* 2 — unusable invocation: unknown flags, malformed values, or a
  parameter set the engines reject.

A JSON file passed via --config is applied on top of the parsed flags
(file values win), so runs can be pinned and replayed from a single
artifact.  Each key is parsed as its flag would be: a list gives an
append flag one value per item and a comma-list flag the joined items.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, obs, perfmodel, registry, simulate, tunnel
from .names import ForwardingInfo, Identifier, ParseError
from .workload import InfeasibleSpec

MODEL_CSV_HEADER = ("n", "a", "band", "t_tran", "t_comp", "t_cons",
                    "throughput")
SIM_CSV_HEADER = ("round", "t1", "t2", "t3", "t4", "t_cons", "committed_txs")

_USAGE_ERRORS = (simulate.ConfigInvalid, bench.BenchError, perfmodel.ModelError,
                 InfeasibleSpec, ParseError, registry.RegistryError,
                 tunnel.TunnelError)


def main() -> None:
    raise SystemExit(run_command())


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        _apply_config(ns)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: bad --config file: {exc}", file=sys.stderr)
        return 2
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        header, rows, summary, failure = ns.handler(ns, out)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_report(out, ns.command.replace("-", "_"), header, rows,
                  {"command": ns.command, **summary})
    if failure is not None:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minet",
        description="Forwarding-table, consensus, timing-model, tunnel "
                    "and registry workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="reports",
                       help="directory for the CSV report and JSON sidecar")
        p.add_argument("--config", default=None,
                       help="JSON file whose keys override these flags")
        p.set_defaults(parser=p)

    p = sub.add_parser("fib-bench",
                       help="probe-count and wall-time comparison of the "
                            "linear scan vs the prefix binary search")
    common(p)
    p.add_argument("--mode", choices=("miss", "hit"), default="miss")
    p.add_argument("--entries", type=int, default=100_000)
    p.add_argument("--queries", type=int, default=50_000)
    p.add_argument("--mean-entry-len", type=float, default=4.0,
                   help="mean stored-name length M")
    p.add_argument("--query-lens", default="6,7,8,9,10",
                   help="query lengths N, comma list or lo:hi[:step]")
    p.add_argument("--route", choices=bench.ROUTES, default="kernel")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--build-scaling", default=None, metavar="SMALL:BIG",
                   help="also measure build-time growth between two sizes")
    p.set_defaults(handler=_cmd_fib_bench)

    p = sub.add_parser("fib-check",
                       help="randomized churn with integrity checks and a "
                            "three-route lookup cross-check")
    common(p)
    p.add_argument("--ops", type=int, default=10_000)
    p.add_argument("--lookups", type=int, default=10_000)
    p.add_argument("--check-every", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(handler=_cmd_fib_check)

    p = sub.add_parser("consensus-sim",
                       help="deterministic virtual-time run of the voting "
                            "protocol over serialized full-duplex links")
    common(p)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--band", type=float, default=125e6,
                   help="bytes/second per node per direction")
    p.add_argument("--txs-per-block", type=int, default=10_000)
    p.add_argument("--compute-model", choices=simulate.COMPUTE_MODELS,
                   default="fitted")
    p.add_argument("--leader-in-consortium", action="store_true")
    p.add_argument("--first-leader", type=int, default=0)
    p.add_argument("--fault", action="append", default=[],
                   metavar="NODE:BEHAVIOR[:ROUND]",
                   help=f"inject a fault (behaviors: "
                        f"{', '.join(sorted(simulate.FAULT_BEHAVIORS))})")
    p.set_defaults(handler=_cmd_consensus_sim)

    p = sub.add_parser("model-sweep",
                       help="grid of model evaluations over node counts, "
                            "speedups and bandwidths")
    common(p)
    p.add_argument("--nodes", default="3:20",
                   help="node counts, comma list or lo:hi[:step]")
    p.add_argument("--speedups", default="1",
                   help="speedup factors, comma list")
    p.add_argument("--bands", default="125e6",
                   help="bandwidths in bytes/second, comma list")
    p.add_argument("--txs-per-block", type=int, default=10_000)
    p.set_defaults(handler=_cmd_model_sweep)

    p = sub.add_parser("tunnel-demo",
                       help="run the tunnel handshake and a checked "
                            "payload transfer through each gateway chain")
    common(p)
    p.add_argument("--mode", default="all",
                   choices=("all",) + tuple(m.value for m in tunnel.TunnelMode))
    p.add_argument("--payload-bytes", type=int, default=65_536)
    p.add_argument("--segment-size", type=int, default=4_096)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--down", action="append", default=[], metavar="LABEL",
                   help="mark a chain node as down to demonstrate the "
                        "timeout path (single mode only)")
    p.add_argument("--interest-log", metavar="FILE",
                   help="write every Interest each mode's connection sent, "
                        "in mode order, and check that it reads back equal")
    p.set_defaults(handler=_cmd_tunnel_demo)

    p = sub.add_parser("registry-demo",
                       help="populate the domain tree with identifiers and "
                            "exercise registration and resolution")
    common(p)
    p.add_argument("--identifiers", type=int, default=60)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(handler=_cmd_registry_demo)
    return parser


def _apply_config(ns: argparse.Namespace) -> None:
    """Parse the --config file's keys as the subcommand's own flags."""
    if not ns.config:
        return
    with open(ns.config, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise TypeError("config root must be a JSON object")
    actions = {a.dest: a for a in ns.parser._actions
               if a.dest not in ("help", "config")}
    argv = []
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise KeyError(f"unknown config key {key!r}")
        delattr(ns, action.dest)    # back to its default: file values win
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise TypeError(f"config key {key!r} takes true or false")
            argv += [flag] if value else []
        elif isinstance(action, argparse._AppendAction):
            values = value if isinstance(value, list) else [value]
            argv += [f"{flag}={v}" for v in values]
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(str, value))}")
        else:
            argv.append(f"{flag}={value}")
    ns.parser.parse_args(argv, namespace=ns)


def _ints(value: str) -> list[int]:
    """A comma list or lo:hi[:step] of integers."""
    try:
        if ":" not in value:
            return [int(p) for p in value.split(",") if p]
        lo, hi, *step = (int(p) for p in value.split(":"))
        if len(step) > 1:
            raise ValueError("more than three range parts")
        return list(range(lo, hi + 1, *step))
    except ValueError as exc:
        raise ParseError(f"malformed integer list {value!r}: {exc}") from exc


def _floats(value: str) -> list[float]:
    """A comma list of numbers."""
    try:
        return [float(p) for p in value.split(",") if p]
    except ValueError as exc:
        raise ParseError(f"malformed number list {value!r}: {exc}") from exc


def _pair(value: str) -> tuple[int, int]:
    """Exactly two integers, as SMALL:BIG with 0 < SMALL < BIG."""
    sizes = _ints(value.replace(":", ","))
    if len(sizes) != 2 or not 0 < sizes[0] < sizes[1]:
        raise ParseError(f"expected SMALL:BIG with 0 < SMALL < BIG, "
                         f"got {value!r}")
    return sizes[0], sizes[1]


# -- report writing ----------------------------------------------------------

SCALING_NOTE = ("desk-scale run: one process, synthetic names, in-memory "
                "tables; probe counts and ratios are size-determined, "
                "wall-clock figures scale with the machine")


def _write_report(out: Path, stem: str, header, rows, summary: dict) -> None:
    csv_path = out / f"{stem}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    json_path = out / f"{stem}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({**summary, "csv": csv_path.name, "note": SCALING_NOTE,
                   "env": obs.environment()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {csv_path} (+ {json_path.name})")


# -- handlers -----------------------------------------------------------------
# Each returns (header, rows, summary, failure): failure is None or the
# text run_command prints after "FAILED:".

def _cmd_fib_bench(ns, out: Path) -> tuple:
    scaling_sizes = _pair(ns.build_scaling) if ns.build_scaling else None
    report = bench.run_lookup_bench(
        mode=ns.mode, entry_count=ns.entries, query_count=ns.queries,
        mean_entry_len=ns.mean_entry_len, query_lens=tuple(_ints(ns.query_lens)),
        seed=ns.seed, route=ns.route)
    print(f"route {report.route}  entries {report.entry_count}  "
          f"queries {report.query_count}  mode {ns.mode}  "
          f"M {ns.mean_entry_len:g}")
    rows = []
    for r in report.rows:
        print(f"  N={r.query_len:<3} linear {r.linear_probes:6.2f}  "
              f"binary {r.binary_probes:5.2f}  ratio {r.ratio_pct:6.1f}%  "
              f"walls {r.linear_wall_s:.3f}s/{r.binary_wall_s:.3f}s")
        rows.append((r.mode, r.mean_entry_len, r.query_len,
                     f"{r.linear_probes:.4f}", f"{r.binary_probes:.4f}",
                     f"{r.ratio_pct:.1f}", f"{r.linear_wall_s:.6f}",
                     f"{r.binary_wall_s:.6f}"))
    summary = {f.name: getattr(report, f.name)
               for f in dataclasses.fields(report) if f.name != "rows"}
    summary.update(mode=ns.mode, mean_entry_len=ns.mean_entry_len,
                   seed=ns.seed)
    if scaling_sizes:
        small, big = scaling_sizes
        scaling = bench.measure_build_scaling(small, big, seed=ns.seed)
        summary["build_scaling"] = {**dataclasses.asdict(scaling),
                                    "ratio": scaling.ratio}
        print(f"  build scaling {small}->{big}: "
              f"{scaling.small_wall_s:.3f}s -> "
              f"{scaling.big_wall_s:.3f}s (x{scaling.ratio:.2f})")
    return (("mode", "mean_entry_len", "query_len", "linear_probes",
             "binary_probes", "ratio_pct", "linear_wall_s", "binary_wall_s"),
            rows, summary, None)


def _cmd_fib_check(ns, out: Path) -> tuple:
    report = bench.run_consistency_drill(
        operations=ns.ops, lookups=ns.lookups,
        check_every=ns.check_every, seed=ns.seed)
    print(f"{report.operations} ops, {report.lookups} lookups, "
          f"{report.integrity_checks} integrity checks: "
          f"{report.integrity_problems} problems, "
          f"{report.mismatches} lookup mismatches "
          f"({report.final_entries} entries left, {report.wall_s:.2f}s)")
    rows = [(report.operations, report.lookups, report.integrity_checks,
             report.integrity_problems, report.mismatches,
             report.final_entries, f"{report.wall_s:.4f}")]
    summary = {"clean": report.clean, "seed": ns.seed,
               **dataclasses.asdict(report)}
    return (("operations", "lookups", "integrity_checks", "integrity_problems",
             "mismatches", "final_entries", "wall_s"),
            rows, summary,
            None if report.clean else "table diverged from the reference")


def _parse_faults(specs: list[str]) -> tuple[simulate.FaultSpec, ...]:
    out = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise simulate.ConfigInvalid(
                f"fault {spec!r} is not NODE:BEHAVIOR[:ROUND]")
        try:
            node = int(parts[0])
            rnd = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise simulate.ConfigInvalid(
                f"fault {spec!r}: NODE and ROUND must be integers") from None
        out.append(simulate.FaultSpec(node, parts[1], rnd))
    return tuple(out)


def _cmd_consensus_sim(ns, out: Path) -> tuple:
    config = simulate.SimConfig(
        node_count=ns.nodes, rounds=ns.rounds, seed=ns.seed, band=ns.band,
        txs_per_block=ns.txs_per_block, compute_model=ns.compute_model,
        leader_in_consortium=ns.leader_in_consortium,
        first_leader=ns.first_leader, faults=_parse_faults(ns.fault))
    result = simulate.run_rounds(config)
    s = result.summary
    rows = [(m.round, f"{m.t1:.6f}", f"{m.t2:.6f}", f"{m.t3:.6f}",
             f"{m.t4:.6f}", f"{m.t_cons:.6f}", m.committed_txs)
            for m in result.rounds]
    print(f"{s.rounds_completed}/{s.rounds_requested} rounds, "
          f"{config.node_count} nodes, compute model "
          f"{config.compute_model}: mean round {s.mean_round_seconds:.4f}s, "
          f"{s.committed_total} txs committed "
          f"({s.throughput_txs_per_sec:.0f} tx/s), "
          f"{s.divergences} divergences")
    if s.stalled_round is not None:
        print(f"stalled at round {s.stalled_round}: {s.stall_reason}")
    summary = {"config": dataclasses.asdict(config), **dataclasses.asdict(s)}
    return SIM_CSV_HEADER, rows, summary, None


def _model_row(cell: dict) -> tuple:
    return (cell["n"], cell["a"], f"{cell['band']:g}",
            f"{cell['t_tran']:.6f}", f"{cell['t_comp']:.6f}",
            f"{cell['t_cons']:.6f}", f"{cell['throughput']:.2f}")


def _cmd_model_sweep(ns, out: Path) -> tuple:
    n_values = _ints(ns.nodes)
    speedups = _floats(ns.speedups)
    bands = _floats(ns.bands)
    cells = list(perfmodel.sweep_grid(n_values, speedups, bands,
                                      ns.txs_per_block))
    best = max(cells, key=lambda cell: cell["throughput"])
    print(f"{len(cells)} grid cells over n={n_values[0]}..{n_values[-1]}, "
          f"{len(speedups)} speedup(s), {len(bands)} band(s)")
    print(f"max throughput {best['throughput']:.2f} tx/s at "
          f"n={best['n']} a={best['a']:g} band={best['band']:g}")
    coeffs = perfmodel.transmission_coefficient_report()
    summary = {
        "cells": len(cells),
        "n_values": n_values,
        "speedups": speedups,
        "bands": bands,
        "txs_per_block": ns.txs_per_block,
        "best": best,
        "transmission_fit_consistent": coeffs.consistent,
        "transmission_linear_gap_ratio": coeffs.linear_gap_ratio,
    }
    return MODEL_CSV_HEADER, [_model_row(c) for c in cells], summary, None


def _cmd_tunnel_demo(ns, out: Path) -> tuple:
    if ns.mode == "all":
        if ns.down:
            raise ParseError("--down needs a single --mode")
        modes = list(tunnel.TunnelMode)
    else:
        modes = [tunnel.TunnelMode(ns.mode)]
    if ns.payload_bytes < 0:
        raise ParseError(f"--payload-bytes {ns.payload_bytes} is negative")
    payload = np.random.default_rng(ns.seed).integers(
        0, 256, size=ns.payload_bytes, dtype=np.uint8).tobytes()
    rows = []
    reports = []
    timeout_msg = None
    # only a node down times a mode out, in establish, and --down takes one
    # mode; the connection counts the Interests of the flights that got
    # through, so a timed-out row counts all it sent: the few in the log
    interests = [] if ns.down or ns.interest_log is not None else None
    for mode in modes:
        try:
            rep = tunnel.run_scenario(mode, payload, down_nodes=ns.down,
                                      segment_size=ns.segment_size,
                                      log=interests)
        except tunnel.Timeout as exc:
            timeout_msg = str(exc)
            print(f"{mode.value}: timeout, connection folded to CLOSED "
                  f"({exc})")
            rows.append((mode.value, ns.payload_bytes, 0, 0, 0,
                         len(interests), False))
            continue
        reports.append(rep)
        print(f"{rep.mode}: {rep.bytes_delivered} bytes in "
              f"{rep.data_segments} segments, "
              f"{rep.establish_exchanges}+{rep.terminate_exchanges} control "
              f"exchanges, {rep.interests_total} interests, "
              f"digest {'ok' if rep.matched else 'MISMATCH'}")
        rows.append((rep.mode, ns.payload_bytes, rep.data_segments,
                     rep.establish_exchanges, rep.terminate_exchanges,
                     rep.interests_total, rep.matched))
    matched = all(r.matched for r in reports)
    failures = [] if ns.down or matched else ["payload digest mismatch"]
    log_summary = None
    if ns.interest_log is not None:
        try:
            tunnel.write_interest_log(ns.interest_log, interests)
        except OSError as exc:
            raise ParseError(f"--interest-log {ns.interest_log}: "
                             f"{exc.strerror}") from None
        if tunnel.read_interest_log(ns.interest_log) != interests:
            failures.append("interest log read back differs")
        log_summary = {"path": ns.interest_log, "interests": len(interests)}
        print(f"interest log: {len(interests)} interests in "
              f"{ns.interest_log}")
    summary = {
        "payload_bytes": ns.payload_bytes,
        "segment_size": ns.segment_size,
        "seed": ns.seed,
        "down_nodes": list(ns.down),
        "modes": [m.value for m in modes],
        "all_digests_match": matched,
        "timeout": timeout_msg,
        "interest_log": log_summary,
    }
    return (("mode", "payload_bytes", "data_segments", "establish_exchanges",
             "terminate_exchanges", "interests_total", "digests_match"),
            rows, summary, ", ".join(failures) or None)


def _cmd_registry_demo(ns, out: Path) -> tuple:
    if ns.identifiers < 4:
        raise registry.RegistryError("need at least four identifiers")
    store = out / "registry_records.jsonl"
    hier = registry.Hierarchy.default(store_path=store)
    store.write_text("")
    domains = sorted(hier.domains(), key=lambda d: d.name.text)
    owner = Identifier.identity("operator")
    registered: list[tuple[registry.Domain, Identifier]] = []
    records: list[registry.RegistrationRecord] = []
    kind_counts = {"content": 0, "id": 0, "geo": 0, "ip": 0}
    for i in range(ns.identifiers):
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
        forwarding = ForwardingInfo(face_id=i % 64) if style < 2 else None
        records.append(hier.register(domain, registry.RegistrationRequest(
            ident, owner, forwarding=forwarding)))
        kind_counts[ident.kind.value] += 1
        registered.append((domain, ident))

    # one bound IP identifier, resolvable only where the binding lives
    bind_domain, bind_target = next(
        (d, i) for d, i in registered if i.kind.value == "content")
    bound_ip = Identifier.ip("10.0.0.9")
    records.append(hier.register(bind_domain, registry.RegistrationRequest(
        bound_ip, owner, binds_to=bind_target.value)))
    kind_counts["ip"] += 1

    duplicates_rejected = 0
    try:
        hier.register(domains[-1], registry.RegistrationRequest(
            registered[0][1], owner, forwarding=ForwardingInfo(face_id=1)))
    except registry.Duplicate:
        duplicates_rejected += 1

    rng = np.random.default_rng(ns.seed)
    probes = [(domains[int(rng.integers(0, len(domains)))], ident)
              for _, ident in registered]
    probes += [(domains[0], Identifier.content("/never/registered")),
               (domains[0], Identifier.ip("203.0.113.9"))]
    results = [hier.resolve(origin, ident) for origin, ident in probes]
    rows = [(origin.name.text, ident.text, res.outcome.value, len(res.hops),
             "|".join(h.text for h in res.hops))
            for (origin, ident), res in zip(probes, results)]
    *swept, nf, px = results
    unresolved = sum(res.outcome is not registry.ResolutionOutcome.RESOLVED
                     for res in swept)

    problems = hier.verify_consistency()
    print(f"registered {len(records)} identifiers across "
          f"{len(domains)} domains "
          f"(content {kind_counts['content']}, id {kind_counts['id']}, "
          f"geo {kind_counts['geo']}, ip {kind_counts['ip']})")
    print(f"resolution sweep: {len(registered) - unresolved}/"
          f"{len(registered)} resolved, duplicate rejected: "
          f"{duplicates_rejected}, not-found hops: {len(nf.hops)}, "
          f"ip proxy: {px.outcome.value}")
    print(f"consistency problems: {len(problems)}")
    checks = (
        ("consistency problems found", bool(problems)),
        ("registered identifiers unresolved", unresolved > 0),
        ("store read back differs",
         registry.read_record_store(store) != records),
        ("unknown name not reported not-found",
         nf.outcome is not registry.ResolutionOutcome.NOT_FOUND),
        ("unknown IP not handed to the IP proxy",
         px.outcome is not registry.ResolutionOutcome.PROXIED_TO_IP),
        ("duplicate not rejected exactly once", duplicates_rejected != 1))
    failed_checks = [name for name, failed in checks if failed]
    summary = {
        "identifiers": ns.identifiers,
        "seed": ns.seed,
        "kind_counts": kind_counts,
        "duplicates_rejected": duplicates_rejected,
        "unresolved": unresolved,
        "not_found_outcome": nf.outcome.value,
        "ip_proxy_outcome": px.outcome.value,
        "consistency_problems": problems,
        "failed_checks": failed_checks,
        "record_store": "registry_records.jsonl",
    }
    return (("origin", "identifier", "outcome", "hop_count", "hops"),
            rows, summary,
            f"registry invariants violated: {', '.join(failed_checks)}"
            if failed_checks else None)


if __name__ == "__main__":
    main()
