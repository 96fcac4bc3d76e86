#!/usr/bin/env python3
"""Benchmark of the minet workbench: fib-lookup, consensus, resolve-fetch.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload fib-lookup --seed 1 --seconds 25 --trace 0

Each workload runs in one process, on one thread, as a closed loop with a
single client; spec.json holds its shape, BENCHMARK.json why it was
chosen.  Inputs come from `--seed` alone.  Every output is checked
against an oracle.  Reported times are scaled to a reference host speed,
measured between operations (common.py says why and how); the unscaled
times are printed beside them.
With `--trace 0` the run reports end-to-end metrics; with `--trace 1` it
records spans around each layer and reports per-layer busy times and
counts instead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it,
starting with "detail ", holds everything else the run measured.

`--workload all` runs every workload untraced and traced on `--seed`,
and untraced on a held-out seed, each in its own process.  It prints the
tracing overhead, checks that the count metrics repeat exactly, and
exits non-zero when a check fails.

`--size toy` runs the same code paths and checks at a small shape, for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

from common import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fib-lookup", "consensus", "resolve-fetch")
HELD_OUT_SEED = 20_260_917   # never used while the benchmark was tuned
MIN_SELF_SHARE = 0.95        # reported span self time per loop wall second
PHASES = ("bench.", "trace.")  # the benchmark's own spans, not a layer's

# per-layer metric -> (unit, span, denominator, scale): busy (self) time of
# the span per unit of the denominator; "calls" means per call of the span
BUSY = {
    "workload.generate_s": ("s", "workload.generate_workload", "calls", 1),
    "hpt.insert_us": ("us", "hpt.insert", "calls", 1e6),
    "packed.pack_fib_s": ("s", "packed.pack_fib", "calls", 1),
    "packed.pack_queries_us": ("us/query", "packed.pack_queries", "queries",
                               1e6),
    "kernels.lpm_batch_us": ("us/query", "kernels.lpm_batch", "queries", 1e6),
    "hpt.lookup_lpm_us": ("us", "hpt.lookup_lpm", "calls", 1e6),
    "apov.make_block_ms": ("ms/round", "apov.make_block", "rounds", 1e3),
    "apov.cast_votes_ms": ("ms/round", "apov.cast_votes", "rounds", 1e3),
    "apov.sign_vote_ms": ("ms/round", "apov.sign_vote", "rounds", 1e3),
    "apov.tally_and_seal_ms": ("ms/round", "apov.tally_and_seal", "rounds",
                               1e3),
    "apov.assemble_group_ms": ("ms/round", "apov.assemble_group", "rounds",
                               1e3),
    "apov.chain_append_ms": ("ms/round", "apov.chain_append", "rounds", 1e3),
    "simulate.self_ms": ("ms/round", "simulate.run_rounds", "rounds", 1e3),
    "registry.register_us": ("us", "registry.register", "calls", 1e6),
    "registry.resolve_us": ("us", "registry.resolve", "calls", 1e6),
    "tunnel.connect_us": ("us", "tunnel.connect", "calls", 1e6),
    "tunnel.establish_us": ("us", "tunnel.establish", "calls", 1e6),
    "tunnel.send_us_per_segment": ("us/segment", "tunnel.send", "segments",
                                   1e6),
    "tunnel.terminate_us": ("us", "tunnel.terminate", "calls", 1e6),
    "tunnel.digest_us": ("us", "tunnel.digest", "calls", 1e6),
}
# per-layer metric -> (unit, span, denominator): calls of the span
CALLS = {
    "apov.chain_append_calls": ("count/round", "apov.chain_append", "rounds"),
    "hpt.lookup_lpm_calls_per_resolve": ("count/resolve", "hpt.lookup_lpm",
                                         "resolves"),
}
# per-layer metric -> unit: counted by the workload over its fixed window
COUNTS = {
    "workload.mean_len": "components",
    "hpt.nodes": "count",
    "kernels.probes_per_query": "probes/query",
    "kernels.hit_share": "share",
    "kernels.backtrack_share": "share",
    "packed.vocab_added": "count/batch",
    "simulate.virtual_round_s": "s",
    "registry.hops_per_resolve": "hops/resolve",
    "registry.cache_hit_share": "share",
    "registry.forwarding_lost_share": "share",
    "tunnel.interests_per_request": "count/request",
}


def load_workload(name: str):
    """Import the workload module; minet must come from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "minet", "__init__.py")):
        raise SystemExit(f"no minet sources under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import minet
    if os.path.dirname(os.path.dirname(os.path.abspath(minet.__file__))) != SRC:
        raise SystemExit(f"minet imported from {minet.__file__}, not {SRC}")
    return importlib.import_module(name.replace("-", "_"))


def git_state() -> dict:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"rev": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}
    if rev.returncode or status.returncode:
        return {"rev": None, "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(seed: int) -> dict:
    import numpy
    from minet.hpt import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": kernels.BACKEND, "cpu_count": os.cpu_count(),
            "git": git_state(), "seed": seed}


def end_to_end(outcome, host) -> dict:
    """The metrics BENCHMARK.json bounds, under the same names on every
    workload, from times scaled to the reference host speed (common.py).
    Throughput counts queries, rounds or requests per second of operation
    time, over the whole loop; latency is the median per batch, round or
    request.  Tail percentiles stay out: consensus completes too few
    rounds in a run for a tail with ten samples beyond it, so they are
    reported with each workload's own metrics instead."""
    latency = host.scaled_latency(outcome.latency_s)
    return {"setup_s": (statistics.median(host.scaled_setup(outcome.setup_s)),
                        "s"),
            "peak_rss_mb": (outcome.rss_mib, "MiB"),
            "throughput": (outcome.work / sum(latency), "1/s"),
            "latency_ms.p50": (statistics.median(latency) * 1e3, "ms")}


def unscaled(outcome, host) -> dict:
    """The time metrics as measured, and the host's reference-loop time."""
    return {"setup_s": (statistics.median(outcome.setup_s), "s"),
            "throughput": (outcome.work / sum(outcome.latency_s), "1/s"),
            "latency_ms.p50": (statistics.median(outcome.latency_s) * 1e3,
                               "ms"),
            "reference_ms": (statistics.median(host.readings) * 1e3, "ms")}


def workload_named(module, outcome, e2e, host) -> dict:
    """End-to-end metrics under the workload's own names: its rate, median
    latency and the highest of p99, p95 and p90 with at least ten samples
    beyond it, then the rates per busy second the workload measured
    itself; all scaled to the reference host speed."""
    import numpy
    op = module.OPERATION
    rate, unit = module.RATE
    named = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
             rate: (e2e["throughput"][0], unit),
             f"{op}_ms.p50": e2e["latency_ms.p50"]}
    ops = len(outcome.latency_s)
    for q in (99, 95, 90):
        if ops * (100 - q) / 100 >= 10:
            named[f"{op}_ms.p{q}"] = (float(numpy.percentile(
                host.scaled_latency(outcome.latency_s), q)) * 1e3, "ms")
            break
    named.update({name: (value / host.factor(), unit)
                  for name, (value, unit) in outcome.named.items()})
    return named


def coverage(busy: dict[str, float]) -> tuple[float, list[str]]:
    """Busy seconds in spans that a per-layer metric reports or that are
    the benchmark's own phases, and the names of all other spans: program
    time that no per-layer figure would show."""
    reported = {span for _, span, _, _ in BUSY.values()}
    shown = [name in reported or name.startswith(PHASES) for name in busy]
    return (sum(t for t, ok in zip(busy.values(), shown) if ok),
            sorted(name for name, ok in zip(busy, shown) if not ok))


def per_layer(outcome, host) -> dict:
    setup_busy, setup_calls = outcome.spans["setup"]
    busy, calls = outcome.spans["loop"]
    out = {}
    for metric, (unit, span, per, scale) in BUSY.items():
        b, c = busy, calls
        if per == "calls" and not calls.get(span):
            b, c = setup_busy, setup_calls   # a layer that runs in set-up only
        denominator = c.get(span, 0) if per == "calls" else outcome.per.get(per, 0)
        value = (b.get(span, 0.0) * scale * host.factor() / denominator
                 if denominator else 0.0)
        out[metric] = (value, unit)
    for metric, (unit, span, per) in CALLS.items():
        denominator = outcome.per.get(per, 0)
        out[metric] = (calls.get(span, 0) / denominator if denominator else 0.0,
                       unit)
    for metric, unit in COUNTS.items():
        out[metric] = (outcome.counts.get(metric, 0.0), unit)
    out["trace.self_share"] = (coverage(busy)[0] / outcome.loop_s, "share")
    return out


def run_one(args) -> int:
    module = load_workload(args.workload)
    from common import Host
    from spans import NullTracer, Tracer, patched
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)["workloads"][args.workload]
    shape = spec[args.size]
    env = environment(args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    host = Host()
    with patched(tracer, module.span_targets()):
        outcome = module.run(shape, args.seed, args.seconds, tracer, host)
    e2e = end_to_end(outcome, host)
    raw = unscaled(outcome, host)
    named = workload_named(module, outcome, e2e, host)
    layers = per_layer(outcome, host) if args.trace else {}
    if args.trace and layers["trace.self_share"][0] < MIN_SELF_SHARE:
        raise SystemExit(f"reported span self time covers only "
                         f"{layers['trace.self_share'][0]:.3f} of loop wall; "
                         f"unreported spans: "
                         f"{coverage(outcome.spans['loop'][0])[1]}")
    known = getattr(module, "KNOWN_DEFECTS", ())
    unexpected = {k: v for k, v in outcome.failures.items() if k not in known}
    correct = not unexpected

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    git = env["git"]
    print(f"env python={env['python']} numpy={env['numpy']} "
          f"numba_importable={env['numba_importable']} "
          f"backend={env['kernel_backend']} cpus={env['cpu_count']} "
          f"git={git['rev'] or 'unavailable'}"
          f"{'+dirty' if git['dirty'] else ''}")
    print(f"shape {json.dumps(shape, sort_keys=True)}")
    print(f"end-to-end (workload names; times scaled to a reference loop "
          f"of {REFERENCE_S * 1e3:g} ms):")
    for name, (value, unit) in named.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'fail_share':<34} {outcome.failed / outcome.attempted:>14.6g} "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    print(f"  latencies over {len(outcome.latency_s)} operations of "
          f"{outcome.work / len(outcome.latency_s):g} unit(s) each")
    if outcome.failures:
        print(f"  failures by kind: {outcome.failures}; known defects, "
              f"not counted as failed: {list(known) or 'none'}")
    print(f"  setup_s repetitions: {[round(s, 4) for s in outcome.setup_s]}")
    print("unscaled:")
    for name, (value, unit) in raw.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if layers:
        print("per-layer (busy = self time of the layer's spans):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"counts over the first {shape['window']} operations "
          f"(repeat exactly for a seed): {json.dumps(outcome.counts)}")
    metrics = layers if args.trace else e2e
    detail = {"workload": args.workload, "size": args.size,
              "trace": args.trace, "env": env, "shape": shape,
              "named": named, "end_to_end": e2e, "unscaled": raw,
              "per_layer": layers,
              "counts": outcome.counts, "failures": outcome.failures,
              "unexpected_failures": unexpected,
              "fail_share": [outcome.failed, outcome.attempted],
              "setup_s_reps": outcome.setup_s,
              "reference_s": host.readings}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def child(workload: str, seed: int, trace: int, args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed={seed} trace={trace} exited "
                         f"{proc.returncode}")
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[-2][len("detail "):])
    detail["result"] = json.loads(lines[-1])
    return detail


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        plain = child(workload, args.seed, 0, args)
        traced = child(workload, args.seed, 1, args)
        held = child(workload, HELD_OUT_SEED, 0, args)
        print(f"== {workload} (seed {args.seed}; held-out seed "
              f"{HELD_OUT_SEED})")
        print(f"  {'metric':<28} {'untraced':>12} {'traced':>12} "
              f"{'overhead':>12} unit")
        for name, (value, unit) in plain["named"].items():
            if name not in traced["named"]:   # a tail the traced run lacks
                continue
            other = traced["named"][name][0]
            print(f"  {name:<28} {value:>12.6g} {other:>12.6g} "
                  f"{other - value:>+12.6g} {unit}")
        for label, result in (("untraced", plain), ("traced", traced),
                              ("held-out", held)):
            failed, attempted = result["fail_share"]
            print(f"  {label:<9} correct={result['result']['correct']} "
                  f"fail_share={failed / attempted:.4f} "
                  f"({failed} of {attempted}) failures={result['failures']}")
            ok &= result["result"]["correct"]
        if plain["counts"] != traced["counts"]:
            ok = False
            print(f"  COUNT MISMATCH between two runs of seed {args.seed}: "
                  f"{plain['counts']} != {traced['counts']}")
        else:
            print(f"  counts repeat exactly: {plain['counts']}")
        print("  per-layer (traced run):")
        for name, (value, unit) in traced["per_layer"].items():
            print(f"    {name:<34} {value:>14.6g} {unit}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
