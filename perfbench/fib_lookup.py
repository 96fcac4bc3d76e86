"""fib-lookup: batch longest-prefix match over a packed forwarding table.

Set-up builds an `Hpt` from names the benchmark generates itself, packs
it, and times `minet.workload.generate_workload` at the same size (a
layer of its own whose entries the loop does not use).  Each loop
operation makes one batch of mixed queries, runs it through
`pack_queries` and `kernels.lpm_batch` (the timed part) and checks every
answer (hit, matched length, face, probes) against `Hpt.lookup_lpm` and
`Hpt.lookup_oracle`, and its hit, length and face against what the
generator knows the answer must be.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import minet.hpt.kernels as kernels
import minet.hpt.packed as packed_mod
import minet.workload as workload
from minet.hpt import Hpt
from minet.names import ContentName, ForwardingInfo

from common import Host, Outcome, SetupError, closed_loop, repeat_setup

MAX_LEN = 10
# query kinds, in the order of the `mix` shares in spec.json
HIT, BACKTRACK, VIRTUAL_MISS, UNSEEN_MISS = range(4)
OPERATION = "lookup_batch"
RATE = ("lookup_qps", "queries/s")


def span_targets():
    return [(Hpt, "insert", "hpt.insert"),
            (Hpt, "lookup_lpm", "hpt.lookup_lpm"),
            (packed_mod, "pack_fib", "packed.pack_fib"),
            (packed_mod, "pack_queries", "packed.pack_queries"),
            (kernels, "lpm_batch", "kernels.lpm_batch"),
            (workload, "generate_workload", "workload.generate_workload")]


def length_pmf(mean: float) -> np.ndarray:
    """pmf over lengths 1..MAX_LEN of a truncated geometric with this mean."""
    lengths = np.arange(1, MAX_LEN + 1)
    lo, hi = 1e-9, 1 - 1e-9
    for _ in range(60):
        p = (lo + hi) / 2
        w = (1 - p) ** (lengths - 1)
        if (w * lengths).sum() / w.sum() > mean:
            lo = p
        else:
            hi = p
    w = (1 - p) ** (lengths - 1)
    return w / w.sum()


def table_names(seed: int, count: int, mean_len: float, share: float):
    """`count` distinct names with truncated-geometric lengths.

    With probability `share` a name starts with a prefix of an earlier
    name, so names share prefixes; every other component is fresh, which
    keeps the names distinct without a dedup pass.  Also returns, for
    each name that created filler entries, its deepest filler as
    (name index, depth, depth of the nearest real ancestor or 0).  A
    later name never lands on an existing entry, so a filler's state is
    fixed when it is created.
    """
    rng = np.random.default_rng([seed, 0])
    lengths = rng.choice(np.arange(1, MAX_LEN + 1), size=count,
                         p=length_pmf(mean_len))
    shared = rng.random(count) < share
    pick = rng.random(count)
    cut = rng.random(count)
    names: list[tuple[str, ...]] = []
    real_at: list[list[int]] = []   # deepest real prefix at each depth
    fillers = []
    fresh = 0
    for i in range(count):
        length = int(lengths[i])
        head: tuple[str, ...] = ()
        head_real: list[int] = []
        if i and length > 1 and shared[i]:
            j = int(pick[i] * i)
            k = 1 + int(cut[i] * min(length - 1, len(names[j])))
            head, head_real = names[j][:k], real_at[j][:k]
        k = len(head)
        names.append(head + tuple(f"c{fresh + t}" for t in range(length - k)))
        fresh += length - k
        above = head_real[-1] if head_real else 0
        if length - k >= 2:
            fillers.append((i, length - 1, above))
        real_at.append(head_real + [above] * (length - k - 1) + [length])
    return names, fillers


@dataclass
class Table:
    hpt: Hpt
    packed: packed_mod.PackedFib
    names: list
    face_of: dict       # name -> face it was stored with
    semi: list          # (name index, depth, real ancestor depth) of fillers
    virtual: list       # (name index, depth) of virtual fillers
    workload_mean_len: float


def build_table(shape: dict, seed: int) -> Table:
    names, fillers = table_names(seed, shape["entries"], shape["mean_len"],
                                 shape["share"])
    faces = np.random.default_rng([seed, 2]).integers(0, 4096, len(names))
    face_of = dict(zip(names, faces.tolist()))
    hpt = Hpt()
    for comps, face in face_of.items():
        hpt.insert(ContentName(comps), ForwardingInfo(face))
    packed = packed_mod.pack_fib(hpt)
    spec = workload.WorkloadSpec(entry_count=shape["entries"], query_count=0,
                                 mean_entry_len=shape["mean_len"], seed=seed)
    mean_len = float(workload.generate_workload(spec).entry_lengths.mean())
    return Table(hpt, packed, names, face_of,
                 [(i, d, above) for i, d, above in fillers if above],
                 [(i, d) for i, d, above in fillers if not above], mean_len)


def make_batch(table: Table, shape: dict, seed: int, b: int):
    """Batch `b` of queries and, per query, the depth of its deepest
    stored prefix, and the matched length and face the answer must have
    (0 and -1 for a miss).  Every appended component is one the table
    never saw: hits extend a real name, backtracks a semi-virtual filler
    (and match its nearest real ancestor), misses a virtual filler or
    nothing at all."""
    rng = np.random.default_rng([seed, 1, b])
    n = shape["batch"]
    kinds = rng.choice(4, size=n, p=shape["mix"]).tolist()
    picks = rng.random(n).tolist()
    extra = rng.integers(1, 4, size=n).tolist()
    names, semi, virtual = table.names, table.semi, table.virtual
    queries = []
    deepest = np.zeros(n, dtype=np.int32)
    expect = np.zeros((2, n), dtype=np.int64)     # matched length, face
    expect[1] = -1
    for q in range(n):
        kind = kinds[q]
        if kind == HIT:
            base = names[int(picks[q] * len(names))]
            expect[:, q] = len(base), table.face_of[base]
        elif kind == BACKTRACK:
            i, d, above = semi[int(picks[q] * len(semi))]
            base = names[i][:d]
            expect[:, q] = above, table.face_of[base[:above]]
        elif kind == VIRTUAL_MISS:
            i, d = virtual[int(picks[q] * len(virtual))]
            base = names[i][:d]
        else:
            base = ()
        deepest[q] = len(base)
        queries.append(ContentName(
            base + tuple(f"u{b}.{q}.{t}" for t in range(extra[q]))))
    return queries, deepest, expect


def mismatches(table: Table, queries, expect, hit, node, length,
               probes) -> tuple[int, int, int]:
    """Queries whose kernel answer disagrees with either dict route,
    queries whose answer disagrees with the generator's, and queries
    that fail either check."""
    face = table.packed.face
    lpm, oracle = table.hpt.lookup_lpm, table.hpt.lookup_oracle
    routes = truth = bad = 0
    for q, name in enumerate(queries):
        got, ref = lpm(name), oracle(name)
        if hit[q]:
            ok = (got.hit and ref.hit
                  and len(got.matched_prefix) == len(ref.matched_prefix)
                  == length[q]
                  and got.forwarding == ref.forwarding
                  and got.forwarding.face_id == face[node[q]])
            right = (length[q] == expect[0, q]
                     and face[node[q]] == expect[1, q])
        else:
            ok = not got.hit and not ref.hit
            right = expect[0, q] == 0
        ok = ok and probes[q] == got.probes
        routes += not ok
        truth += not right
        bad += not (ok and right)
    return routes, truth, bad


def run(shape: dict, seed: int, seconds: float, tracer,
        host: Host) -> Outcome:
    table, setup_s = repeat_setup(lambda: build_table(shape, seed),
                                  shape["setup_reps"], tracer, host)
    if not table.semi or not table.virtual:
        raise SetupError("table has no semi-virtual or no virtual fillers")
    spans = {"setup": tracer.take()}
    packed = table.packed
    mask = np.uint64(packed.mask)
    window = shape["window"]
    latency = []
    win = dict(probes=0, hits=0, backtracks=0, vocab=0, failed=0)
    totals = dict(queries=0, failed=0)
    failures: dict[str, int] = {}

    def step(b: int) -> None:
        idx = tracer.begin("bench.queries")
        queries, deepest, expect = make_batch(table, shape, seed, b)
        tracer.end(idx)
        vocab_before = len(packed.vocab)
        t0 = time.perf_counter()
        fps, lens = packed_mod.pack_queries(packed, queries)
        hit, node, length, probes = kernels.lpm_batch(
            fps, lens, packed.table_fp, packed.table_node, mask,
            packed.state, packed.parent)
        latency.append(time.perf_counter() - t0)
        idx = tracer.begin("bench.check")
        routes, truth, bad = mismatches(table, queries, expect, hit, node,
                                        length, probes)
        tracer.end(idx)
        for kind, count in (("kernel_mismatch", routes),
                            ("wrong_answer", truth)):
            if count:
                failures[kind] = failures.get(kind, 0) + count
        totals["queries"] += len(queries)
        totals["failed"] += bad
        if b < window:
            win["probes"] += int(probes.sum())
            win["hits"] += int(np.count_nonzero(hit))
            win["backtracks"] += int(np.count_nonzero(
                (hit != 0) & (length < deepest)))
            win["vocab"] += len(packed.vocab) - vocab_before
            win["failed"] += bad

    _, loop_s, rss = closed_loop(step, seconds, window, tracer, host)
    spans["loop"] = tracer.take()
    win_queries = window * shape["batch"]
    queries = totals["queries"]
    return Outcome(
        setup_s=setup_s, latency_s=latency, work=queries, named={},
        counts={"kernels.probes_per_query": win["probes"] / win_queries,
                "kernels.hit_share": win["hits"] / win_queries,
                "kernels.backtrack_share": win["backtracks"] / win_queries,
                "packed.vocab_added": win["vocab"] / window,
                "workload.mean_len": table.workload_mean_len,
                "hpt.nodes": len(table.hpt.index),
                "failed_in_window": win["failed"]},
        per={"queries": queries},
        attempted=queries, rss_mib=rss, failures=failures,
        failed=totals["failed"], loop_s=loop_s, spans=spans)
