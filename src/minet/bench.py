"""Benchmark drivers for the forwarding table.

Three drivers, all deterministic for a fixed seed:

* `run_lookup_bench` — probe-count tables and wall-clock comparison of
  the longest-first linear scan against the prefix-length binary search,
  over either execution route (the numpy batch kernels or the per-name
  dict-backed table that is their oracle);
* `run_consistency_drill` — randomized insert/delete churn with
  structural integrity checks at fixed intervals and a final sweep
  comparing the binary-search path, the linear oracle, and an
  independent reference map;
* `measure_build_scaling` — wall time to populate a table at two sizes,
  for size-scaling checks.

Results are plain dataclasses so the command-line layer can serialize
them without knowing how they were produced.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import workload
from .hpt import Hpt, kernels, pack_fib, pack_queries
from .names import ContentName, ForwardingInfo
from .workload import WorkloadSpec

ROUTES = ("kernel", "dict")
DRILL_MAX_LEN = 6            # components per churned name; lookups go 2 deeper
BUILD_MEAN_ENTRY_LEN = 4.0   # mean components per build-scaling entry
BUILD_REPEATS = 3            # alternating small/big builds per report


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class LookupRow:
    mode: str
    mean_entry_len: float
    query_len: int
    linear_probes: float
    binary_probes: float
    ratio_pct: float              # linear probes per binary probe, in percent
    linear_wall_s: float
    binary_wall_s: float


@dataclass(frozen=True)
class LookupReport:
    entry_count: int
    query_count: int
    route: str                    # kernel/<backend> or dict
    build_wall_s: float
    table_bytes_per_name: float   # build RSS growth / entries (fresh process)
    pack_wall_s: float
    query_pack_wall_s: float      # pack_queries, summed over query lengths
    entry_len_mean: float         # realised mean stored-name length
    rows: tuple[LookupRow, ...]


def run_lookup_bench(*, mode: str = "miss", entry_count: int = 100_000,
                     query_count: int = 50_000, mean_entry_len: float = 4.0,
                     query_lens: tuple[int, ...] = (6, 7, 8, 9, 10),
                     seed: int = 7, route: str = "kernel") -> LookupReport:
    if route not in ROUTES:
        raise BenchError(f"unknown route {route!r}; expected one of {ROUTES}")
    if not query_lens:
        raise BenchError("need at least one query length")
    if query_count < 1:
        raise BenchError("need at least one query")
    spec = WorkloadSpec(entry_count=entry_count, query_count=query_count,
                        mean_entry_len=mean_entry_len,
                        query_len=query_lens[0], mode=mode, seed=seed)
    entries, lengths = workload.generate_entries(spec)

    rss0 = _rss_bytes()
    t0 = time.perf_counter()
    hpt = Hpt()
    for name, fwd in entries:
        hpt.insert(name, fwd)
    build_wall = time.perf_counter() - t0
    bytes_per_name = (_rss_bytes() - rss0) / entry_count

    packed = None
    pack_wall = 0.0
    if route != "dict":
        t0 = time.perf_counter()
        packed = pack_fib(hpt)
        pack_wall = time.perf_counter() - t0

    rows = []
    query_pack_wall = 0.0
    route_label = "dict" if route == "dict" else f"kernel/{kernels.BACKEND}"
    for n in query_lens:
        queries = workload.generate_queries(
            dataclasses.replace(spec, query_len=n), entries)
        if route == "dict":
            row = _dict_row(hpt, queries, mode, mean_entry_len, n)
        else:
            t0 = time.perf_counter()
            fps, lens = pack_queries(packed, queries)
            query_pack_wall += time.perf_counter() - t0
            row = _kernel_row(packed, fps, lens, mode, mean_entry_len, n)
        rows.append(row)
    return LookupReport(entry_count, query_count, route_label, build_wall,
                        bytes_per_name, pack_wall, query_pack_wall, float(lengths.mean()),
                        tuple(rows))


def _rss_bytes() -> int:
    """This process's resident set size, read from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _kernel_row(packed, fps, lens, mode, m, n) -> LookupRow:
    t0 = time.perf_counter()
    *_, bin_probes = kernels.lpm_batch(
        fps, lens, packed.table_fp, packed.table_node,
        np.uint64(packed.mask), packed.state, packed.parent)
    bin_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    *_, lin_probes = kernels.linear_batch(
        fps, lens, packed.table_fp, packed.table_node,
        np.uint64(packed.mask), packed.state)
    lin_wall = time.perf_counter() - t0
    return _row(mode, m, n, float(lin_probes.mean()),
                float(bin_probes.mean()), lin_wall, bin_wall)


def _dict_row(hpt: Hpt, queries, mode, m, n) -> LookupRow:
    t0 = time.perf_counter()
    bin_total = 0
    for q in queries:
        bin_total += hpt.lookup_lpm(q).probes
    bin_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    lin_total = 0
    for q in queries:
        lin_total += hpt.lookup_oracle(q).probes
    lin_wall = time.perf_counter() - t0
    count = len(queries)
    return _row(mode, m, n, lin_total / count, bin_total / count,
                lin_wall, bin_wall)


def _row(mode, m, n, lin_probes, bin_probes, lin_wall, bin_wall) -> LookupRow:
    ratio = 100.0 * lin_probes / bin_probes if bin_probes else float("inf")
    return LookupRow(mode, m, n, lin_probes, bin_probes, ratio,
                     lin_wall, bin_wall)


# -- consistency drill ---------------------------------------------------------

@dataclass(frozen=True)
class DrillReport:
    operations: int
    lookups: int
    integrity_checks: int
    integrity_problems: int
    mismatches: int
    final_entries: int
    wall_s: float

    @property
    def clean(self) -> bool:
        return self.integrity_problems == 0 and self.mismatches == 0


def _random_name(rng, alphabet: int, max_len: int,
                 prefix: str = "c") -> ContentName:
    length = int(rng.integers(1, max_len + 1))
    comps = rng.integers(0, alphabet, size=length)
    return ContentName(tuple(f"{prefix}{int(c)}" for c in comps))


def _reference_lpm(reference: dict[tuple, ForwardingInfo],
                   name: ContentName) -> Optional[tuple]:
    comps = name.components
    for k in range(len(comps), 0, -1):
        if comps[:k] in reference:
            return comps[:k]
    return None


def run_consistency_drill(*, operations: int = 10_000, lookups: int = 10_000,
                          check_every: int = 1_000, seed: int = 11,
                          alphabet: int = 32) -> DrillReport:
    """Churn the table with random upserts/deletes, verify structure at a
    fixed cadence, then cross-check three lookup routes name by name."""
    if operations < 0 or lookups < 0:
        raise BenchError("operations and lookups must not be negative")
    if check_every < 1:
        raise BenchError("check_every must be at least 1")
    rng = np.random.default_rng(seed)
    hpt = Hpt()
    reference: dict[tuple, ForwardingInfo] = {}
    keys: list[tuple] = []
    t0 = time.perf_counter()
    checks = problems = 0
    for i in range(1, operations + 1):
        roll = rng.random()
        if roll < 0.55 or not keys:
            name = _random_name(rng, alphabet, DRILL_MAX_LEN)
            fwd = ForwardingInfo(face_id=int(rng.integers(0, 4096)))
            hpt.insert(name, fwd)
            if name.components not in reference:
                keys.append(name.components)
            reference[name.components] = fwd
        elif roll < 0.9:
            idx = int(rng.integers(0, len(keys)))
            comps = keys[idx]
            keys[idx] = keys[-1]
            keys.pop()
            del reference[comps]
            hpt.delete(ContentName(comps))
        else:
            # deleting an absent name must be a harmless no-op; the "m"
            # component namespace is never inserted, so absence is sure
            hpt.delete(_random_name(rng, alphabet, DRILL_MAX_LEN,
                                    prefix="m"))
        if i % check_every == 0:
            checks += 1
            problems += len(hpt.verify_integrity())

    mismatches = 0
    for _ in range(lookups):
        name = _random_name(rng, alphabet, DRILL_MAX_LEN + 2)
        got = hpt.lookup_lpm(name)
        oracle = hpt.lookup_oracle(name)
        expect = _reference_lpm(reference, name)
        ok = (got.hit == oracle.hit
              and got.matched_prefix == oracle.matched_prefix
              and got.forwarding == oracle.forwarding)
        if expect is None:
            ok = ok and not got.hit
        else:
            ok = (ok and got.hit
                  and got.matched_prefix.components == expect
                  and got.forwarding == reference[expect])
        if not ok:
            mismatches += 1
    wall = time.perf_counter() - t0
    return DrillReport(operations, lookups, checks, problems, mismatches,
                       hpt.real_count(), wall)


# -- build scaling ---------------------------------------------------------

@dataclass(frozen=True)
class BuildScalingReport:
    small_entries: int
    big_entries: int
    small_wall_s: float
    big_wall_s: float

    @property
    def ratio(self) -> float:
        return self.big_wall_s / self.small_wall_s


def _timed_insert(entries) -> float:
    hpt = Hpt()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for name, fwd in entries:
            hpt.insert(name, fwd)
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return wall


def measure_build_scaling(small: int = 100_000, big: int = 1_000_000, *,
                          seed: int = 7) -> BuildScalingReport:
    """Build-time growth from `small` to `big` entries.

    Both tables are populated from slices of one entry stream of mean
    length BUILD_MEAN_ENTRY_LEN.  A full-size throwaway build first
    faults in the allocator arenas, then BUILD_REPEATS alternating
    small/big builds run back to back and the medians go into the
    report, so the ratio reflects table growth rather than process
    warm-up or scheduling noise.
    """
    if not 0 < small < big:
        raise BenchError("need 0 < small < big")
    entries, _ = workload.generate_entries(WorkloadSpec(
        entry_count=big, query_count=0, mean_entry_len=BUILD_MEAN_ENTRY_LEN,
        seed=seed))
    _timed_insert(entries)
    small_walls, big_walls = [], []
    for _ in range(BUILD_REPEATS):
        small_walls.append(_timed_insert(entries[:small]))
        big_walls.append(_timed_insert(entries))
    return BuildScalingReport(small, big, float(np.median(small_walls)),
                              float(np.median(big_walls)))
