"""Synthetic name workloads for forwarding-table benchmarks.

Stored-name lengths are drawn from a geometric distribution truncated to
[1, 10] with mean M.  A length L holds at most alphabet**L distinct
names, so one explicit spill rule applies: ranked by drawn length, then
by position in the stream, the names fill each length up to its
capacity and the rest move on to the next length.  `entry_lengths`
holds the realised lengths; `InfeasibleSpec` is raised only when names
are left over after length 10.  Each length's names are drawn without
replacement, so no name is ever redrawn.

Entries come from the spec's seed alone, and queries from the spec and
the entries, so one entry set serves every query length.  Query lengths
cycle a symmetric window so their empirical mean is exactly the
requested value:

* miss mode: lengths N-w..N+w (w = min(2, N-1)), every component drawn
  from a pool disjoint from entry components, so no query shares any
  indexed prefix with the table;
* hit mode: each query extends a stored name of length L to total length
  L + (N-M) + d with d cycling -w..w (w = min(2, N-M)); the suffix uses
  the query-only pool, so the stored name is exactly the longest real
  prefix and longest-first scans probe exactly length - L + 1 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from minet.names import ContentName, ForwardingInfo

MAX_NAME_LEN = 10
_INT64_KEYS = 2 ** 63


class InfeasibleSpec(ValueError):
    """Workload parameters cannot be satisfied."""


@dataclass(frozen=True)
class WorkloadSpec:
    entry_count: int = 100_000
    query_count: int = 50_000
    mean_entry_len: float = 4.0      # M
    query_len: int = 8               # N, mean query length
    mode: str = "miss"               # hit | miss | mixed
    alphabet: int = 100_000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.mode not in ("hit", "miss", "mixed"):
            raise InfeasibleSpec(f"unknown mode {self.mode!r}")
        if self.entry_count < 1 or self.query_count < 0 or self.alphabet < 1:
            raise InfeasibleSpec("counts must be positive")
        if self.query_len < 1 or self.query_len > 2 * MAX_NAME_LEN:
            raise InfeasibleSpec("query_len out of range")
        if not 1.0 <= self.mean_entry_len < 5.5:
            # mean of a geometric truncated to [1,10] cannot exceed 5.5
            raise InfeasibleSpec("mean_entry_len must be in [1.0, 5.5)")
        if self.mode in ("hit", "mixed") and self.query_len < self.mean_entry_len:
            raise InfeasibleSpec("hit mode needs query_len >= mean_entry_len")


Entries = list[tuple[ContentName, ForwardingInfo]]


@dataclass
class Workload:
    spec: WorkloadSpec
    entries: Entries
    queries: list[ContentName]
    entry_lengths: np.ndarray


def _truncated_geometric_pmf(mean: float) -> np.ndarray:
    """pmf over lengths 1..10 of a truncated geometric with the given mean."""
    lengths = np.arange(1, MAX_NAME_LEN + 1)

    def mean_of(p: float) -> float:
        w = p * (1 - p) ** (lengths - 1)
        w /= w.sum()
        return float((w * lengths).sum())

    lo, hi = 1e-9, 1 - 1e-9
    if mean <= 1.0:
        p = hi
    else:
        for _ in range(80):
            mid = (lo + hi) / 2
            if mean_of(mid) > mean:
                lo = mid
            else:
                hi = mid
        p = (lo + hi) / 2
    w = p * (1 - p) ** (lengths - 1)
    return w / w.sum()


def _names(ids: np.ndarray, lens: np.ndarray, prefix: str) -> list[tuple]:
    """Split the flat component ids into tuples of `lens` strings, sharing
    one string object per distinct id."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    strings = np.array([prefix + str(u) for u in uniq.tolist()], dtype=object)
    flat = strings[inverse].tolist()
    ends = np.cumsum(lens).tolist()
    return [tuple(flat[e - n:e]) for e, n in zip(ends, lens.tolist())]


def _spill(drawn: np.ndarray, alphabet: int) -> np.ndarray:
    """Realised lengths under the spill rule (module docstring)."""
    wanted = np.bincount(drawn, minlength=MAX_NAME_LEN + 1)[1:]
    held: list[int] = []
    carry = 0
    for length, count in enumerate(wanted.tolist(), 1):
        held.append(min(count + carry, alphabet ** length))
        carry += count - held[-1]
    if carry:
        raise InfeasibleSpec(f"alphabet of {alphabet} holds only "
                             f"{len(drawn) - carry} of {len(drawn)} names "
                             f"up to length {MAX_NAME_LEN}")
    out = np.empty(len(drawn), dtype=np.int64)
    out[np.argsort(drawn, kind="stable")] = np.repeat(
        np.arange(1, MAX_NAME_LEN + 1), held)
    return out


def _distinct_rows(rng: np.random.Generator, count: int, length: int,
                   alphabet: int) -> np.ndarray:
    """count distinct rows of `length` component ids below `alphabet`."""
    if alphabet ** length < _INT64_KEYS:
        keys = rng.choice(alphabet ** length, size=count, replace=False)
        powers = alphabet ** np.arange(length - 1, -1, -1, dtype=np.int64)
        return keys[:, None] // powers % alphabet
    rows = rng.integers(0, alphabet, size=(count, length))
    if len(np.unique(rows, axis=0)) != count:
        raise InfeasibleSpec(f"duplicate length-{length} names drawn; "
                             f"the seed gives no distinct set")
    return rows


def generate_entries(spec: WorkloadSpec) -> tuple[Entries, np.ndarray]:
    """The spec's distinct stored names with their faces, and their
    realised lengths; depends on the seed and entry parameters only."""
    rng = np.random.default_rng([spec.seed, 0])
    cdf = np.cumsum(_truncated_geometric_pmf(spec.mean_entry_len))
    drawn = np.minimum(np.searchsorted(cdf, rng.random(spec.entry_count)),
                       MAX_NAME_LEN - 1) + 1
    lengths = _spill(drawn, spec.alphabet)
    starts = np.cumsum(lengths) - lengths
    ids = np.empty(int(lengths.sum()), dtype=np.int64)
    for length in range(1, MAX_NAME_LEN + 1):
        at = np.flatnonzero(lengths == length)
        if len(at):
            ids[starts[at, None] + np.arange(length)] = _distinct_rows(
                rng, len(at), length, spec.alphabet)
    faces = rng.integers(0, 4096, size=spec.entry_count).tolist()
    entries = [(ContentName(comps), ForwardingInfo(face_id=face))
               for comps, face in zip(_names(ids, lengths, "e"), faces)]
    return entries, lengths


def generate_queries(spec: WorkloadSpec,
                     entries: Entries) -> list[ContentName]:
    """The spec's queries against these entries (from `generate_entries`)."""
    rng = np.random.default_rng([spec.seed, 1])
    if spec.mode == "miss":
        return _miss_queries(spec, spec.query_count, rng)
    if spec.mode == "hit":
        return _hit_queries(spec, entries, spec.query_count, rng)
    half = spec.query_count // 2
    hits = _hit_queries(spec, entries, half, rng)
    misses = _miss_queries(spec, spec.query_count - half, rng)
    # alternate hit, miss, ...; the odd query out is a miss
    return [q for pair in zip(hits, misses) for q in pair] + misses[half:]


def generate_workload(spec: WorkloadSpec) -> Workload:
    entries, lengths = generate_entries(spec)
    return Workload(spec, entries, generate_queries(spec, entries), lengths)


def _cycled(values: list[int], count: int, center: int,
            rng: np.random.Generator) -> np.ndarray:
    """count draws cycling `values` equally, remainder at `center`; the
    result is a permutation, so the empirical mean is exact."""
    base = count // len(values)
    out = np.concatenate([np.full(base, v, dtype=np.int64) for v in values] +
                         [np.full(count - base * len(values), center,
                                  dtype=np.int64)])
    return out[rng.permutation(count)]


def _miss_queries(spec: WorkloadSpec, count: int,
                  rng: np.random.Generator) -> list[ContentName]:
    w = min(2, spec.query_len - 1)
    window = list(range(spec.query_len - w, spec.query_len + w + 1))
    lens = _cycled(window, count, spec.query_len, rng)
    ids = rng.integers(0, spec.alphabet, size=int(lens.sum()))
    return [ContentName(comps) for comps in _names(ids, lens, "q")]


def _hit_queries(spec: WorkloadSpec, entries: Entries, count: int,
                 rng: np.random.Generator) -> list[ContentName]:
    gap = spec.query_len - int(round(spec.mean_entry_len))
    w = max(0, min(2, gap))
    deltas = _cycled(list(range(-w, w + 1)), count, 0, rng)
    picks = rng.integers(0, len(entries), size=count).tolist()
    suffix_lens = np.maximum(gap + deltas, 0)
    ids = rng.integers(0, spec.alphabet, size=int(suffix_lens.sum()))
    suffixes = _names(ids, suffix_lens, "q")
    return [ContentName(entries[i][0].components + suffix) if suffix
            else entries[i][0] for i, suffix in zip(picks, suffixes)]
