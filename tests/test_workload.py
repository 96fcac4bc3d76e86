import tracemalloc

import numpy as np
import pytest

from minet import workload
from minet.workload import (InfeasibleSpec, WorkloadSpec, generate_entries,
                            generate_workload)


def test_deterministic_for_seed():
    spec = WorkloadSpec(entry_count=500, query_count=300, mean_entry_len=3,
                        query_len=6, mode="mixed", alphabet=1000, seed=9)
    a = generate_workload(spec)
    b = generate_workload(spec)
    assert [n.text for n, _ in a.entries] == [n.text for n, _ in b.entries]
    assert [q.text for q in a.queries] == [q.text for q in b.queries]


def test_entries_unique_and_lengths_bounded():
    wl = generate_workload(WorkloadSpec(entry_count=2000, query_count=0,
                                        mean_entry_len=3, alphabet=5000, seed=1))
    texts = [n.text for n, _ in wl.entries]
    assert len(set(texts)) == len(texts) == 2000
    assert all(1 <= len(n) <= 10 for n, _ in wl.entries)
    assert abs(float(wl.entry_lengths.mean()) - 3.0) < 0.15


def test_miss_queries_share_nothing_with_entries():
    spec = WorkloadSpec(entry_count=1000, query_count=1000, mean_entry_len=3,
                        query_len=7, mode="miss", alphabet=2000, seed=2)
    wl = generate_workload(spec)
    assert all(q.components[0].startswith("q") for q in wl.queries)
    lens = np.array([len(q) for q in wl.queries])
    assert float(lens.mean()) == pytest.approx(7.0)
    assert set(lens) == {5, 6, 7, 8, 9}


def test_hit_queries_extend_stored_names():
    spec = WorkloadSpec(entry_count=1000, query_count=1000, mean_entry_len=3,
                        query_len=6, mode="hit", alphabet=2000, seed=3)
    wl = generate_workload(spec)
    stored = {n.components: length for (n, _), length
              in zip(wl.entries, wl.entry_lengths)}
    gaps = []
    for q in wl.queries:
        # the longest prefix made purely of entry components is the base name
        base_len = 0
        for k, comp in enumerate(q.components, 1):
            if comp.startswith("e"):
                base_len = k
            else:
                break
        assert base_len >= 1
        assert q.components[:base_len] in stored
        gaps.append(len(q) - base_len + 1)
    assert float(np.mean(gaps)) == pytest.approx(6 - 3 + 1)


def test_mixed_mode_counts():
    spec = WorkloadSpec(entry_count=300, query_count=101, mean_entry_len=3,
                        query_len=6, mode="mixed", alphabet=1000, seed=4)
    wl = generate_workload(spec)
    assert len(wl.queries) == 101
    first = {q.components[0][0] for q in wl.queries}
    assert first == {"e", "q"}


@pytest.mark.parametrize("kwargs", [
    dict(mode="nope"),
    dict(mode="hit", mean_entry_len=5.0, query_len=4),
    dict(mean_entry_len=0.5),
    dict(mean_entry_len=5.5),
    dict(entry_count=0),
    dict(query_len=0),
])
def test_infeasible_specs(kwargs):
    with pytest.raises(InfeasibleSpec):
        WorkloadSpec(**kwargs)


def test_alphabet_capacity_check():
    with pytest.raises(InfeasibleSpec):
        generate_workload(WorkloadSpec(entry_count=10_000, query_count=0,
                                       mean_entry_len=1.0, alphabet=2, seed=0))


def _entry_spec(**kwargs):
    return WorkloadSpec(**{**dict(entry_count=3000, query_count=0,
                                  mean_entry_len=1.5, seed=6), **kwargs})


def test_names_past_a_length_capacity_spill_to_the_next_length():
    # the lengths are drawn before any name, so a wide alphabet shows the
    # drawn lengths; an alphabet of 100 holds only 100 length-1 names
    drawn = generate_entries(_entry_spec(alphabet=10 ** 6))[1]
    entries, lengths = generate_entries(_entry_spec(alphabet=100))
    assert (drawn == 1).sum() > 100
    comps = [n.components for n, _ in entries]
    assert len(set(comps)) == len(comps)
    assert lengths.tolist() == [len(c) for c in comps]
    assert (lengths == 1).sum() == 100
    # the first 100 drawn at length 1 keep it; the rest join length 2
    assert np.array_equal(np.flatnonzero(lengths == 1),
                          np.flatnonzero(drawn == 1)[:100])
    assert (lengths == 2).sum() == (drawn <= 2).sum() - 100
    assert np.array_equal(lengths[drawn >= 3], drawn[drawn >= 3])


def test_one_string_object_per_component_id():
    entries, _ = generate_entries(_entry_spec(alphabet=50))
    comps = [c for n, _ in entries for c in n.components]
    assert len({id(c) for c in comps}) == len(set(comps))


def test_wide_alphabet_costs_memory_by_entries_not_by_alphabet():
    tracemalloc.start()
    try:
        generate_entries(_entry_spec(alphabet=10 ** 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_duplicate_random_rows_raise_instead_of_retrying(monkeypatch):
    # force the random-row route, used where alphabet**L overflows int64,
    # onto lengths whose every possible name is needed
    monkeypatch.setattr(workload, "_INT64_KEYS", 1)
    with pytest.raises(InfeasibleSpec, match="duplicate"):
        generate_entries(_entry_spec(entry_count=50, mean_entry_len=1.0,
                                     alphabet=3))
