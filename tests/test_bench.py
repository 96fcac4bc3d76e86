import pytest

from minet import workload
from minet.bench import run_lookup_bench


@pytest.mark.parametrize("mode", ["miss", "hit"])
def test_probe_columns_match_single_length_runs(mode):
    kwargs = dict(mode=mode, entry_count=3000, query_count=800,
                  mean_entry_len=3.0, seed=5)
    multi = run_lookup_bench(query_lens=(6, 7, 8), **kwargs)
    assert [row.query_len for row in multi.rows] == [6, 7, 8]
    for row in multi.rows:
        single = run_lookup_bench(query_lens=(row.query_len,), **kwargs)
        assert ((row.linear_probes, row.binary_probes)
                == (single.rows[0].linear_probes,
                    single.rows[0].binary_probes))


def test_entries_are_synthesized_once_per_run(monkeypatch):
    calls = []
    generate_entries = workload.generate_entries

    def counted(spec):
        calls.append(spec)
        return generate_entries(spec)

    monkeypatch.setattr(workload, "generate_entries", counted)
    report = run_lookup_bench(entry_count=1000, query_count=200,
                              query_lens=(6, 7, 8, 9, 10), seed=3)
    assert len(report.rows) == 5
    assert len(calls) == 1
