"""Partition quality metrics and the run summary document."""

import json
import tracemalloc

import numpy as np
import pytest

from oracles import (dense_adjacency, modularity_value, random_connected_graph,
                     reference_modularity_of_partition, reference_nmi)
import spherembed.metrics as metrics_module
from spherembed import modularity_of_partition, nmi, summarize
from spherembed.metrics import RunSummary, write_summary_json


def test_modularity_matches_dense_double_sum(rng):
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 25)), extra_edges=10)
        labels = rng.integers(0, 4, size=g.n)
        expected = modularity_value(dense_adjacency(g), labels)
        assert modularity_of_partition(g, labels) == pytest.approx(expected, abs=1e-12)


def test_barbell_triangle_split_modularity(barbell):
    q = modularity_of_partition(barbell, np.array([0, 0, 0, 1, 1, 1]))
    assert q == pytest.approx(5.0 / 14.0, abs=1e-15)


def test_one_cluster_modularity_is_zero(rng):
    g = random_connected_graph(rng, 15, extra_edges=10)
    assert modularity_of_partition(g, np.zeros(g.n, dtype=int)) == pytest.approx(0.0, abs=1e-14)


def test_singleton_modularity_closed_form(rng):
    # all-singleton partition keeps only the diagonal null-model terms
    g = random_connected_graph(rng, 12, extra_edges=8)
    expected = -float(np.sum((g.degrees / (2.0 * g.m)) ** 2))
    q = modularity_of_partition(g, np.arange(g.n))
    assert q == pytest.approx(expected, abs=1e-14)


def test_modularity_matches_reference_bitwise(rng, monkeypatch):
    # the internal-entry counts are integers, so the sums must agree to the last bit
    for _ in range(12):
        g = random_connected_graph(rng, int(rng.integers(3, 80)), extra_edges=60)
        ids = rng.choice(5 * g.n, size=int(rng.integers(1, g.n + 1)), replace=False)
        labelings = [ids[rng.integers(0, len(ids), size=g.n)],  # gapped cluster ids
                     np.arange(g.n), rng.permutation(g.n) * 7,  # all singletons
                     np.zeros(g.n, dtype=np.int64), np.full(g.n, 9)]  # one cluster
        for labels in labelings:
            want = reference_modularity_of_partition(g, labels)
            assert modularity_of_partition(g, labels) == want
            with monkeypatch.context() as m:  # rows compared a few nodes at a time
                m.setattr(metrics_module, "BLOCK_NODES", int(rng.integers(1, 8)))
                assert modularity_of_partition(g, labels) == want


def test_modularity_validation(barbell):
    with pytest.raises(ValueError):
        modularity_of_partition(barbell, np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        modularity_of_partition(barbell, np.array([0, 0, 0, 1, 1, -1]))


def test_nmi_matches_reference(rng):
    for _ in range(10):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert nmi(a, b) == pytest.approx(reference_nmi(a, b), abs=1e-12)


def test_nmi_identical_partitions(rng):
    a = rng.integers(0, 5, size=50)
    assert nmi(a, a) == pytest.approx(1.0, abs=1e-12)


def test_nmi_relabeling_invariant(rng):
    a = rng.integers(0, 4, size=40)
    remap = np.array([3, 0, 2, 1])
    assert nmi(a, remap[a]) == pytest.approx(1.0, abs=1e-12)
    b = rng.integers(0, 4, size=40)
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-14)


def test_nmi_degenerate_partitions():
    flat = np.zeros(10, dtype=int)
    split = np.arange(10) % 2
    assert nmi(flat, flat) == 1.0  # both uninformative: treated as agreeing
    assert nmi(flat, split) == 0.0
    assert nmi(split, flat) == 0.0


def test_nmi_bounds(rng):
    for _ in range(20):
        a = rng.integers(0, 6, size=30)
        b = rng.integers(0, 6, size=30)
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_nmi_memory_grows_with_n_not_with_the_label_counts():
    # 2 000 singleton labels a side: a dense 2 000 x 2 000 joint table is 32 MB
    n = 2000
    a, b = np.arange(n), np.random.default_rng(1).permutation(n)
    tracemalloc.start()
    try:
        value = nmi(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0, abs=1e-12)
    assert peak <= 1e6, f"nmi peaked at {peak / 1e6:.1f} MB"


def test_nmi_validation():
    with pytest.raises(ValueError):
        nmi(np.array([0, 1]), np.array([0, 1, 2]))


def test_summary_structure(barbell):
    s = summarize(barbell, config={"seed": 0})
    doc = s.to_dict()
    assert doc["schema_version"] == 1
    assert doc["graph"]["n"] == 6
    assert doc["graph"]["m"] == 7
    assert "solver" not in doc  # omitted when the stage did not run
    assert "partition" not in doc


def test_summary_json_deterministic(barbell):
    s = summarize(barbell, config={"seed": 3, "tol": 1e-8})
    assert s.to_json() == s.to_json()
    parsed = json.loads(s.to_json())
    assert parsed["config"]["seed"] == 3
    # keys come out sorted for byte-stable output
    dumped = s.to_json()
    assert dumped.index('"config"') < dumped.index('"graph"')
    # parse -> serialize round-trips byte-identically
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == dumped


def test_summary_rejects_bad_values(barbell):
    class FakePartition:
        labels = np.zeros(6, dtype=int)
        k_init = 2
        z_tilde = 1.0
        modularity = 1.5  # impossible
        restart_index = 0
        n_clusters = 1
        history = []

    with pytest.raises(ValueError):
        summarize(barbell, partition=FakePartition())


def test_write_summary_json(barbell):
    s = summarize(barbell, config={"seed": 0})
    text = write_summary_json(s)
    assert text.endswith("\n")
    assert json.loads(text)["graph"]["hash"] == barbell.content_hash()
    assert isinstance(s, RunSummary)
