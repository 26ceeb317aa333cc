"""Planted-partition generation and benchmark file loading."""

import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from oracles import reference_generate_planted_partition
from spherembed import (PlantedPartitionSpec, generate_planted_partition, load_edge_list,
                        load_ground_truth)
from spherembed.generators import _unrank_pairs

# the perfbench generate-4k spec: 10 blocks of 400, mean degrees 12 within, 3 between
BENCH_4K = dict(n=4000, k=10, p_in=12 / 399, p_out=3 / 3600)


def test_spec_validation():
    with pytest.raises(ValueError):
        PlantedPartitionSpec(n=1, k=1, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionSpec(n=10, k=0, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionSpec(n=10, k=11, p_in=0.5, p_out=0.1)
    with pytest.raises(ValueError):
        PlantedPartitionSpec(n=10, k=2, p_in=0.2, p_out=0.5)  # p_out > p_in
    with pytest.raises(ValueError):
        PlantedPartitionSpec(n=10, k=2, p_in=1.2, p_out=0.1)


@pytest.mark.parametrize("setting, match", [
    ({"n": 300.0}, "n must be an integer"),
    ({"k": 3.0}, "k must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    # a bool is not a count, though operator.index(True) == 1
    ({"k": True}, "k must be an integer"),
    ({"n": np.True_}, "n must be an integer"),
    ({"seed": False}, "seed must be an integer"),
])
def test_spec_rejects_non_integer_counts_when_built(setting, match):
    # checked when the spec is built, not deep inside sampling
    with pytest.raises(ValueError, match=match):
        PlantedPartitionSpec(**{"n": 300, "k": 3, "p_in": 0.1, "p_out": 0.01, **setting})


def test_spec_accepts_numpy_integer_counts():
    plain = generate_planted_partition(PlantedPartitionSpec(n=300, k=3, p_in=0.1, p_out=0.01,
                                                            seed=2))
    numpy = generate_planted_partition(PlantedPartitionSpec(
        n=np.int64(300), k=np.int32(3), p_in=0.1, p_out=0.01, seed=np.uint64(2)))
    assert plain[0].adjacency.nnz == numpy[0].adjacency.nnz
    assert np.array_equal(plain[1], numpy[1])


def test_disconnected_blocks_raise():
    # p_in=1, p_out=0 gives two disjoint cliques: the largest component
    # holds only half the nodes, so generation cannot reach coverage
    spec = PlantedPartitionSpec(n=8, k=2, p_in=1.0, p_out=0.0)
    with pytest.raises(RuntimeError, match="connected"):
        generate_planted_partition(spec)


def test_complete_graph_edge_case():
    spec = PlantedPartitionSpec(n=7, k=2, p_in=1.0, p_out=1.0)
    graph, labels = generate_planted_partition(spec)
    assert graph.n == 7
    assert graph.m == 21  # K_7
    assert sorted(np.bincount(labels).tolist()) == [3, 4]


def test_block_sizes_balance_remainder():
    spec = PlantedPartitionSpec(n=10, k=3, p_in=1.0, p_out=1.0)
    _, labels = generate_planted_partition(spec)
    assert sorted(np.bincount(labels).tolist()) == [3, 3, 4]


def test_single_block_is_gnp():
    spec = PlantedPartitionSpec(n=40, k=1, p_in=0.3, p_out=0.0, seed=5)
    graph, labels = generate_planted_partition(spec)
    assert set(labels.tolist()) == {0}
    assert graph.n >= 0.95 * 40


def test_edge_densities_within_three_sigma():
    spec = PlantedPartitionSpec(n=2000, k=2, p_in=0.1, p_out=0.01, seed=1)
    graph, labels = generate_planted_partition(spec)
    within = between = 0
    for i, j in graph.edges():
        if labels[i] == labels[j]:
            within += 1
        else:
            between += 1
    sizes = np.bincount(labels)
    pairs_within = sum(s * (s - 1) // 2 for s in sizes)
    pairs_between = sizes[0] * sizes[1]
    for count, pairs, p in ((within, pairs_within, 0.1), (between, pairs_between, 0.01)):
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(count - pairs * p) < 3 * sigma


def test_unrank_pairs_is_exact():
    for s in (2, 3, 7, 40):
        i, j = _unrank_pairs(np.arange(s * (s - 1) // 2))
        assert sorted(zip(j.tolist(), i.tolist())) == [(b, a) for b in range(s) for a in range(b)]
    # both sides of j(j - 1)/2, also where 8r + 1 is past 2**53 and rounds as a float
    j = np.array([2, 3, 99_999, 100_000, 3_000_001, 2**26 + 1], dtype=np.int64)
    r = (j * (j - 1) // 2)[:, None] + np.array([-1, 0, 1])
    i, jj = _unrank_pairs(r.ravel())
    assert np.array_equal(jj * (jj - 1) // 2 + i, r.ravel())
    assert np.all((0 <= i) & (i < jj))


def test_pooled_edge_densities_are_exact():
    # pooled over 100 seeds the mean within- and between-block degrees sit
    # within 4 standard errors of the spec's 12 and 3; drawing pairs with
    # replacement and dropping repeats misses the within degree by about 20
    within = between = nodes = 0
    for seed in range(100):
        graph, labels = generate_planted_partition(PlantedPartitionSpec(**BENCH_4K, seed=seed))
        adj = graph.adjacency
        row = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
        same = labels[row] == labels[adj.indices]
        within += int(same.sum())
        between += int((~same).sum())
        nodes += graph.n
    for got, want in ((within / nodes, 12.0), (between / nodes, 3.0)):
        # a mean degree is 2 E / n for a near-Poisson edge count E
        assert abs(got - want) <= 4 * np.sqrt(2 * want / nodes)


def test_pair_frequencies_match_dense_reference():
    # per-pair edge frequencies of the sparse sampler and the dense one it
    # replaced agree, connectivity retries included
    spec = dict(n=9, k=3, p_in=0.8, p_out=0.3)
    seeds = 1000
    freq = []
    for generate in (generate_planted_partition, reference_generate_planted_partition):
        hits = np.zeros((9, 9))
        for seed in range(seeds):
            graph, _ = generate(PlantedPartitionSpec(**spec, seed=seed))
            assert graph.n == 9
            hits += graph.adjacency.toarray()
        freq.append(hits[np.triu_indices(9, 1)] / seeds)
    sigma = np.sqrt((freq[0] * (1 - freq[0]) + freq[1] * (1 - freq[1])) / seeds)
    assert np.all(np.abs(freq[0] - freq[1]) <= 5 * np.maximum(sigma, 1e-3))


def test_generation_memory_is_sparse():
    # the dense n x n sampler it replaced peaks near 260 MB at this size
    spec = PlantedPartitionSpec(**BENCH_4K, seed=1)
    tracemalloc.start()
    try:
        generate_planted_partition(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_generation_deterministic():
    spec = PlantedPartitionSpec(n=60, k=3, p_in=0.4, p_out=0.05, seed=9)
    g1, l1 = generate_planted_partition(spec)
    g2, l2 = generate_planted_partition(spec)
    assert g1.content_hash() == g2.content_hash()
    assert np.array_equal(l1, l2)
    g3, _ = generate_planted_partition(
        PlantedPartitionSpec(n=60, k=3, p_in=0.4, p_out=0.05, seed=10))
    assert g3.content_hash() != g1.content_hash()


def test_labels_aligned_with_nodes():
    spec = PlantedPartitionSpec(n=90, k=3, p_in=0.5, p_out=0.05, seed=2)
    graph, labels = generate_planted_partition(spec)
    assert len(labels) == graph.n
    assert labels.min() >= 0
    assert labels.max() < 3


def test_load_lfr_pair_with_extra_truth_rows():
    edges = io.StringIO("1 2\n2 3\n3 1\n4 5\n")  # component {1,2,3} wins
    truth = io.StringIO("1 7\n2 7\n3 8\n4 9\n5 9\n")
    graph = load_edge_list(edges)
    labels = load_ground_truth(truth, graph, ignore_extra=True)
    assert graph.n == 3
    assert labels.tolist() == [0, 0, 1]


@pytest.mark.parametrize("n, digest", [
    (300, "73b4ba2799ad0520e74e2bd1e949c46cd99f534940e9eca2a24ec21506e98974"),
    (4000, "3506f4fa3e1ad1ea251df3122eee1263f5f9b5e4f9170075086f1270c87684cb"),
])
def test_generated_graphs_pinned_by_seed(n, digest):
    # digests of seeds 0-49 as the construction stood before its passes were
    # cut down (one search for the component, integer-only key arithmetic):
    # a seed must keep giving the same graph, array for array
    h = hashlib.sha256()
    for seed in range(50):
        spec = PlantedPartitionSpec(n=n, k=10, p_in=12 / (n // 10 - 1), p_out=3 / (n - n // 10),
                                    seed=seed)
        g, labels = generate_planted_partition(spec)
        adj = g.adjacency
        for a in (adj.indptr, adj.indices, adj.data, g.degrees, labels, np.array(g.node_labels)):
            h.update(a.dtype.str.encode())
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


def test_attempts_share_one_label_tuple():
    spec = PlantedPartitionSpec(**BENCH_4K, seed=3)
    g1, labels = generate_planted_partition(spec)
    g2, _ = generate_planted_partition(PlantedPartitionSpec(**BENCH_4K, seed=4))
    assert g1.n == g2.n == 4000
    assert g1.node_labels is g2.node_labels
    assert g1.node_labels == tuple(range(4000))
    assert np.array_equal(labels, np.repeat(np.arange(10), 400))
