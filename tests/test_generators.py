"""Planted-partition generation and benchmark file loading."""

import io

import numpy as np
import pytest

from spherembed import (PlantedPartitionSpec, generate_planted_partition, load_edge_list,
                        load_ground_truth)


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
