"""The CSV artifact writers against their former per-writer formatting."""

import tracemalloc

import numpy as np
import pytest

from oracles import (reference_write_embedding_csv, reference_write_partition_csv,
                     reference_write_spectrum_csv, reference_write_trace_csv)
from spherembed import (EmbeddingResult, Graph, Partition, ShiftedOperator, SolverConfig,
                        make_descriptor, solve)
from spherembed import graphs
from spherembed.embedding import write_embedding_csv, write_spectrum_csv
from spherembed.partition import write_partition_csv
from spherembed.solver import write_trace_csv

EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
LABEL_KINDS = ["int", "string"]


def awkward_values(rng, n, d):
    """Values spanning the double range, with as many of its edge values planted as fit."""
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    planted = min(n * d, len(EDGE_VALUES))
    values.flat[rng.choice(n * d, size=planted, replace=False)] = EDGE_VALUES[:planted]
    return values


def path_graph(n, label_kind):
    """Path on n nodes whose labels are ints or strings holding '#' and spaces."""
    if label_kind == "int":
        labels = [3 * i + 7 for i in range(n)]
    else:
        labels = [f"#{i}" if i % 3 == 0 else f"n#{i} x" if i % 3 == 1 else str(i)
                  for i in range(n)]
    return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n), labels)


@pytest.fixture(params=[None, 3], ids=["one block", "blocks of 3 rows"])
def block_rows(request, monkeypatch):
    """Run once at the module's block size and once with blocks that split the rows."""
    if request.param is not None:
        monkeypatch.setattr(graphs, "CSV_ROWS", request.param)
    return graphs.CSV_ROWS


@pytest.mark.parametrize("kind", ["spherical", "ellipsoidal"])
@pytest.mark.parametrize("label_kind", LABEL_KINDS)
def test_embedding_csv_matches_reference(rng, block_rows, kind, label_kind):
    for n, d in [(2, 1), (7, 3), (40, 10)]:
        graph = path_graph(n, label_kind)
        # s_1 = 1 keeps the planted values in the first spherical column
        s = np.append(1.0, rng.uniform(0.5, 1.0, d - 1))
        emb = EmbeddingResult(U=awkward_values(rng, n, d), s=s, epsilon=0.01, d_eff=d,
                              total_mass=1.0)
        got = write_embedding_csv(emb, graph, kind=kind)
        assert got == reference_write_embedding_csv(emb, graph, kind=kind)


def test_embedding_csv_rejects_unknown_kind(barbell):
    emb = EmbeddingResult(U=np.eye(6, 2), s=np.ones(2), epsilon=0.01, d_eff=2, total_mass=2.0)
    with pytest.raises(ValueError, match="unknown embedding kind"):
        write_embedding_csv(emb, barbell, kind="polar")


def test_spectrum_csv_matches_reference(rng, block_rows):
    # s^2 / 5 near the largest double, at the smallest subnormal, and 0.0
    for r, planted in [(1, 1e154), (4, 5e-162), (11, 1e-170)]:
        s = np.append(np.sort(10.0 ** rng.uniform(-170, 154, r - 1))[::-1], planted)
        emb = EmbeddingResult(U=np.zeros((5, r)), s=s, epsilon=0.01, d_eff=r, total_mass=1.0)
        assert write_spectrum_csv(emb) == reference_write_spectrum_csv(emb)


@pytest.mark.parametrize("momentum", [False, True], ids=["plain", "momentum"])
def test_trace_csv_matches_reference(barbell, block_rows, momentum):
    op = ShiftedOperator(make_descriptor(barbell, "modularity"))
    res = solve(op, SolverConfig(d0=4, seed=0, momentum=momentum))
    assert len(res.trace) > 3  # more rows than the small block size
    assert write_trace_csv(res) == reference_write_trace_csv(res)


def test_trace_csv_with_awkward_values_matches_reference(rng, barbell, block_rows):
    op = ShiftedOperator(make_descriptor(barbell, "modularity"))
    res = solve(op, SolverConfig(d0=4, seed=0, momentum=False))
    res.trace = awkward_values(rng, len(res.trace), 1)[:, 0]
    assert write_trace_csv(res) == reference_write_trace_csv(res)


@pytest.mark.parametrize("label_kind", LABEL_KINDS)
def test_partition_csv_matches_reference(rng, block_rows, label_kind):
    for n in (2, 9, 50):
        graph = path_graph(n, label_kind)
        labels = rng.integers(0, 12, size=n)
        part = Partition(labels=labels, k_init=12, centroids=np.zeros((12, 2)),
                         z_tilde=0.0, modularity=0.0, history=[])
        assert write_partition_csv(part, graph) == reference_write_partition_csv(part, graph)


def test_csv_text_rejects_a_label_count_mismatch():
    with pytest.raises(ValueError, match="3 labels for 2 rows"):
        graphs._csv_text(["node", "x"], ["a", "b", "c"], np.zeros(2))


def _traced_peak(write, *args):
    """Text a writer returns and the peak of memory it allocated on the way."""
    tracemalloc.start()
    try:
        return write(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_writer_peak_memory_no_higher_than_reference(rng):
    n, d = 20_000, 10
    graph = path_graph(n, "int")
    U = rng.standard_normal((n, d))
    U /= np.linalg.norm(U, axis=1)[:, None]
    emb = EmbeddingResult(U=U, s=np.ones(d), epsilon=0.01, d_eff=d, total_mass=float(n))
    text, peak = _traced_peak(write_embedding_csv, emb, graph)
    reference_text, reference_peak = _traced_peak(reference_write_embedding_csv, emb, graph)
    assert text == reference_text
    assert peak <= reference_peak
