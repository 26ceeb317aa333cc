"""Matrix-free descriptor operators against dense references."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from conftest import BARBELL_EDGES
from oracles import (REFERENCE_DESCRIPTORS, ReferenceShiftedOperator, dense_adjacency,
                     dense_laplacian_descriptor, dense_modularity_matrix, dense_shifted,
                     make_graph, random_connected_graph, reference_shifted_matrix)
from spherembed import (Graph, PlantedPartitionSpec, ShiftedOperator,
                        generate_planted_partition, make_descriptor)
from spherembed.operators import diagonal_shift_vector


def dense_descriptor(A, kind):
    if kind == "modularity":
        return dense_modularity_matrix(A)
    return dense_laplacian_descriptor(A)


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_apply_matches_dense(rng, kind):
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 30)), extra_edges=8)
        M = dense_descriptor(dense_adjacency(g), kind)
        op = make_descriptor(g, kind)
        X = rng.standard_normal((g.n, 5))
        assert np.allclose(op.apply(X), M @ X, atol=1e-12)
        assert np.allclose(op.diagonal(), np.diag(M), atol=1e-14)


# two adjacent hubs with d_0 d_1 = 16 > 2m = 14, so M_01 < 0 for both kinds
DOUBLE_STAR = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_offdiagonal_abs_sums_closed_form(rng, kind):
    """The O(deg) absolute off-diagonal row sums must equal the dense ones."""
    graphs = [random_connected_graph(rng, int(rng.integers(4, 30)), extra_edges=10)
              for _ in range(10)]
    for g in graphs + [make_graph(DOUBLE_STAR)]:
        M = dense_descriptor(dense_adjacency(g), kind)
        op = make_descriptor(g, kind)
        expected = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
        assert np.allclose(op.offdiagonal_abs_sums(), expected, atol=1e-12)


def test_single_edge_shifted_matrix(single_edge):
    # n=2, one edge: Q = [[-1/4, 1/4], [1/4, -1/4]], shift v = 5/4 on both rows
    op = ShiftedOperator(make_descriptor(single_edge, "modularity"))
    K = op.apply(np.eye(2))
    assert np.allclose(K, [[1.25, 0.25], [0.25, 1.25]], atol=1e-15)


def test_shift_vector_single_edge(single_edge):
    v = diagonal_shift_vector(make_descriptor(single_edge, "modularity"))
    assert np.allclose(v, [1.25, 1.25])


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_apply_replaces_diagonal(rng, kind):
    g = random_connected_graph(rng, 15, extra_edges=10)
    K = dense_shifted(dense_descriptor(dense_adjacency(g), kind))
    op = ShiftedOperator(make_descriptor(g, kind))
    X = rng.standard_normal((g.n, 4))
    assert np.allclose(op.apply(X), K @ X, atol=1e-12)


@pytest.mark.parametrize("shifted", [False, True], ids=["descriptor", "shifted"])
@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_apply_rejects_blocks_that_are_not_n_by_d(kind, shifted):
    path = make_graph([(0, 1), (1, 2), (2, 3)])
    op = make_descriptor(path, kind)
    if shifted:
        op = ShiftedOperator(op)
    for X in (np.ones(4), np.ones((4, 2, 1)), np.ones((3, 2))):
        with pytest.raises(ValueError, match=r"block has shape .*, expected \(4, d\)"):
            op.apply(X)


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_apply_into_out_is_bitwise_the_sparse_product(rng, kind):
    """apply(X, out=B) gives the bits of apply(X) and of scipy's K @ [X; u^T X].

    K here is the reference's fused n x (n + 1) matrix [W + diag(v - diag M), -u].
    apply runs scipy's private csr_matvecs into B; a scipy release that
    changes that kernel or its signature fails here first.
    """
    g = random_connected_graph(rng, 200, extra_edges=600)
    base = make_descriptor(g, kind)
    op = ShiftedOperator(base)
    fused = reference_shifted_matrix(base)[1]
    for d in (3, 7, 3):
        X = rng.standard_normal((g.n, d))
        public = fused @ np.vstack([X, base._u @ X])
        out = np.full((g.n, d), np.nan)  # apply must zero it before the product
        assert op.apply(X, out=out) is out
        assert out.tobytes() == public.tobytes()
        assert op.apply(X).tobytes() == public.tobytes()
        assert op.apply(X, out=X) is X  # out may be X itself
        assert X.tobytes() == public.tobytes()


def test_shifted_apply_leaves_its_input_and_the_rows_beyond_it(rng):
    """apply reads its input without changing it or any row beyond it; an out over X gets the bits."""
    g = random_connected_graph(rng, 200, extra_edges=600)
    base = make_descriptor(g, "modularity")
    op = ShiftedOperator(base)
    X = rng.standard_normal((g.n, 4))
    public = reference_shifted_matrix(base)[1] @ np.vstack([X, base._u @ X])
    # the top rows of a caller's own (n + 1)-row array: its last row stays
    own = np.vstack([X, np.full((1, 4), 7.0)])
    assert op.apply(own[:-1]).tobytes() == public.tobytes()
    np.testing.assert_array_equal(own[-1], 7.0)
    np.testing.assert_array_equal(own[:-1], X)  # the input is read, not changed
    # an out that is, or overlaps, X is filled from a copy of X
    block = own[:-1]
    assert op.apply(block, out=block) is block
    assert block.tobytes() == public.tobytes()
    block[...] = X
    out = own[1:]
    assert op.apply(block, out=out) is out
    assert out.tobytes() == public.tobytes()


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_apply_of_any_layout_gives_the_bits_of_a_c_contiguous_copy(rng, kind):
    g = random_connected_graph(rng, 200, extra_edges=600)
    op = ShiftedOperator(make_descriptor(g, kind))
    wide = rng.standard_normal((g.n, 9))
    for X in (np.asfortranarray(wide[:, :5]), wide[:, 2:7], wide[:, ::2]):
        want = op.apply(np.ascontiguousarray(X)).tobytes()
        kept = X.copy()
        assert op.apply(X).tobytes() == want
        np.testing.assert_array_equal(X, kept)
        out = np.ascontiguousarray(X)
        assert op.apply(out, out=out) is out  # out=X
        assert out.tobytes() == want


def test_shifted_operator_holds_no_block_after_apply(rng):
    g = random_connected_graph(rng, 50, extra_edges=100)
    op = ShiftedOperator(make_descriptor(g, "modularity"))
    block = rng.standard_normal((g.n, 3))
    op.apply(block, out=op.apply(block))
    op.apply(rng.standard_normal((g.n, 3)))
    op.sample_columns(3, np.random.default_rng(1))
    held = [name for name, value in vars(op).items()
            if isinstance(value, np.ndarray) and value.ndim == 2]
    assert held == []


def test_shifted_apply_from_several_threads_gives_one_threads_bits(rng):
    """Threads apply one operator to their own arrays and get the serial bits.

    Four threads on a shortened switch interval, so that their applies interleave.
    """
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=5)
    g, _ = generate_planted_partition(spec)
    op = ShiftedOperator(make_descriptor(g, "modularity"))
    inputs = [rng.standard_normal((g.n, 6)) for _ in range(4)]
    serial = [op.apply(X).tobytes() for X in inputs]
    results = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def work(i):
        X = inputs[i]
        block = np.empty(X.shape)
        start.wait()
        for _ in range(20):
            block[...] = X
            results[i].append(op.apply(block).tobytes())
            results[i].append(op.apply(X).tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, want in enumerate(serial):
        assert results[i] == [want] * 40


def test_shifted_apply_rejects_an_out_it_cannot_fill():
    op = ShiftedOperator(make_descriptor(make_graph([(0, 1), (1, 2), (2, 3)]), "modularity"))
    X = np.ones((4, 2))
    for out in (np.empty((4, 3)), np.empty((4, 2), dtype=np.float32),
                np.empty((4, 2), order="F"), np.empty((4, 4))[:, :2]):
        with pytest.raises(ValueError, match=r"out must be a C-contiguous float array"):
            op.apply(X, out=out)


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_sample_columns_are_k_columns(rng, kind):
    g = random_connected_graph(rng, 12, extra_edges=8)
    K = dense_shifted(dense_descriptor(dense_adjacency(g), kind))
    op = ShiftedOperator(make_descriptor(g, kind))
    cols = op.sample_columns(5, np.random.default_rng(3))
    assert cols.shape == (12, 5)
    # every sampled column must be an exact column of dense K
    for c in cols.T:
        assert min(np.abs(K - c[:, None]).max(axis=0)) < 1e-12


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_matrix_positive_definite(rng, kind):
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 25)), extra_edges=6)
        K = dense_shifted(dense_descriptor(dense_adjacency(g), kind))
        assert np.allclose(K, K.T)
        # strict diagonal dominance with margin 1 forces eigenvalues >= 1
        assert np.linalg.eigvalsh(K).min() > 1.0 - 1e-9


def test_shift_margin_is_at_least_one(rng):
    g = random_connected_graph(rng, 20, extra_edges=15)
    for kind in ("modularity", "normlap"):
        op = make_descriptor(g, kind)
        v = diagonal_shift_vector(op)
        assert np.all(v - op.offdiagonal_abs_sums() >= 1.0 - 1e-15)


def test_modularity_matrix_annihilates_ones(rng):
    g = random_connected_graph(rng, 18, extra_edges=12)
    ones = np.ones((g.n, 1))
    assert np.abs(make_descriptor(g, "modularity").apply(ones)).max() < 1e-14


def test_laplacian_descriptor_annihilates_sqrt_pi(rng):
    # D^{-1/2} A D^{-1/2} fixes sqrt(pi) and the rank-one term removes it
    g = random_connected_graph(rng, 18, extra_edges=12)
    sqrt_pi = np.sqrt(g.degrees / g.degrees.sum())[:, None]
    assert np.abs(make_descriptor(g, "normlap").apply(sqrt_pi)).max() < 1e-14


def test_make_descriptor_kinds(triangle):
    # the kinds differ in the rank-one term: u = d / 2m against sqrt(d / 2m)
    assert np.allclose(make_descriptor(triangle, "modularity").diagonal(), -1 / 9)
    assert np.allclose(make_descriptor(triangle, "normlap").diagonal(), -1 / 3)
    with pytest.raises(ValueError):
        make_descriptor(triangle, "adjacency")


def test_modularity_rejects_edgeless_graph():
    edgeless = Graph(adjacency=sparse.csr_matrix((3, 3)), degrees=np.zeros(3, dtype=np.int64),
                     node_labels=(0, 1, 2))
    with pytest.raises(ValueError, match="no edges"):
        make_descriptor(edgeless, "modularity")


def test_normlap_rejects_isolated_node():
    # node 2 has degree 0, so D^{-1/2} is undefined there; modularity is fine
    g = Graph.from_edges(3, np.array([0]), np.array([1]), range(3))
    with pytest.raises(ValueError, match="degrees positive"):
        make_descriptor(g, "normlap")
    assert make_descriptor(g, "modularity").diagonal()[2] == 0.0


def test_star_graph_closed_form():
    # hub degree 5, leaves degree 1, 2m = 10: spot-check one off-diagonal entry
    g = make_graph([(0, i) for i in range(1, 6)])
    Q = dense_modularity_matrix(dense_adjacency(g))
    op = make_descriptor(g, "modularity")
    assert Q[0, 1] == pytest.approx((1 - 5 * 1 / 10) / 10)
    assert np.allclose(op.apply(np.eye(6)), Q, atol=1e-14)


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_matches_reference_operators_on_planted_graph(kind):
    """Beyond the dense oracles' reach, agree with the two former classes."""
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=5)
    g, _ = generate_planted_partition(spec)
    op, ref = make_descriptor(g, kind), REFERENCE_DESCRIPTORS[kind](g)
    X = np.random.default_rng(7).standard_normal((g.n, 6))
    # entries of M X cancel between W X and u (u^T X), so the sums' rounding
    # is bounded relative to the block's magnitude, not entry by entry
    expected = ref.apply(X)
    np.testing.assert_allclose(op.apply(X), expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max())
    np.testing.assert_allclose(op.diagonal(), ref.diagonal(), rtol=1e-13, atol=0)
    np.testing.assert_allclose(op.offdiagonal_abs_sums(), ref.offdiagonal_abs_sums(),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_matches_reference_shifted_on_planted_graph(kind):
    """The folded K against the former shift over the two former classes."""
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=5)
    g, _ = generate_planted_partition(spec)
    op = ShiftedOperator(make_descriptor(g, kind))
    ref = ReferenceShiftedOperator(REFERENCE_DESCRIPTORS[kind](g))
    np.testing.assert_allclose(op.shift, ref.shift, rtol=1e-12, atol=0)
    X = np.random.default_rng(1).standard_normal((g.n, 10))
    expected = ref.apply(X)
    np.testing.assert_allclose(op.apply(X), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    expected = ref.sample_columns(6, np.random.default_rng(3))
    np.testing.assert_allclose(op.sample_columns(6, np.random.default_rng(3)), expected,
                               rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_build_matches_reference_bytes(kind):
    """K is the reference's fused matrix without its last column, u that column negated, byte for byte."""
    spec = PlantedPartitionSpec(n=2000, k=10, p_in=12 / 199, p_out=3 / 1800, seed=5)
    g, _ = generate_planted_partition(spec)
    base = make_descriptor(g, kind)
    op = ShiftedOperator(base)
    shift, fused = reference_shifted_matrix(base)
    K = fused[:, :g.n]
    assert op.shift.tobytes() == shift.tobytes()
    assert op._K.shape == K.shape
    for got, want in ((op._K.data, K.data), (op._K.indices, K.indices),
                      (op._K.indptr, K.indptr)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert op._u.tobytes() == (-fused[:, [g.n]].toarray().ravel()).tobytes()
    assert diagonal_shift_vector(base).tobytes() == shift.tobytes()


SMALL_GRAPHS = {
    "barbell": lambda: make_graph(BARBELL_EDGES),
    "random 40": lambda: random_connected_graph(np.random.default_rng(7), 40, extra_edges=30),
    "random 300": lambda: random_connected_graph(np.random.default_rng(8), 300, extra_edges=900),
}


@pytest.mark.parametrize("graph", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_build_matches_reference_bits(kind, graph):
    base = make_descriptor(SMALL_GRAPHS[graph](), kind)
    op = ShiftedOperator(base)
    shift, fused = reference_shifted_matrix(base)
    n = base.n
    K = fused[:, :n]
    assert np.array_equal(op.shift, shift)
    for got, want in ((op._K.data, K.data), (op._K.indices, K.indices),
                      (op._K.indptr, K.indptr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(op._u, -fused[:, [n]].toarray().ravel())


@pytest.mark.parametrize("graph", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_edge_products_match_gathered_products(kind, graph):
    # the in-place column scaling does the gather's multiply, so the bits agree
    base = make_descriptor(SMALL_GRAPHS[graph](), kind)
    adj = base.graph.adjacency
    for v in (base._s, base._u):
        assert np.array_equal(base._edge_products(v),
                              np.repeat(v, np.diff(adj.indptr)) * v[adj.indices])


@pytest.mark.parametrize("kind", ["modularity", "normlap"])
def test_shifted_operator_keeps_one_weighted_matrix(kind):
    """At n = 100 000 the operator keeps K's 2m + n entries, u's n x 1 matrix and a few n-vectors.

    That is 22.8 MB on this graph; a second weighted copy of the
    adjacency's pattern beside K would add 12 MB or more.
    """
    spec = PlantedPartitionSpec(n=100_000, k=10, p_in=12 / 9_999, p_out=3 / 90_000, seed=1)
    g, _ = generate_planted_partition(spec)
    tracemalloc.start()
    try:
        op = ShiftedOperator(make_descriptor(g, kind))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op._K.nnz == 2 * g.m + g.n
    assert kept <= 24e6, f"operator keeps {kept / 1e6:.1f} MB"
