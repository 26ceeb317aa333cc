"""Dense reference implementations used to pin expected test values.

Everything here favors transparency over speed: dense matrices, explicit
loops, direct formula transcriptions. The package's sparse, matrix-free
code is checked against these on graphs small enough to enumerate.
"""

import io
import logging
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from spherembed import EdgeListError, Graph, load_edge_list


def make_graph(edges):
    """Build a Graph through the real edge-list loader."""
    text = "\n".join(f"{u} {v}" for u, v in edges) + "\n"
    return load_edge_list(io.StringIO(text))


def random_connected_graph(rng, n, extra_edges=0):
    """Random spanning tree plus extra random edges; connected by construction."""
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 60 * (extra_edges + 1):
        attempts += 1
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return make_graph(sorted(edges))


def dense_adjacency(graph):
    A = np.zeros((graph.n, graph.n))
    for i, j in graph.edges():
        A[i, j] = A[j, i] = 1.0
    return A


def dense_modularity_matrix(A):
    d = A.sum(axis=1)
    two_m = d.sum()
    return (A - np.outer(d, d) / two_m) / two_m


def dense_laplacian_descriptor(A):
    d = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    sqrt_pi = np.sqrt(d / d.sum())
    return A * np.outer(inv_sqrt, inv_sqrt) - np.outer(sqrt_pi, sqrt_pi)


def dense_shift_vector(M, epsilon=0.0):
    off = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    return 1.0 + epsilon + off


def dense_shifted(M, epsilon=0.0):
    K = M.copy()
    np.fill_diagonal(K, dense_shift_vector(M, epsilon))
    return K


def dense_objective(K, x):
    return float(np.trace(x.T @ K @ x))


def dense_criterion(K, x):
    y = K @ x
    return float(np.linalg.norm(y, axis=1).sum() - np.trace(x.T @ y))


def modularity_value(A, labels):
    """Literal double sum (1/2m) sum_ij (A_ij - d_i d_j / 2m) [c_i == c_j]."""
    d = A.sum(axis=1)
    two_m = d.sum()
    total = 0.0
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                total += A[i, j] - d[i] * d[j] / two_m
    return total / two_m


def z_tilde_of(rows, labels):
    total = 0.0
    for c in set(int(v) for v in labels):
        total += float(np.sum(rows[np.asarray(labels) == c].sum(axis=0) ** 2))
    return total


def reference_nmi(a, b):
    """2 I(A;B) / (H(A) + H(B)) with natural logs, via explicit cluster loops."""
    a = list(a)
    b = list(b)
    n = len(a)
    clusters_a = sorted(set(a))
    clusters_b = sorted(set(b))

    def entropy(labels, clusters):
        h = 0.0
        for c in clusters:
            p = labels.count(c) / n
            if p > 0:
                h -= p * np.log(p)
        return h

    h_a = entropy(a, clusters_a)
    h_b = entropy(b, clusters_b)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    info = 0.0
    for ca in clusters_a:
        for cb in clusters_b:
            joint = sum(1 for x, y in zip(a, b) if x == ca and y == cb) / n
            if joint > 0:
                pa = a.count(ca) / n
                pb = b.count(cb) / n
                info += joint * np.log(joint / (pa * pb))
    return 2.0 * info / (h_a + h_b)


def all_partitions(n):
    """Every set partition of range(n) as a label list (restricted growth strings)."""

    def grow(prefix, top):
        if len(prefix) == n:
            yield list(prefix)
            return
        for c in range(top + 2):
            yield from grow(prefix + [c], max(top, c))

    yield from grow([0], 0)


# The edge-list loader as it stood before graph ingestion became array-native:
# one Python tuple per edge, a dict for deduplication, COO assembly. Kept
# verbatim, bar the names, as the reference for the vectorized loader.

log = logging.getLogger(__name__)


def _reference_as_lines(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return data.splitlines()
    return Path(source).read_text(encoding="utf-8").splitlines()


def _reference_normalize_labels(raw_labels):
    # All-integer label sets sort numerically, otherwise lexically as strings.
    try:
        return [int(t) for t in raw_labels]
    except ValueError:
        return [str(t) for t in raw_labels]


def _reference_build(labels_sorted, edge_pairs_by_label):
    index = {lab: i for i, lab in enumerate(labels_sorted)}
    n = len(labels_sorted)
    rows = np.fromiter((index[a] for a, _ in edge_pairs_by_label), dtype=np.int64,
                       count=len(edge_pairs_by_label))
    cols = np.fromiter((index[b] for _, b in edge_pairs_by_label), dtype=np.int64,
                       count=len(edge_pairs_by_label))
    data = np.ones(len(rows))
    adj = sparse.coo_matrix((np.concatenate([data, data]),
                             (np.concatenate([rows, cols]),
                              np.concatenate([cols, rows]))), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    adj.sort_indices()
    degrees = np.diff(adj.indptr).astype(np.int64)
    return Graph(adjacency=adj, degrees=degrees, node_labels=tuple(labels_sorted))


def reference_load_edge_list(source):
    raw_edges = []
    for lineno, line in enumerate(_reference_as_lines(source), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            if len(tokens) > 2:
                raise EdgeListError(
                    f"line {lineno}: expected 2 tokens, got {len(tokens)} "
                    "(weighted edges are not supported)")
            raise EdgeListError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        raw_edges.append((tokens[0], tokens[1]))
    if not raw_edges:
        raise EdgeListError("no edges found in input")

    flat = _reference_normalize_labels([t for pair in raw_edges for t in pair])
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(len(raw_edges))]

    self_loops = sum(1 for a, b in pairs if a == b)
    kept = {}
    for a, b in pairs:
        if a == b:
            continue
        kept[(min(a, b), max(a, b))] = None
    duplicates = len(pairs) - self_loops - len(kept)
    if self_loops or duplicates:
        log.info("dropped %d self-loops and %d duplicate edges", self_loops, duplicates)
    if not kept:
        raise EdgeListError("graph is empty after dropping self-loops")

    labels_sorted = sorted({lab for pair in kept for lab in pair})
    g = _reference_build(labels_sorted, list(kept))
    return reference_largest_connected_component(g)


def reference_largest_connected_component(g):
    ncomp, comp = csgraph.connected_components(g.adjacency, directed=False)
    if ncomp == 1:
        return g
    sizes = np.bincount(comp)
    best_size = sizes.max()
    winner = min((c for c in range(ncomp) if sizes[c] == best_size),
                 key=lambda c: np.argmax(comp == c))
    keep = np.flatnonzero(comp == winner)
    sub = g.adjacency[np.ix_(keep, keep)].tocsr()
    sub.sort_indices()
    degrees = np.diff(sub.indptr).astype(np.int64)
    labels = tuple(g.node_labels[i] for i in keep)
    return Graph(adjacency=sub, degrees=degrees, node_labels=labels)
