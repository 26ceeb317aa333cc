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
from spherembed.graphs import _read_text
from spherembed.metrics import modularity_of_partition
from spherembed.partition import Partition, _compact, init_centroids, vp_step, z_tilde_value
from spherembed.plotting import MARGIN, PALETTE, PANEL


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


# The ground-truth loader as it stood before it was vectorized: one
# strip/split/normalize per line and a dict per node. Kept verbatim, bar the
# names, as the reference the array version must match.

def reference_load_ground_truth(source, graph, ignore_extra=False):
    int_labels = isinstance(graph.node_labels[0], (int, np.integer))
    assignments = {}
    order = {}
    for lineno, line in enumerate(_read_text(source).splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'node community', got {len(tokens)} tokens")
        node = _reference_normalize_labels([tokens[0]])[0] if int_labels else tokens[0]
        if node not in graph.label_index:
            if ignore_extra:
                continue
            raise EdgeListError(f"line {lineno}: unknown node label {node!r}")
        if tokens[1] not in order:
            order[tokens[1]] = len(order)
        assignments[node] = order[tokens[1]]
    missing = [lab for lab in graph.node_labels if lab not in assignments]
    if missing:
        raise EdgeListError(f"missing community labels for {len(missing)} nodes "
                            f"(first: {missing[0]!r})")
    return np.array([assignments[lab] for lab in graph.node_labels], dtype=np.int64)


# The planted-partition generator as it stood before sampling became sparse:
# a dense n x n uniform matrix against a dense n x n probability matrix.
# Kept verbatim, bar the names, so that graphs pinned by seed (the golden
# content hash) keep their edges, and as the distribution the sparse
# sampler must reproduce.

REFERENCE_COVERAGE = 0.95
REFERENCE_MAX_ATTEMPTS = 20


def _reference_block_assignment(n, k):
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1  # remainder spread over the first blocks
    return np.repeat(np.arange(k), sizes)


def reference_generate_planted_partition(spec):
    blocks = _reference_block_assignment(spec.n, spec.k)
    root = np.random.default_rng(spec.seed)
    for _ in range(REFERENCE_MAX_ATTEMPTS):
        rng = root.spawn(1)[0]
        probs = np.where(blocks[:, None] == blocks[None, :], spec.p_in, spec.p_out)
        hit = np.triu(rng.random((spec.n, spec.n)) < probs, k=1)
        r, c = np.nonzero(hit)
        if len(r) == 0:
            continue
        g = reference_largest_connected_component(
            Graph.from_edges(spec.n, r, c, range(spec.n)))
        if g.n >= REFERENCE_COVERAGE * spec.n:
            labels = blocks[np.array(g.node_labels, dtype=np.int64)]
            return g, labels
    raise RuntimeError(
        f"could not produce a connected graph covering >= {REFERENCE_COVERAGE:.0%} of "
        f"{spec.n} nodes in {REFERENCE_MAX_ATTEMPTS} attempts; edge probabilities too sparse")


# The partition-round kernels, modularity, embedding CSV reader and SVG
# scatter as they stood before the reuse path became array-native: np.add.at,
# np.unique, a 2m-long row index per modularity call, float() per cell and
# one f-string per circle. Kept verbatim, bar the names, as the references
# the array versions must match bit for bit.

def reference_modularity_of_partition(graph, labels):
    """sum_c [ m_c / m - (D_c / 2m)^2 ] over clusters c.

    m_c counts edges internal to cluster c and D_c sums its degrees.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise ValueError(f"labels must have length {graph.n}")
    if labels.min() < 0:
        raise ValueError("cluster ids must be non-negative")
    k = int(labels.max()) + 1
    two_m = float(graph.degrees.sum())
    deg_sums = np.bincount(labels, weights=graph.degrees, minlength=k)
    adj = graph.adjacency
    row = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
    internal = labels[row] == labels[adj.indices]
    internal_deg = np.bincount(labels[row][internal], minlength=k)  # = 2 m_c
    return float(np.sum(internal_deg / two_m - (deg_sums / two_m) ** 2))


def reference_centroids_for(rows, labels, k):
    R = np.zeros((k, rows.shape[1]))
    np.add.at(R, labels, rows)
    return R


def reference_compact(rows, labels):
    used, labels = np.unique(labels, return_inverse=True)
    return labels, reference_centroids_for(rows, labels, len(used))


# vp_run as it stood before it carried cluster counts from round to round:
# every round is a vp_step and a full modularity recount. Kept verbatim, bar
# the name, as the reference the count updates must match bit for bit.

def reference_vp_run(rows, graph, k, rng, max_rounds=200):
    """Iterate vp_step until the partition modularity stops strictly increasing.

    Returns the best-modularity state seen across rounds (including the
    initial assignment). Both the objective and modularity series are kept
    in the run history.
    """
    rows = np.asarray(rows, dtype=float)
    labels, R = init_centroids(rows, graph.degrees, k, rng)
    q = modularity_of_partition(graph, labels)
    history = [{"round": 0, "z_tilde": z_tilde_value(R), "modularity": q,
                "clusters": R.shape[0]}]
    best_labels, best_q = labels, q
    q_prev = q
    for rnd in range(1, max_rounds + 1):
        labels, R = vp_step(rows, labels, R)
        q = modularity_of_partition(graph, labels)
        history.append({"round": rnd, "z_tilde": z_tilde_value(R), "modularity": q,
                        "clusters": R.shape[0]})
        if q > best_q:
            best_labels, best_q = labels, q
        if q <= q_prev:
            break
        q_prev = q
    labels, R = _compact(rows, best_labels)
    return Partition(labels=labels, k_init=k, centroids=R,
                     z_tilde=z_tilde_value(R), modularity=best_q, history=history)


def reference_read_embedding_csv(source):
    """Read an embedding CSV back into (node label strings, coordinate matrix)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("node,"):
        raise ValueError("not an embedding CSV: missing 'node,coord_...' header")
    labels = []
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        labels.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return labels, np.array(rows)


def _reference_scale(values, span):
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    return lambda v: (v - lo) / (hi - lo) * span


def reference_render_scatter_svg(coords, labels=None):
    """Render coordinate pairs (1,2) — and (1,3) when present — as SVG panels.

    Points are colored by cluster label through the fixed palette; without
    labels a single color is used. Requires at least 2 coordinates per node.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise ValueError("scatter plotting needs at least 2 coordinates per node; "
                         "for 1-dimensional embeddings export the spectrum instead")
    pairs = [(0, 1)] if coords.shape[1] == 2 else [(0, 1), (0, 2)]
    if labels is None:
        colors = [PALETTE[0]] * coords.shape[0]
    else:
        labels = np.asarray(labels, dtype=int)
        if len(labels) != coords.shape[0]:
            raise ValueError("labels length does not match coordinate rows")
        colors = [PALETTE[l % len(PALETTE)] for l in labels]

    width = len(pairs) * (PANEL + 2 * MARGIN)
    height = PANEL + 2 * MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for p, (ax, ay) in enumerate(pairs):
        x0 = p * (PANEL + 2 * MARGIN) + MARGIN
        y0 = MARGIN
        sx = _reference_scale(coords[:, ax], PANEL)
        sy = _reference_scale(coords[:, ay], PANEL)
        parts.append(f'<rect x="{x0}" y="{y0}" width="{PANEL}" height="{PANEL}" '
                     'fill="none" stroke="#cccccc"/>')
        parts.append(f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12" '
                     f'fill="#555555">coord {ax + 1} vs coord {ay + 1}</text>')
        for i in range(coords.shape[0]):
            cx = x0 + sx(coords[i, ax])
            cy = y0 + PANEL - sy(coords[i, ay])
            parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="3" '
                         f'fill="{colors[i]}" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
