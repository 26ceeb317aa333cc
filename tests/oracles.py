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
from spherembed.graphs import _read_utf8
from spherembed.metrics import modularity_of_partition
from spherembed.partition import Partition, _compact, init_centroids, vp_step, z_tilde_value
from spherembed.plotting import MARGIN, PALETTE, PANEL
from spherembed.solver import SolveResult


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


def _read_text(source):
    """Whole input as text, without a leading UTF-8 byte-order mark."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8-sig")
        return data.removeprefix("\ufeff")
    return Path(source).read_text(encoding="utf-8-sig")


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


# The partition CSV reader as it stood before it shared the chunked CSV row
# reader: whole text, each row split at its last comma byte by byte. Kept
# verbatim, bar the name, as the reference for inputs whose labels hold no
# comma.

def reference_read_cluster_ids(source, node_labels):
    """Cluster id of each of node_labels, read from a partition CSV.

    A row is a node label and an integer id, split at the row's last comma.
    Blank rows are skipped, and a node's last row wins.
    """
    lines = _read_utf8(source).decode("utf-8", "surrogatepass").splitlines()
    if not lines or lines[0] != "node_label,cluster_id":
        raise EdgeListError("not a partition CSV: missing header")
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise EdgeListError(f"partition CSV is missing node {node_labels[0]!r}")
    raw = np.frombuffer("\n".join(rows).encode("utf-8", "surrogatepass"), dtype=np.uint8).copy()
    ends = np.append(np.flatnonzero(raw == ord("\n")), len(raw))
    commas = np.flatnonzero(raw == ord(","))
    upto = np.searchsorted(commas, ends)  # commas before each row's end
    if (np.diff(upto, prepend=0) == 0).any():
        raise EdgeListError("not a partition CSV: a row has no comma")
    raw[commas[upto - 1]] = ord("\n")  # split each row at its last comma
    cells = raw.tobytes().decode("utf-8", "surrogatepass").split("\n")
    nodes = cells[0::2]
    if not all(map(str.strip, cells[1::2])):
        raise EdgeListError("not a partition CSV: a row has no cluster id")
    ids = np.loadtxt(cells[1::2], dtype=np.int64, comments=None, ndmin=1)
    if nodes == node_labels and len(set(nodes)) == len(nodes):
        return ids  # rows in node order, each node once: the writer's layout
    row_of = dict(zip(nodes, range(len(nodes))))
    try:
        return ids[[row_of[lab] for lab in node_labels]]
    except KeyError as exc:
        raise EdgeListError(f"partition CSV is missing node {exc.args[0]!r}") from None


# The four CSV writers as each formatted its own rows before they shared
# one block-wise formatter; kept verbatim, bar the names, as the byte-exact
# references for every artifact.

def reference_write_embedding_csv(result, graph, kind="spherical"):
    """Text of "node,coord_1..coord_r" rows in original-label order."""
    if kind == "spherical":
        coords = result.spherical()
    elif kind == "ellipsoidal":
        coords = result.ellipsoidal()
    else:
        raise ValueError(f"unknown embedding kind {kind!r}")
    r = coords.shape[1]
    header = "node," + ",".join(f"coord_{j + 1}" for j in range(r))
    lines = [header]
    for i in range(result.n):
        values = ",".join(repr(float(v)) for v in coords[i])
        lines.append(f"{graph.node_labels[i]},{values}")
    return "\n".join(lines) + "\n"


def reference_write_spectrum_csv(result):
    """Text of "index,eigenvalue_of_rho_over_n" with 1-based index."""
    lines = ["index,eigenvalue_of_rho_over_n"]
    for i, lam in enumerate(result.rho_spectrum(), start=1):
        lines.append(f"{i},{repr(float(lam))}")
    return "\n".join(lines) + "\n"


def reference_write_trace_csv(result, include_delta=False):
    """Text of the objective trace as "iteration,objective[,delta_criterion]"."""
    rows = []
    header = ["iteration", "objective"]
    with_delta = include_delta and result.delta_trace is not None
    if with_delta:
        header.append("delta_criterion")
    for i, o in enumerate(result.trace):
        row = [str(i), repr(float(o))]
        if with_delta:
            row.append(repr(float(result.delta_trace[i])))
        rows.append(row)
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def reference_write_partition_csv(partition, graph):
    """Text of "node_label,cluster_id" rows in original-label order."""
    rows = map("{},{}\n".format, graph.node_labels, partition.labels.tolist())
    return "node_label,cluster_id\n" + "".join(rows)


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


# The two descriptor operators as they stood before both became one scaled
# matrix S (A - d d^T / 2m) S: each with its own apply, diagonal and closed
# form for the off-diagonal sums. Kept verbatim, bar the names, as the
# references the single descriptor class must match at sizes the dense
# matrices above cannot reach.

class ReferenceModularityOperator:
    """Matrix-free modularity descriptor (A - d d^T / 2m) / 2m."""

    kind = "modularity"

    def __init__(self, graph):
        self.graph = graph
        self._adj = graph.adjacency
        self._deg = graph.degrees.astype(float)
        self._two_m = float(graph.degrees.sum())
        if self._two_m <= 0:
            raise ValueError("graph has no edges")
        self._d_over_2m = self._deg / self._two_m

    @property
    def n(self):
        return self.graph.n

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[0] != self.n:
            raise ValueError(f"block has {X.shape[0]} rows, expected {self.n}")
        return (self._adj @ X - np.outer(self._d_over_2m, self._deg @ X)) / self._two_m

    def diagonal(self):
        return -(self._deg / self._two_m) ** 2

    def offdiagonal_abs_sums(self):
        """sum_{k != i} |M_ik| per row, in O(deg(i)) per row.

        Neighbor entries are |1 - d_i d_k / 2m| / 2m; the non-neighbor
        entries are all negative, so their absolute values sum to
        d_i (2m - d_i - sum_{k in N(i)} d_k) / (2m)^2.
        """
        deg, two_m = self._deg, self._two_m
        indptr, indices = self._adj.indptr, self._adj.indices
        neigh_deg = deg[indices]
        row = np.repeat(np.arange(self.n), np.diff(indptr))
        adj_part = np.bincount(row, weights=np.abs(1.0 - deg[row] * neigh_deg / two_m),
                               minlength=self.n)
        neigh_deg_sum = np.bincount(row, weights=neigh_deg, minlength=self.n)
        nonadj_part = deg * (two_m - deg - neigh_deg_sum) / two_m
        return (adj_part + nonadj_part) / two_m


class ReferenceLaplacianDescriptorOperator:
    """Matrix-free D^{-1/2} A D^{-1/2} - sqrt(pi) sqrt(pi)^T descriptor."""

    kind = "normlap"

    def __init__(self, graph):
        self.graph = graph
        self._adj = graph.adjacency
        deg = graph.degrees.astype(float)
        if (deg <= 0).any():
            raise ValueError("descriptor requires all degrees positive")
        self._inv_sqrt_d = 1.0 / np.sqrt(deg)
        self._sqrt_d = np.sqrt(deg)
        self._two_m = float(deg.sum())
        self._sqrt_pi = np.sqrt(deg / self._two_m)

    @property
    def n(self):
        return self.graph.n

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[0] != self.n:
            raise ValueError(f"block has {X.shape[0]} rows, expected {self.n}")
        Y = self._adj @ (self._inv_sqrt_d[:, None] * X)
        return self._inv_sqrt_d[:, None] * Y - np.outer(self._sqrt_pi, self._sqrt_pi @ X)

    def diagonal(self):
        return -self._sqrt_pi ** 2

    def offdiagonal_abs_sums(self):
        """sum_{k != i} |M_ik| per row via neighbor sums of sqrt degrees."""
        indptr, indices = self._adj.indptr, self._adj.indices
        row = np.repeat(np.arange(self.n), np.diff(indptr))
        sd, isd, two_m = self._sqrt_d, self._inv_sqrt_d, self._two_m
        entries = np.abs(isd[row] * isd[indices] - sd[row] * sd[indices] / two_m)
        adj_part = np.bincount(row, weights=entries, minlength=self.n)
        neigh_sqrt_sum = np.bincount(row, weights=sd[indices], minlength=self.n)
        nonadj_part = sd * (sd.sum() - sd - neigh_sqrt_sum) / two_m
        return adj_part + nonadj_part


REFERENCE_DESCRIPTORS = {"modularity": ReferenceModularityOperator,
                         "normlap": ReferenceLaplacianDescriptorOperator}


# The shifted operator, row projection and solver loop as they stood before K
# became one CSR matrix with its diagonal folded in and the loop began
# reusing its buffers. Kept verbatim, bar the names, as the references the
# one-sparse-pass update must match to rounding.

class ReferenceShiftedOperator:
    """The iteration matrix K: off-diagonal of M with diagonal replaced by v.

    K_ij = M_ij for i != j and K_ii = v_i = 1 + eps + sum_{k != i} |M_ik|,
    so K_ii - sum_{k != i} |K_ik| = 1 + eps > 0 for every row.
    """

    def __init__(self, base, epsilon=0.0):
        if epsilon < 0:
            raise ValueError("shift epsilon must be non-negative")
        self.base = base
        self.epsilon = float(epsilon)
        # the reference descriptor's own absolute row sums, not the package's shift
        self.shift = 1.0 + self.epsilon + base.offdiagonal_abs_sums()
        # applying M then correcting the diagonal in place implements the
        # replacement K = M - diag(M) + diag(v)
        self._diag_delta = self.shift - base.diagonal()

    @property
    def n(self):
        return self.base.n

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        Y = self.base.apply(X)
        Y += self._diag_delta[:, None] * X
        return Y

    def sample_columns(self, count, rng):
        """Materialize `count` uniformly sampled columns of K, without replacement."""
        n = self.n
        if not 1 <= count <= n:
            raise ValueError(f"need 1 <= count <= {n}, got {count}")
        idx = rng.choice(n, size=count, replace=False)
        E = np.zeros((n, count))
        E[idx, np.arange(count)] = 1.0
        C = self.base.apply(E)
        C[idx, np.arange(count)] = self.shift[idx]
        return C


def reference_project_rows(X, norms=None):
    """Normalize each row to unit 2-norm; zero rows are an error.

    norms, when given, are the row norms of X, already computed.
    """
    X = np.asarray(X, dtype=float)
    if norms is None:
        norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cannot project a zero row onto the sphere")
    return X / norms[:, None]


def _reference_initial_point(k, cfg, rng, x0):
    if x0 is not None:
        return np.array(x0, dtype=float, copy=True)
    return reference_project_rows(k.sample_columns(cfg.d0, rng))


def reference_solve(k, cfg, rng=None, x0=None):
    """Projected power iteration x_j = P(z_j), maximizing Tr(x^T K x).

    Update j extrapolates the cached K images,
    z_j = K x_{j-1} + r_j (K x_{j-1} - K x_{j-2}), so it costs one apply.
    The plain method (cfg.momentum False) has r_j = 0 and increases the
    objective by more than the squared step norm; momentum uses
    r_j = (j-1)/(j+2) and is not guaranteed monotone. The stopping test
    reads the objective for the plain method and the surrogate
    Tr((K x_{j-1})^T x_j) with momentum.

    Stops once the relative change of that series drops below cfg.tol
    (tested from the second update on) or after cfg.max_iter updates, in
    which case the result is flagged not converged. iterations counts
    updates and trace[0] = f(x0), so len(trace) == iterations + 1.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    x = _reference_initial_point(k, cfg, rng, x0)
    plain = not cfg.momentum
    surrogate = cfg.momentum
    y = y_prev = k.apply(x)
    f = float(np.vdot(x, y))
    trace = [f]
    # the plain method reuses the row norms of Kx for the next projection
    y_norms = np.linalg.norm(y, axis=1) if plain else None
    deltas = [float(np.sum(y_norms) - f)] if plain else None
    steps = []
    j = 0
    converged = False
    while j < cfg.max_iter:
        j += 1
        r = 0.0 if plain else (j - 1) / (j + 2)
        z, norms = y, y_norms
        if r > 0:
            z = y + r * (y - y_prev)
            norms = np.linalg.norm(z, axis=1)
            # extrapolation can in principle produce a zero row; fall back
            # to the non-extrapolated power-iteration row there
            bad = norms == 0.0
            if bad.any():
                z[bad] = y[bad]
                norms = None
        x_new = reference_project_rows(z, norms)
        if plain:
            steps.append(float(np.sum((x_new - x) ** 2)))
        if surrogate:
            trace.append(float(np.vdot(y, x_new)))
        x, y_prev = x_new, y
        y = k.apply(x)
        f = float(np.vdot(x, y))
        if plain:
            y_norms = np.linalg.norm(y, axis=1)
            deltas.append(float(np.sum(y_norms) - f))
        if not surrogate:
            trace.append(f)
        if j >= 2 and abs(trace[-1] - trace[-2]) / trace[-2] < cfg.tol:
            converged = True
            break
    delta = float(np.sum(np.linalg.norm(y, axis=1)) - f)
    return SolveResult(x=x, objective=f, delta=delta,
                       trace=np.array(trace), iterations=j, converged=converged,
                       method="gpm" if plain else "gpmm",
                       step_norms_sq=np.array(steps) if plain else None,
                       delta_trace=np.array(deltas) if plain else None)


# ShiftedOperator's matrix build as it stood before the shift and W shared
# one array of edge products: each formed s_i s_k itself. Kept verbatim, bar
# the names, as the reference whose shift and K the build must match byte
# for byte.

def _reference_edge_products(adj, v):
    out = np.repeat(v, np.diff(adj.indptr))
    out *= v[adj.indices]
    return out


def reference_shifted_matrix(base, epsilon=0.0):
    """(shift, K) as ShiftedOperator.__init__ built them for a descriptor base."""
    adj, s, u = base.graph.adjacency, base._s, base._u
    entries = _reference_edge_products(adj, s)
    np.subtract(entries, _reference_edge_products(adj, u), out=entries)
    np.abs(entries, out=entries)
    neighbour_abs = sparse.csr_matrix((entries, adj.indices, adj.indptr), shape=adj.shape,
                                      copy=False)
    nonadj_part = u * (u.sum() - u - adj @ u)
    shift = 1.0 + epsilon + (neighbour_abs @ np.ones(base.n) + nonadj_part)
    n, index = base.n, adj.indices.dtype
    plus = sparse.csr_matrix(
        (np.column_stack([shift - base.diagonal(), -u]).ravel(),
         np.column_stack([np.arange(n, dtype=index), np.full(n, n, dtype=index)]).ravel(),
         np.arange(0, 2 * n + 1, 2, dtype=index)), shape=(n, n + 1))
    W = sparse.csr_matrix((_reference_edge_products(adj, s), adj.indices, adj.indptr),
                          shape=plus.shape, copy=False)
    return shift, W + plus
