"""Seeded inputs for the benchmark: sparse planted-partition graphs and files.

The library's own generator draws a dense n x n matrix, which needs more
than 3 GB at n = 20k, so the benchmark samples its graphs here instead,
block pair by block pair: a binomial edge count per pair of blocks, then
uniform endpoints within the two blocks. Self-loops and repeated pairs are
dropped, and the graph is cut to its largest connected component, whose
nodes are relabelled 0..n-1 so that every label the loader sees is in the
graph. Block membership follows a seeded permutation of the labels, so the
adjacency has no block-contiguous memory layout that real graphs lack.

Only numpy and scipy are used: nothing here imports spherembed, so the
inputs do not depend on the code under test.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

BLOCKS = 10
DEG_IN = 12.0   # expected within-block neighbours per node
DEG_OUT = 3.0   # expected between-block neighbours per node
EMBED_DIM = 10
EMBED_NOISE = 0.2  # per-coordinate noise of the stored embedding rows


@dataclass(frozen=True)
class PlantedGraph:
    """Edge list (i < j, sorted) over nodes 0..n-1 with planted block labels."""

    n: int
    edges: np.ndarray   # (m, 2) int64
    truth: np.ndarray   # (n,) int64 block of each node

    @property
    def m(self):
        return len(self.edges)

    def csr(self):
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * self.m)
        adj = sparse.csr_matrix((data, (np.concatenate([i, j]), np.concatenate([j, i]))),
                                shape=(self.n, self.n))
        adj.sort_indices()
        return adj

    def digest(self):
        h = hashlib.sha256()
        h.update(np.int64(self.n).tobytes())
        h.update(self.edges.tobytes())
        h.update(self.truth.tobytes())
        return h.hexdigest()[:16]


def planted_graph(n, seed, blocks=BLOCKS, deg_in=DEG_IN, deg_out=DEG_OUT):
    """Sample a sparse planted-partition graph in O(n + m) memory."""
    rng = np.random.default_rng(seed)
    block_of = rng.permutation(np.arange(n) % blocks)
    members = [np.flatnonzero(block_of == b) for b in range(blocks)]
    size = n / blocks
    p_in = deg_in / (size - 1)
    p_out = deg_out / (n - size)
    parts = []
    for a in range(blocks):
        sa = len(members[a])
        count = rng.binomial(sa * (sa - 1) // 2, p_in)
        parts.append(rng.choice(members[a], size=(count, 2)))
        for b in range(a + 1, blocks):
            count = rng.binomial(sa * len(members[b]), p_out)
            parts.append(np.column_stack([rng.choice(members[a], size=count),
                                          rng.choice(members[b], size=count)]))
    pairs = np.concatenate(parts)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    edges = np.column_stack([keys // n, keys % n])

    adj = PlantedGraph(n, edges, block_of).csr()
    _, comp = csgraph.connected_components(adj, directed=False)
    keep = comp == np.argmax(np.bincount(comp))
    new_index = np.cumsum(keep) - 1
    edges = edges[keep[edges[:, 0]]]  # a component keeps both endpoints
    return PlantedGraph(int(keep.sum()), new_index[edges], block_of[keep])


def stored_embedding(truth, seed, dim=EMBED_DIM, noise=EMBED_NOISE):
    """Unit rows: the node's block direction plus seeded Gaussian noise.

    Block directions are the rows of a seeded random orthogonal matrix, so
    the blocks are separable but the rows are not what any solver returns.
    """
    rng = np.random.default_rng(seed)
    directions, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    rows = directions[truth % dim] + noise * rng.standard_normal((len(truth), dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def edge_list_text(g):
    return "\n".join(map("{} {}".format, *g.edges.T.tolist())) + "\n"


def truth_text(g):
    return "\n".join(map("{} {}".format, range(g.n), g.truth.tolist())) + "\n"


def embedding_text(rows):
    header = "node," + ",".join(f"coord_{j + 1}" for j in range(rows.shape[1]))
    lines = [header]
    lines += [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(rows.tolist())]
    return "\n".join(lines) + "\n"


def write_inputs(directory, g, embedding_seed=None):
    """Write edges.txt, truth.txt (and embedding.csv); return {name: sha256 prefix}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"edges.txt": edge_list_text(g), "truth.txt": truth_text(g)}
    if embedding_seed is not None:
        files["embedding.csv"] = embedding_text(stored_embedding(g.truth, embedding_seed))
    digests = {}
    for name, text in files.items():
        data = text.encode()
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()[:16]
    return digests
