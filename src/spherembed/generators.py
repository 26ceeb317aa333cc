"""Seeded planted-partition graphs.

Every node pair is an edge independently, with probability p_in inside a
block and p_out between blocks. The generator keeps the largest connected
component and retries with derived seeds until the component covers at
least 95% of the requested nodes.

Sampling is exact and takes O(n + m) time and memory; no n x n array is
formed. Each G(s, p) draw (Batagelj & Brandes, Phys. Rev. E 71, 036113,
2005) takes a binomial count of edges over the C(s, 2) pairs, then that
many distinct pair indices, uniformly, and unranks them to (i < j). One
draw covers all pairs with p_out; a second covers the within-block pairs
of all blocks together with p' = (p_in - p_out) / (1 - p_out), so that a
within-block pair is in their union with probability
1 - (1 - p_out)(1 - p') = p_in.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _run_starts, largest_connected_component

COVERAGE = 0.95
MAX_ATTEMPTS = 20


@dataclass(frozen=True)
class PlantedPartitionSpec:
    n: int
    k: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("probabilities must satisfy 0 <= p_out <= p_in <= 1")


def _block_assignment(n, k):
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1  # remainder spread over the first blocks
    return np.repeat(np.arange(k), sizes)


def _pair_count(s):
    return s * (s - 1) // 2


def _sample_pairs(rng, pairs, p):
    """Distinct indices into range(pairs), each present with probability p."""
    return rng.choice(pairs, size=rng.binomial(pairs, p), replace=False, shuffle=False)


def _unrank_pairs(r):
    """Pairs (i, j), i < j, of the indices r = j (j - 1) / 2 + i, exactly."""
    j = ((1 + np.sqrt(8 * r + 1)) // 2).astype(np.int64)
    j -= j * (j - 1) // 2 > r  # the float root may be one off either way
    j += (j + 1) * j // 2 <= r
    return r - j * (j - 1) // 2, j


def _edge_keys(rng, spec, blocks):
    """Sorted keys i * n + j, i < j, of one sample of the planted graph."""
    n = spec.n
    i, j = _unrank_pairs(_sample_pairs(rng, _pair_count(n), spec.p_out))

    sizes = np.bincount(blocks, minlength=spec.k)
    starts = np.cumsum(sizes) - sizes
    offsets = np.cumsum(_pair_count(sizes)) - _pair_count(sizes)
    p_extra = 1.0 if spec.p_out == 1.0 else (spec.p_in - spec.p_out) / (1.0 - spec.p_out)
    t = _sample_pairs(rng, int(_pair_count(sizes).sum()), p_extra)
    block = np.searchsorted(offsets, t, side="right") - 1
    bi, bj = _unrank_pairs(t - offsets[block])
    keys = np.sort(np.concatenate([i * n + j, (bi + starts[block]) * n + bj + starts[block]]))
    return keys[_run_starts(keys)]  # a within-block pair both draws hit is one edge


def generate_planted_partition(spec):
    """Sample a planted-partition graph; returns (Graph, ground-truth labels).

    Labels align with the returned graph's node order. Raises if 20
    attempts fail to produce a connected component covering 95% of n.
    """
    blocks = _block_assignment(spec.n, spec.k)
    root = np.random.default_rng(spec.seed)
    for _ in range(MAX_ATTEMPTS):
        rng = root.spawn(1)[0]
        keys = _edge_keys(rng, spec, blocks)
        if len(keys) == 0:
            continue
        g = largest_connected_component(
            Graph.from_edges(spec.n, keys // spec.n, keys % spec.n, range(spec.n)))
        if g.n >= COVERAGE * spec.n:
            labels = blocks[np.array(g.node_labels, dtype=np.int64)]
            return g, labels
    raise RuntimeError(
        f"could not produce a connected graph covering >= {COVERAGE:.0%} of "
        f"{spec.n} nodes in {MAX_ATTEMPTS} attempts; edge probabilities too sparse")
