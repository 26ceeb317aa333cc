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
from functools import lru_cache

import numpy as np

from .graphs import Graph, _run_starts, largest_connected_component
from .solver import _check_count

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
        _check_count("n", self.n, 2)
        _check_count("k", self.k, 1)
        _check_count("seed", self.seed, 0)
        if self.k > self.n:
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
    """Pairs (i, j), i < j, of the indices r = j (j - 1) / 2 + i, exactly.

    Halving is a shift: numpy's int64 floor division by 2 takes several
    times as long.
    """
    root = r * 8.0  # j = floor((1 + sqrt(8 r + 1)) / 2), in one float buffer
    root += 1.0
    np.sqrt(root, out=root)
    root += 1.0
    root *= 0.5
    j = root.astype(np.int64)
    i = j * (j - 1)
    i >>= 1
    np.subtract(r, i, out=i)
    # the float root may be one off either way; then i leaves 0..j - 1
    high = i < 0
    j[high] -= 1
    i[high] += j[high]
    low = i >= j
    i[low] -= j[low]
    j[low] += 1
    return i, j


def _edge_keys(rng, spec, blocks):
    """Sorted keys i * n + j, i < j, of one sample of the planted graph.

    The keys are sorted at the end, so they do not depend on the order in
    which the pair indices were drawn.
    """
    n = spec.n
    i, j = _unrank_pairs(_sample_pairs(rng, _pair_count(n), spec.p_out))

    sizes = np.bincount(blocks, minlength=spec.k)
    starts = np.cumsum(sizes) - sizes
    pairs = _pair_count(sizes)
    offsets = np.cumsum(pairs) - pairs
    p_extra = 1.0 if spec.p_out == 1.0 else (spec.p_in - spec.p_out) / (1.0 - spec.p_out)
    t = _sample_pairs(rng, int(pairs.sum()), p_extra)
    t.sort()  # sorted, the within-block indices fall into one run per block
    per_block = np.diff(np.searchsorted(t, offsets), append=len(t))
    t -= np.repeat(offsets, per_block)
    bi, bj = _unrank_pairs(t)
    # block b's pair (bi, bj) is the node pair (bi + s, bj + s), s = starts[b]
    bj += np.repeat(starts * (n + 1), per_block)
    keys = np.concatenate([i * n + j, bi * n + bj])
    keys.sort()
    return keys[_run_starts(keys)]  # a within-block pair both draws hit is one edge


@lru_cache(maxsize=1)
def _node_range(n):
    """tuple(range(n)), the node labels of every attempt at n nodes.

    Only the last n's tuple is kept, and it stays alive after the graphs
    that share it are gone: 3.6 MB at n = 100 000.
    """
    return tuple(range(n))


def generate_planted_partition(spec):
    """Sample a planted-partition graph; returns (Graph, ground-truth labels).

    Labels align with the returned graph's node order. Raises if 20
    attempts fail to produce a connected component covering 95% of n.
    A graph that keeps all n nodes has node labels 0..n-1 in a cached
    tuple that consecutive calls at the same n share (see _node_range).
    """
    blocks = _block_assignment(spec.n, spec.k)
    root = np.random.default_rng(spec.seed)
    for _ in range(MAX_ATTEMPTS):
        rng = root.spawn(1)[0]
        keys = _edge_keys(rng, spec, blocks)
        if len(keys) == 0:
            continue
        g = largest_connected_component(Graph._from_keys(spec.n, keys, _node_range(spec.n)))
        if g.n == spec.n:  # no node was cut, so node i is still node i
            return g, blocks
        if g.n >= COVERAGE * spec.n:
            return g, blocks[np.array(g.node_labels, dtype=np.int64)]
    raise RuntimeError(
        f"could not produce a connected graph covering >= {COVERAGE:.0%} of "
        f"{spec.n} nodes in {MAX_ATTEMPTS} attempts; edge probabilities too sparse")
