"""Seeded planted-partition graphs.

The generator samples each node pair independently with a within-block or
between-block probability, keeps the largest connected component, and
retries with derived seeds until the component covers at least 95% of the
requested nodes.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, largest_connected_component

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


def generate_planted_partition(spec):
    """Sample a planted-partition graph; returns (Graph, ground-truth labels).

    Labels align with the returned graph's node order. Raises if 20
    attempts fail to produce a connected component covering 95% of n.
    """
    blocks = _block_assignment(spec.n, spec.k)
    root = np.random.default_rng(spec.seed)
    for _ in range(MAX_ATTEMPTS):
        rng = root.spawn(1)[0]
        probs = np.where(blocks[:, None] == blocks[None, :], spec.p_in, spec.p_out)
        hit = np.triu(rng.random((spec.n, spec.n)) < probs, k=1)
        r, c = np.nonzero(hit)
        if len(r) == 0:
            continue
        g = largest_connected_component(Graph.from_edges(spec.n, r, c, range(spec.n)))
        if g.n >= COVERAGE * spec.n:
            labels = blocks[np.array(g.node_labels, dtype=np.int64)]
            return g, labels
    raise RuntimeError(
        f"could not produce a connected graph covering >= {COVERAGE:.0%} of "
        f"{spec.n} nodes in {MAX_ATTEMPTS} attempts; edge probabilities too sparse")
