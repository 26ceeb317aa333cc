"""Vector partitioning of embedding rows into communities.

Nodes are assigned to centroid vectors R_l (sums of member rows) by
maximizing the inner product U_i R_l^T, which greedily increases the
partition objective z_tilde = sum_l ||R_l||^2. Centroids are seeded from
degree-proportionally sampled rows; empty clusters are dropped as the
synchronous reassign/update rounds proceed, so the final cluster count is
at most the initial k.

The partitioner consumes the unit-norm spherical embedding rows (U * s,
using every numerical-rank direction). Weighting the directions by their
singular values keeps numerically negligible ones from distorting the
assignment geometry, and with unit rows a single-node move from cluster a
to b changes the objective by exactly 2 U_i (R_b - R_a)^T + 2 with respect
to the pre-move centroids.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import modularity_of_partition


@dataclass
class Partition:
    """Cluster labels with centroid block, objective, and per-round history."""

    labels: np.ndarray
    k_init: int
    centroids: np.ndarray
    z_tilde: float
    modularity: float
    history: list
    restart_index: int = None

    @property
    def n_clusters(self):
        return self.centroids.shape[0]


def z_tilde_value(centroids):
    """Partition objective: sum of squared centroid norms."""
    return float(np.sum(np.asarray(centroids) ** 2))


def _centroids_for(rows, labels, k):
    # one bin per (cluster, column); each bin sums its rows in row order
    d = rows.shape[1]
    keys = (labels[:, None] * d + np.arange(d)).ravel()
    return np.bincount(keys, weights=rows.ravel(), minlength=k * d).reshape(k, d)


def _compact(rows, labels):
    used = np.bincount(labels) > 0
    labels = (np.cumsum(used) - 1)[labels]
    return labels, _centroids_for(rows, labels, int(used.sum()))


def init_centroids(rows, degrees, k, rng):
    """Seed k centroids from degree-proportionally sampled rows and assign all nodes.

    Sampling is without replacement with probability d_i / sum(d); each node
    then joins the centroid maximizing the inner product (ties toward the
    lowest centroid index), and centroids are recomputed as member-row sums.
    Clusters left empty by the first assignment are dropped immediately.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    p = np.asarray(degrees, dtype=float)
    idx = rng.choice(n, size=k, replace=False, p=p / p.sum())
    labels = np.argmax(rows @ rows[idx].T, axis=1)
    return _compact(rows, labels)


def vp_step(rows, labels, centroids):
    """One synchronous round: reassign all nodes, then batch-update centroids.

    Clusters receiving no nodes are removed and labels compacted, so the
    cluster count never increases.
    """
    labels_new = np.argmax(rows @ centroids.T, axis=1)
    return _compact(rows, labels_new)


def vp_run(rows, graph, k, rng, max_rounds=200):
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


def best_of_restarts(rows, graph, k, restarts, rng, max_rounds=200, jobs=None):
    """Run vp_run on independently seeded restarts, keeping the best objective.

    Each restart draws its generator from a spawned child of rng, so the
    seed tree is reproducible and restarts may run in parallel. The winner
    maximizes z_tilde, with ties broken toward the lowest restart index.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    children = rng.spawn(restarts)

    def one(child):
        return vp_run(rows, graph, k, child, max_rounds=max_rounds)

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, children))
    else:
        results = [one(c) for c in children]
    best = max(range(restarts), key=lambda i: (results[i].z_tilde, -i))
    winner = results[best]
    winner.restart_index = best
    return winner


def write_partition_csv(partition, graph):
    """Text of "node_label,cluster_id" rows in original-label order."""
    lines = ["node_label,cluster_id"]
    for i in range(len(partition.labels)):
        lines.append(f"{graph.node_labels[i]},{int(partition.labels[i])}")
    return "\n".join(lines) + "\n"


def write_run_log(partition):
    """Text of the per-round objective/modularity/cluster-count history as JSON."""
    payload = {"schema_version": 1, "rounds": partition.history}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
