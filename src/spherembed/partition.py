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

A run stops when the modularity stops rising, so every round needs Q. The
run carries each cluster's internal degree 2 m_c as an exact integer count
and, after the first rounds, few nodes move. A round whose moved nodes hold
at most MOVED_VOLUME_FRACTION of the degree volume 2m updates the counts
from those nodes' CSR rows alone (the local bookkeeping of the Louvain
method, Blondel et al. 2008); a busier round recounts all 2m entries. Both
give the same integers, so Q is bitwise that of modularity_of_partition.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graphs import _csv_text
# vp_run no longer calls modularity_of_partition, the full recount, but the
# name stays importable from here, where perfbench/spans.py wraps it
from .metrics import (BLOCK_NODES, internal_degrees, modularity_from_counts,
                      modularity_of_partition)
from .solver import _check_count

# rows scored per block when assigning nodes to centroids; the scores of
# all rows at once are an n x k matrix (80 MB at 100k x 100). The buffer
# holds up to 2 * SCORE_ROWS - 1 rows: 1.6 MB per restart thread at k = 100
SCORE_ROWS = 1024
# moved nodes whose CSR rows one count update walks at a time, so that its
# temporaries stay a quarter of a full recount's block
MOVED_NODES = BLOCK_NODES // 4
# largest share of the degree volume 2m that the moved nodes of a round may
# hold for their rows alone to update the counts; above it, a full recount.
# On a 100k-node graph of mean degree 15 (2-CPU host), an update from random
# moves took 0.2 of a full recount's 20 ms at a 5% share, 0.6-0.8 at 20%,
# and 1.0 at 25%, where the two break even
MOVED_VOLUME_FRACTION = 0.25
# rounds after which vp_run stops even if the modularity is still rising
MAX_ROUNDS = 200


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
    # one product with the k x n cluster indicator, one entry per column:
    # each cluster's sum adds its rows in row order, as np.add.at does
    n = len(labels)
    return sparse.csc_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(k, n)) @ rows


def _nearest_centroids(rows, centroids):
    """Per row, the index of the centroid with the largest inner product.

    Ties go to the lowest index. Scores are formed in one reused buffer, for
    blocks of rows that start at multiples of SCORE_ROWS; the last block runs
    to the end, so only a block that holds all n rows is shorter than
    SCORE_ROWS. BLAS then tiles every row as it tiles the whole n x k
    product, and the scores are bitwise the same.
    """
    n = rows.shape[0]
    labels = np.empty(n, dtype=np.intp)
    scores = np.empty((min(n, 2 * SCORE_ROWS - 1), centroids.shape[0]))
    for start in range(0, max(n - SCORE_ROWS, 0) + 1, SCORE_ROWS):
        stop = n if n - start < 2 * SCORE_ROWS else start + SCORE_ROWS
        out = np.matmul(rows[start:stop], centroids.T, out=scores[:stop - start])
        out.argmax(axis=1, out=labels[start:stop])
    return labels


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
    return _compact(rows, _nearest_centroids(rows, rows[idx]))


def vp_step(rows, labels, centroids):
    """One synchronous round: reassign all nodes, then batch-update centroids.

    Clusters receiving no nodes are removed and labels compacted, so the
    cluster count never increases.
    """
    return _compact(rows, _nearest_centroids(rows, centroids))


def _moved_counts(graph, labels, assign, internal_deg):
    """Internal degrees once the nodes go from labels to assign.

    Cluster ids are those of labels and assign alike, below len(internal_deg).
    Only the CSR rows of the nodes that move are read. An edge with one
    moved end is read once and changes its cluster's count by 2; an edge
    between two moved nodes is read from both ends, by 1 each time.
    """
    indptr, indices, degrees = graph.adjacency.indptr, graph.adjacency.indices, graph.degrees
    k = len(internal_deg)
    stays = assign == labels
    moved = np.flatnonzero(~stays)
    internal_deg = internal_deg.copy()
    for start in range(0, len(moved), MOVED_NODES):
        ids = moved[start:start + MOVED_NODES]
        deg = degrees[ids]
        # positions of the chunk's CSR rows, concatenated
        offsets = np.repeat(indptr[ids] - (np.cumsum(deg) - deg), deg)
        nbrs = indices[offsets + np.arange(offsets.size)]
        # an edge to a node that stays is read from this end only: count it twice
        twice = stays[nbrs]
        for side, sign in ((labels, -1), (assign, 1)):
            own = np.repeat(side[ids], deg)
            hit = own == side[nbrs]
            internal_deg += sign * (np.bincount(own[hit], minlength=k)
                                    + np.bincount(own[hit & twice], minlength=k))
    return internal_deg


def vp_run(rows, graph, k, rng):
    """Iterate vp_step's round until the partition modularity stops strictly increasing.

    Runs at most MAX_ROUNDS rounds. Returns the best-modularity state seen
    across rounds (including the initial assignment). Both the objective and
    modularity series are kept in the run history.

    Each cluster's internal degree is carried from round to round. A round
    in which no node moves repeats the previous state. One whose moved nodes
    hold at most MOVED_VOLUME_FRACTION of the degree volume updates the
    counts from their CSR rows (_moved_counts); any other recounts them.
    """
    rows = np.asarray(rows, dtype=float)
    two_m = float(graph.degrees.sum())
    labels, R = init_centroids(rows, graph.degrees, k, rng)
    internal = internal_degrees(graph, labels, R.shape[0])
    q = modularity_from_counts(graph, labels, internal)
    history = [{"round": 0, "z_tilde": z_tilde_value(R), "modularity": q,
                "clusters": R.shape[0]}]
    best_labels, best_R, best_q = labels, R, q
    q_prev = q
    for rnd in range(1, MAX_ROUNDS + 1):
        assign = _nearest_centroids(rows, R)
        moved = assign != labels
        if moved.any():
            if graph.degrees.sum(where=moved) <= MOVED_VOLUME_FRACTION * two_m:
                internal = _moved_counts(graph, labels, assign, internal)
                # keep the clusters that _compact keeps
                internal = internal[np.bincount(assign, minlength=len(internal)) > 0]
                labels, R = _compact(rows, assign)
            else:
                labels, R = _compact(rows, assign)
                internal = internal_degrees(graph, labels, R.shape[0])
            q = modularity_from_counts(graph, labels, internal)
        history.append({"round": rnd, "z_tilde": z_tilde_value(R), "modularity": q,
                        "clusters": R.shape[0]})
        if q > best_q:
            best_labels, best_R, best_q = labels, R, q
        if q <= q_prev:
            break
        q_prev = q
    return Partition(labels=best_labels, k_init=k, centroids=best_R,
                     z_tilde=z_tilde_value(best_R), modularity=best_q, history=history)


def best_of_restarts(rows, graph, k, restarts, rng, jobs=None):
    """Run vp_run on independently seeded restarts, keeping the best objective.

    Each restart draws its generator from a spawned child of rng, so the
    seed tree is reproducible and restarts may run in parallel. The winner
    maximizes z_tilde, with ties broken toward the lowest restart index.
    The counts k, restarts and jobs (None for one thread) are checked
    before any restart runs.
    """
    _check_count("k", k, 1)
    _check_count("restarts", restarts, 1)
    if jobs is not None:
        _check_count("jobs", jobs, 1)
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise ValueError("partition rows contain non-finite values")
    children = rng.spawn(restarts)

    def one(child):
        return vp_run(rows, graph, k, child)

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
    return _csv_text(["node_label", "cluster_id"], graph.node_labels, partition.labels)


def write_run_log(partition):
    """Text of the per-round objective/modularity/cluster-count history as JSON."""
    payload = {"schema_version": 1, "rounds": partition.history}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
