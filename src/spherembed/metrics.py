"""Partition quality measures and run summaries.

Modularity is computed matrix-free in O(n + m) from cluster-internal edge
counts and degree sums; it equals the quadratic form of the modularity
matrix over the binary membership block. `internal_degrees` does the count
and `modularity_from_counts` holds the one expression that turns counts
into Q, so the partitioner, which carries its counts from round to round
and updates them from the moved nodes alone, gets the same bits as a full
recount. NMI uses natural logarithms and normalizes mutual information by
the arithmetic mean of the entropies.
"""

import json
from dataclasses import dataclass

import numpy as np

# nodes whose CSR rows modularity compares per block; all rows at once take
# several 2m-long arrays (12 MB each at 100k nodes of mean degree 15)
BLOCK_NODES = 4096


def internal_degrees(graph, labels, k):
    """Per cluster c < k, its internal degree 2 m_c, as exact int64 counts.

    m_c counts the edges with both ends in cluster c; each is seen once from
    either end's CSR row.
    """
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    internal_deg = np.zeros(k, dtype=np.int64)
    for start in range(0, graph.n, BLOCK_NODES):
        stop = min(start + BLOCK_NODES, graph.n)
        # each stored entry's row cluster: a node's label repeated over its CSR row
        row_labels = np.repeat(labels[start:stop], graph.degrees[start:stop])
        internal = row_labels == labels[indices[indptr[start]:indptr[stop]]]
        internal_deg += np.bincount(row_labels[internal], minlength=k)
    return internal_deg


def modularity_from_counts(graph, labels, internal_deg):
    """sum_c [ m_c / m - (D_c / 2m)^2 ] from the internal degrees 2 m_c.

    D_c sums the degrees of cluster c; labels run over 0..len(internal_deg) - 1.
    """
    two_m = float(graph.degrees.sum())
    deg_sums = np.bincount(labels, weights=graph.degrees, minlength=len(internal_deg))
    return float(np.sum(internal_deg / two_m - (deg_sums / two_m) ** 2))


def modularity_of_partition(graph, labels):
    """sum_c [ m_c / m - (D_c / 2m)^2 ] over clusters c, recounted in full.

    m_c counts edges internal to cluster c and D_c sums its degrees.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise ValueError(f"labels must have length {graph.n}")
    if labels.min() < 0:
        raise ValueError("cluster ids must be non-negative")
    k = int(labels.max()) + 1
    return modularity_from_counts(graph, labels, internal_degrees(graph, labels, k))


def nmi(labels_a, labels_b):
    """Normalized mutual information 2 I(A;B) / (H(A) + H(B)).

    Returns 1.0 when both partitions are single-cluster (zero entropy on
    both sides) and 0.0 when exactly one side has zero entropy.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    n = len(a)
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    ka, kb = ia.max() + 1, ib.max() + 1
    joint = np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb) / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = float(-np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = float(-np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    nz = joint > 0
    outer = np.outer(pa, pb)
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    return 2.0 * mi / (ha + hb)


@dataclass
class RunSummary:
    """Structured record of a pipeline run, serializable as versioned JSON."""

    graph: dict
    config: dict = None
    solver: dict = None
    embedding: dict = None
    partition: dict = None

    def to_dict(self):
        out = {"schema_version": 1, "graph": self.graph}
        for key in ("config", "solver", "embedding", "partition"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def summarize(graph, config=None, solve_result=None, embedding=None,
              partition=None, nmi_value=None):
    """Assemble a RunSummary from pipeline stage outputs.

    Only sections for stages that actually ran are included.
    """
    graph_info = {"n": graph.n, "m": graph.m, "hash": graph.content_hash()}
    solver_info = None
    if solve_result is not None:
        solver_info = {
            "method": solve_result.method,
            "iterations": int(solve_result.iterations),
            "converged": bool(solve_result.converged),
            "objective": float(solve_result.objective),
            "delta_criterion": float(solve_result.delta),
            "relgrad": float(solve_result.relgrad),
        }
        if not np.isfinite(solve_result.objective):
            raise ValueError("non-finite solver objective")
    embedding_info = None
    if embedding is not None:
        spectrum = embedding.rho_spectrum()
        embedding_info = {
            "d_eff": int(embedding.d_eff),
            "rank": int(embedding.rank),
            "epsilon": float(embedding.epsilon),
            "rho_spectrum_head": [float(v) for v in spectrum[:10]],
        }
    partition_info = None
    if partition is not None:
        q = float(partition.modularity)
        if not -1.0 <= q <= 1.0:
            raise ValueError(f"modularity {q} outside [-1, 1]")
        partition_info = {
            "n_c": int(partition.n_clusters),
            "modularity": q,
            "z_tilde": float(partition.z_tilde),
            "k_init": int(partition.k_init),
        }
        if partition.restart_index is not None:
            partition_info["restart_index"] = int(partition.restart_index)
        if nmi_value is not None:
            if not -1e-12 <= nmi_value <= 1.0 + 1e-12:
                raise ValueError(f"nmi {nmi_value} outside [0, 1]")
            partition_info["nmi"] = float(nmi_value)
    return RunSummary(graph=graph_info, config=config, solver=solver_info,
                      embedding=embedding_info, partition=partition_info)


def write_summary_json(summary):
    """Text of the run summary as versioned JSON."""
    return summary.to_json()
