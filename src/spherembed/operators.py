"""Matrix-free descriptor operators and the diagonally dominant shift.

Both descriptors are one scaled modularity matrix

  M = S (A - d d^T / 2m) S = W - u u^T,   W = S A S,   u = S d / sqrt(2m),

with S = diag(s) and only the scaling vector s chosen by kind:

  modularity       s_i = 1 / sqrt(2m)   u = d / 2m
  norm. Laplacian  s_i = d_i^{-1/2}     u = sqrt(pi), pi_i = d_i / 2m

W keeps the adjacency's sparsity pattern and u u^T is rank one, so applying
M to an n x d block costs O((n + m) d) and the dense n x n matrix is never
formed. Non-neighbour entries of M are -u_i u_k <= 0, which gives the
absolute off-diagonal row sums in O(deg(i)) per row.

The shifted operator replaces the diagonal of M with
v_i = 1 + eps + sum_{k != i} |M_ik|, making K strictly diagonally dominant
with dominance margin >= 1 + eps, hence positive definite; applying K to
unit-row blocks expands every row norm above 1.
"""

import numpy as np
from scipy import sparse


class DescriptorOperator:
    """Matrix-free descriptor M = W - u u^T; build it with make_descriptor."""

    def __init__(self, graph, kind, s, u):
        self.graph = graph
        self.kind = kind
        adj = graph.adjacency
        # W shares the adjacency's index arrays; only its values s_i s_k are new
        data = np.repeat(s, np.diff(adj.indptr))
        data *= s[adj.indices]
        self._W = sparse.csr_matrix((data, adj.indices, adj.indptr), shape=adj.shape,
                                    copy=False)
        self._u = u

    @property
    def n(self):
        return self.graph.n

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"block has shape {X.shape}, expected ({self.n}, d)")
        Y = self._W @ X
        Y -= np.outer(self._u, self._u @ X)
        return Y

    def diagonal(self):
        return -self._u ** 2

    def offdiagonal_abs_sums(self):
        """sum_{k != i} |M_ik| per row, in O(deg(i)) per row.

        Neighbour entries are |W_ik - u_i u_k|; the non-neighbour entries
        are all -u_i u_k, so their absolute values sum to
        u_i (sum_k u_k - u_i - sum_{k in N(i)} u_k).
        """
        W, u = self._W, self._u
        entries = np.repeat(u, np.diff(W.indptr))
        entries *= u[W.indices]
        np.subtract(W.data, entries, out=entries)
        np.abs(entries, out=entries)
        # row sums through W's own pattern need no 2m-long row index array
        neighbour_abs = sparse.csr_matrix((entries, W.indices, W.indptr), shape=W.shape,
                                          copy=False)
        nonadj_part = u * (u.sum() - u - self.graph.adjacency @ u)
        return neighbour_abs @ np.ones(self.n) + nonadj_part


def make_descriptor(graph, kind):
    """Build the descriptor operator by name ("modularity" or "normlap")."""
    deg = graph.degrees.astype(float)
    two_m = float(deg.sum())
    if kind == "modularity":
        if two_m <= 0:
            raise ValueError("graph has no edges")
        s, u = np.full(graph.n, 1.0 / np.sqrt(two_m)), deg / two_m
    elif kind == "normlap":
        if (deg <= 0).any():
            raise ValueError("descriptor requires all degrees positive")
        s, u = 1.0 / np.sqrt(deg), np.sqrt(deg / two_m)
    else:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    return DescriptorOperator(graph, kind, s, u)


def diagonal_shift_vector(op, epsilon=0.0):
    """Shift vector v_i = 1 + epsilon + sum_{k != i} |M_ik|."""
    return 1.0 + epsilon + op.offdiagonal_abs_sums()


class ShiftedOperator:
    """The iteration matrix K: off-diagonal of M with diagonal replaced by v.

    K_ij = M_ij for i != j and K_ii = v_i = 1 + eps + sum_{k != i} |M_ik|,
    so K_ii - sum_{k != i} |K_ik| = 1 + eps > 0 for every row.
    """

    def __init__(self, base, epsilon=0.0):
        if epsilon < 0:
            raise ValueError("shift epsilon must be non-negative")
        self.base = base
        self.epsilon = float(epsilon)
        self.shift = diagonal_shift_vector(base, epsilon)
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
