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
v_i = 1 + sum_{k != i} |M_ik|, making K strictly diagonally dominant with
dominance margin 1, hence positive definite; applying K to unit-row blocks
expands every row norm above 1. ShiftedOperator is the one place this
shift is defined.

ShiftedOperator.apply keeps no state between calls. It reads a C-contiguous
block in place and copies any other block, or one that its out overlaps,
once per call.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools


def _check_block(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"block has shape {X.shape}, expected ({n}, d)")
    return X


class DescriptorOperator:
    """Matrix-free descriptor M = W - u u^T; build it with make_descriptor.

    Only s and u are kept. W = S A S is formed from the adjacency each time
    apply needs it.
    """

    def __init__(self, graph, s, u):
        self.graph = graph
        self._s = s
        self._u = u

    @property
    def n(self):
        return self.graph.n

    def _edge_products(self, v):
        """v_i v_k for every stored entry (i, k) of the adjacency, in CSR order."""
        adj = self.graph.adjacency
        out = np.repeat(v, np.diff(adj.indptr))
        # out[e] *= v[indices[e]] in place, with no 2m-long gather of v
        _sparsetools.csr_scale_columns(self.n, self.n, adj.indptr, adj.indices, out, v)
        return out

    def _weights(self):
        """W = S A S as a CSR matrix: the values s_i s_k on the adjacency's index arrays."""
        adj = self.graph.adjacency
        return sparse.csr_matrix((self._edge_products(self._s), adj.indices, adj.indptr),
                                 shape=adj.shape, copy=False)

    def apply(self, X):
        X = _check_block(X, self.n)
        Y = self._weights() @ X
        Y -= np.outer(self._u, self._u @ X)
        return Y

    def diagonal(self):
        return -self._u ** 2

    def offdiagonal_abs_sums(self):
        """sum_{k != i} |M_ik| per row, in O(deg(i)) per row.

        Neighbour entries are |s_i s_k - u_i u_k|; the non-neighbour entries
        are all -u_i u_k, so their absolute values sum to
        u_i (sum_k u_k - u_i - sum_{k in N(i)} u_k).
        """
        adj, u = self.graph.adjacency, self._u
        entries = self._edge_products(u)
        np.subtract(self._edge_products(self._s), entries, out=entries)
        np.abs(entries, out=entries)
        # row sums through the adjacency's pattern need no 2m-long row index array
        neighbour_abs = sparse.csr_matrix((entries, adj.indices, adj.indptr), shape=adj.shape,
                                          copy=False)
        nonadj_part = u * (u.sum() - u - adj @ u)
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
    return DescriptorOperator(graph, s, u)


class ShiftedOperator:
    """The iteration matrix K: off-diagonal of M with diagonal replaced by v.

    K_ij = M_ij for i != j and K_ii = v_i = 1 + sum_{k != i} |M_ik|,
    so K_ii - sum_{k != i} |K_ik| = 1 > 0 for every row: a dominance
    margin of 1.

    K = W + diag(v - diag M) - u u^T is kept as one n x n CSR matrix
    W + diag(v - diag M), with the diagonal folded into W's rows, beside u
    held as an n x 1 CSR matrix for the rank-one term. The matrix's 2m + n
    entries are the only weighted copy of the adjacency's pattern the
    operator keeps, and it keeps no n x d block.
    """

    def __init__(self, base):
        self.base = base
        self.shift = 1.0 + base.offdiagonal_abs_sums()
        n, index = base.n, base.graph.adjacency.indices.dtype
        rows = np.arange(n + 1, dtype=index)
        # row i of the addend holds (i, i, v_i - M_ii)
        self._K = base._weights() + sparse.csr_matrix((self.diagonal_delta(), rows[:-1], rows),
                                                      shape=(n, n))
        # u as an n x 1 CSR matrix: indptr and indices of one entry per row, in column 0
        self._u, self._u_indptr, self._u_indices = base._u, rows, np.zeros(n, dtype=index)

    @property
    def n(self):
        return self.base.n

    def diagonal_delta(self):
        """v - diag M: what K adds to M's diagonal, so M X = K X - (v - diag M) X."""
        return self.shift - self.base.diagonal()

    def apply(self, X, out=None):
        """K X for an n x d block, in two passes of one sparse kernel: O((n + m) d).

        The first pass applies W + diag(v - diag M); the second adds
        u_i (-u^T X) to each row i through u's n x 1 CSR matrix. Each pass
        is scipy's csr_matvecs, the kernel of K @ block, and the second
        adds to a row after all of K's entries have, so the result has the
        bits of [W + diag(v - diag M), -u] @ [X; u^T X]. X is read in place
        when it is C-contiguous and does not overlap out, and copied once
        otherwise. apply keeps nothing between calls, so one operator may be
        applied from several threads. out, when given, is a C-contiguous
        n x d float array that receives K X and is returned; it may be X
        itself. Without out the result is a new array.
        """
        X = _check_block(X, self.n)
        if out is None:
            out = np.empty(X.shape)
        elif out.shape != X.shape or out.dtype != float or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float array of shape {X.shape}")
        if not X.flags.c_contiguous or np.may_share_memory(X, out):
            X = np.array(X, order="C")
        n, d = X.shape
        c = np.negative(np.dot(self._u, X))
        out.fill(0.0)
        K = self._K
        _sparsetools.csr_matvecs(n, n, d, K.indptr, K.indices, K.data, X.ravel(), out.ravel())
        _sparsetools.csr_matvecs(n, 1, d, self._u_indptr, self._u_indices, self._u, c,
                                 out.ravel())
        return out

    def sample_columns(self, count, rng):
        """Materialize `count` uniformly sampled columns of K, without replacement."""
        n = self.n
        if not 1 <= count <= n:
            raise ValueError(f"need 1 <= count <= {n}, got {count}")
        idx = rng.choice(n, size=count, replace=False)
        E = np.zeros((n, count))
        E[idx, np.arange(count)] = 1.0
        C = self.apply(E)
        # K's diagonal went through v_i + u_i^2 - u_i^2; set it to v_i exactly
        C[idx, np.arange(count)] = self.shift[idx]
        return C
