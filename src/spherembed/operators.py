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

    Only s and u are kept. W = S A S is formed from the adjacency when it is
    needed: by apply, and once by ShiftedOperator, whose matrix replaces it.
    """

    def __init__(self, graph, kind, s, u):
        self.graph = graph
        self.kind = kind
        self._s = s
        self._u = u

    @property
    def n(self):
        return self.graph.n

    def _edge_products(self, v):
        """v_i v_k for every stored entry (i, k) of the adjacency, in CSR order."""
        adj = self.graph.adjacency
        out = np.repeat(v, np.diff(adj.indptr))
        out *= v[adj.indices]
        return out

    def _weights(self, plus=None, products=None):
        """W = S A S as a CSR matrix, or W + plus for a CSR plus of n rows.

        W's values are s_i s_k on the adjacency's index arrays, which it
        shares; W is widened to plus's column count, so plus may add columns.
        products, if given, holds those values already.
        """
        adj = self.graph.adjacency
        shape = adj.shape if plus is None else plus.shape
        if products is None:
            products = self._edge_products(self._s)
        W = sparse.csr_matrix((products, adj.indices, adj.indptr), shape=shape, copy=False)
        return W if plus is None else W + plus

    def apply(self, X):
        X = _check_block(X, self.n)
        Y = self._weights() @ X
        Y -= np.outer(self._u, self._u @ X)
        return Y

    def diagonal(self):
        return -self._u ** 2

    def offdiagonal_abs_sums(self, products=None):
        """sum_{k != i} |M_ik| per row, in O(deg(i)) per row.

        Neighbour entries are |s_i s_k - u_i u_k|; the non-neighbour entries
        are all -u_i u_k, so their absolute values sum to
        u_i (sum_k u_k - u_i - sum_{k in N(i)} u_k). products, if given,
        holds the s_i s_k of _edge_products(s) already; it is not changed.
        """
        adj, u = self.graph.adjacency, self._u
        if products is None:
            products = self._edge_products(self._s)
        entries = self._edge_products(u)
        np.subtract(products, entries, out=entries)
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
    return DescriptorOperator(graph, kind, s, u)


def diagonal_shift_vector(op):
    """Shift vector v_i = 1 + sum_{k != i} |M_ik|: ShiftedOperator(op).shift."""
    return ShiftedOperator(op).shift


class ShiftedOperator:
    """The iteration matrix K: off-diagonal of M with diagonal replaced by v.

    K_ij = M_ij for i != j and K_ii = v_i = 1 + sum_{k != i} |M_ik|,
    so K_ii - sum_{k != i} |K_ik| = 1 > 0 for every row: a dominance
    margin of 1.

    K = W + diag(v - diag M) - u u^T is kept as one n x (n + 1) CSR matrix
    [W + diag(v - diag M), -u]: the diagonal folded into W's rows and the
    rank-one term as a last column, which multiplies an extra block row
    u^T X. Its 2m + 2n entries are the only weighted copy of the adjacency's
    pattern the operator keeps.
    """

    def __init__(self, base):
        self.base = base
        # s_i s_k on every edge, formed once: a term of the shift and W's values
        products = base._edge_products(base._s)
        self.shift = 1.0 + base.offdiagonal_abs_sums(products)
        n, index = base.n, base.graph.adjacency.indices.dtype
        # row i of the addend holds (i, i, v_i - M_ii) and (i, n, -u_i)
        plus = sparse.csr_matrix(
            (np.column_stack([self.diagonal_delta(), -base._u]).ravel(),
             np.column_stack([np.arange(n, dtype=index), np.full(n, n, dtype=index)]).ravel(),
             np.arange(0, 2 * n + 1, 2, dtype=index)), shape=(n, n + 1))
        self._K = base._weights(plus, products)
        self._u = base._u
        self._extended = None  # apply's (n + 1) x d block, kept while d stays the same

    @property
    def n(self):
        return self.base.n

    def diagonal_delta(self):
        """v - diag M: what K adds to M's diagonal, so M X = K X - (v - diag M) X."""
        return self.shift - self.base.diagonal()

    def apply(self, X, out=None):
        """K X for an n x d block, in one sparse pass.

        The block gets the extra row u^T X, so the product applies W, the
        shifted diagonal and the rank-one term together: O((n + m) d) for
        the product plus one O(n d) copy of X into the (n + 1)-row extended
        block, which the operator keeps between calls (so one operator must
        not be applied from two threads at once). out, when given, is a
        C-contiguous n x d float array that receives K X and is returned; it
        may be X itself. Without out the result is a new array. Either way
        the product is scipy's csr_matvecs, the kernel of K @ block, so both
        give the same bits.
        """
        X = _check_block(X, self.n)
        if out is None:
            out = np.empty(X.shape)
        elif out.shape != X.shape or out.dtype != float or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float array of shape {X.shape}")
        return self._product(X, out)

    def _product(self, X, out):
        """apply for an n x d float block X and a checked out."""
        n, d = X.shape
        extended = self._extended
        if extended is None or extended.shape[1] != d:
            extended = self._extended = np.empty((n + 1, d))
        extended[:-1] = X
        np.dot(self._u, X, out=extended[-1])
        out.fill(0.0)
        K = self._K
        _sparsetools.csr_matvecs(n, n + 1, d, K.indptr, K.indices, K.data,
                                 extended.ravel(), out.ravel())
        return out

    def sample_columns(self, count, rng):
        """Materialize `count` uniformly sampled columns of K, without replacement."""
        n = self.n
        if not 1 <= count <= n:
            raise ValueError(f"need 1 <= count <= {n}, got {count}")
        idx = rng.choice(n, size=count, replace=False)
        E = np.zeros((n, count))
        E[idx, np.arange(count)] = 1.0
        C = self._product(E, out=E)  # E is copied into the extended block first
        # K's diagonal went through v_i + u_i^2 - u_i^2; set it to v_i exactly
        C[idx, np.arange(count)] = self.shift[idx]
        return C
