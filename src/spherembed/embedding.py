"""SVD post-processing of the optimizer output into node embeddings.

For a unit-row solution H the thin SVD H = U S V^T yields two coordinate
systems: spherical rows (U S), which keep unit norm and live on S^{r-1},
and ellipsoidal rows U, which lie on the ellipsoid u S^2 u^T = 1. Only the
Gram matrix rho = H H^T is rotation-invariant, so V is discarded and column
signs are canonicalized for reproducible output.

The effective dimension is the smallest leading-eigenvalue count of rho
capturing a (1 - epsilon) fraction of its trace; truncating there drops at
most epsilon * n of nuclear mass.
"""

from dataclasses import dataclass, replace

import numpy as np

from .graphs import _csv_rows, _csv_text

RANK_RTOL = 1e-10  # relative singular value threshold for the numerical rank


@dataclass(frozen=True)
class EmbeddingResult:
    """Left singular factor U (n x r), singular values s, and diagnostics.

    total_mass is the full squared Frobenius norm of the solution (equal to
    n for unit-row input), recorded before any rank truncation so that
    effective-dimension bookkeeping stays exact after truncation.
    """

    U: np.ndarray
    s: np.ndarray
    epsilon: float
    d_eff: int
    total_mass: float

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def rank(self):
        return self.U.shape[1]

    def spherical(self):
        """Unit-norm spherical coordinates: rows of U * s."""
        return self.U * self.s

    def ellipsoidal(self):
        """Ellipsoidal coordinates: rows of U."""
        return self.U

    def rho_spectrum(self):
        """Eigenvalues of (1/n) H H^T, i.e. s^2 / n, non-increasing."""
        return self.s ** 2 / self.n

    def truncation_loss(self):
        """Nuclear mass dropped when keeping only the first d_eff directions."""
        return float(self.total_mass - np.sum(self.s[:self.d_eff] ** 2))


def _canonical_signs(U):
    # flip each column, in place, so its largest-magnitude entry is positive;
    # argmax takes the first maximum, which breaks ties toward the lowest index
    r = U.shape[1]
    piv = np.argmax(np.abs(U), axis=0)
    U *= np.where(U[piv, np.arange(r)] < 0, -1.0, 1.0)


def effective_dimension(s, epsilon, total_mass=None):
    """Smallest r whose leading r values of s^2 sum above (1 - epsilon) * total_mass.

    s holds singular values, whose squares are the eigenvalues of the Gram
    matrix rho; total_mass defaults to their full sum. For an
    EmbeddingResult pass (emb.s, epsilon, emb.total_mass), its recorded
    pre-truncation mass.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    cum = np.cumsum(np.asarray(s, dtype=float) ** 2)
    if total_mass is None:
        total_mass = cum[-1]
    above = cum > (1.0 - epsilon) * total_mass
    if not above.any():
        return len(cum)
    return int(np.argmax(above)) + 1


def svd_embedding(H, epsilon=0.01):
    """Thin SVD of the solution block with deterministic orientation.

    Keeps the numerical rank r = #{s_l > 1e-10 * s_1} columns. The SVD runs
    on the n x d0 block directly, never on the n x n Gram matrix.
    """
    H = np.asarray(H, dtype=float)
    if not np.isfinite(H).all():
        raise ValueError("embedding input contains non-finite values")
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    total_mass = float(np.sum(s ** 2))
    r = int(np.sum(s > RANK_RTOL * s[0]))
    U, s = U[:, :r], s[:r]
    _canonical_signs(U)
    d_eff = effective_dimension(s, epsilon, total_mass)
    return EmbeddingResult(U=U, s=s, epsilon=epsilon, d_eff=d_eff, total_mass=total_mass)


def truncate_embedding(result):
    """Keep only the first d_eff columns; drops at most epsilon * total_mass of nuclear norm."""
    d = result.d_eff
    return replace(result, U=result.U[:, :d], s=result.s[:d], d_eff=d)


def write_embedding_csv(result, graph, kind="spherical"):
    """Text of "node,coord_1..coord_r" rows in original-label order."""
    if kind not in ("spherical", "ellipsoidal"):
        raise ValueError(f"unknown embedding kind {kind!r}")
    coords = getattr(result, kind)()
    header = ["node"] + [f"coord_{j + 1}" for j in range(coords.shape[1])]
    return _csv_text(header, graph.node_labels, coords)


def read_embedding_csv(source, columns=None):
    """Read an embedding CSV back into (node label strings, coordinate matrix).

    Rows are read by the rules of graphs._csv_rows under a header starting
    "node,": a row with the wrong cell count, or a parsed coordinate that is
    empty, not a number or not finite, raises ValueError naming its line; a
    file without rows raises ValueError too. With columns=k only the first
    k coordinates of each row are parsed and returned.
    """
    labels, coords = _csv_rows(source, lambda header: header.startswith("node,"),
                               "not an embedding CSV: missing 'node,coord_...' header",
                               columns=columns)
    if not len(coords):
        raise ValueError("embedding CSV has no coordinate rows")
    return labels, coords


def write_spectrum_csv(result):
    """Text of "index,eigenvalue_of_rho_over_n" with 1-based index."""
    return _csv_text(["index", "eigenvalue_of_rho_over_n"], range(1, result.rank + 1),
                     result.rho_spectrum())
