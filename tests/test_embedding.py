"""SVD embeddings: factor geometry, effective dimension, truncation, CSV I/O."""

import io

import numpy as np
import pytest

from spherembed import (EmbeddingResult, effective_dimension, svd_embedding,
                        truncate_embedding)
from spherembed.embedding import (read_embedding_csv, write_embedding_csv,
                                  write_spectrum_csv)
from spherembed.solver import project_rows


def unit_row_matrix(rng, n=20, d=6):
    return project_rows(rng.standard_normal((n, d)))


def test_factor_reconstructs_gram_matrix(rng):
    H = rng.standard_normal((15, 4))
    emb = svd_embedding(H)
    S = emb.spherical()
    assert np.allclose(S @ S.T, H @ H.T, atol=1e-10)


def test_singular_values_sorted_positive(rng):
    emb = svd_embedding(rng.standard_normal((12, 5)))
    assert np.all(np.diff(emb.s) <= 1e-15)
    assert np.all(emb.s > 0)


def test_left_factor_orthonormal(rng):
    emb = svd_embedding(rng.standard_normal((30, 6)))
    U = emb.ellipsoidal()
    assert np.allclose(U.T @ U, np.eye(emb.rank), atol=1e-12)


def test_spherical_rows_unit_for_unit_row_input(rng):
    # rows of a unit-row matrix live in the span of the right factor, so
    # the spherical coordinates keep their norms exactly
    emb = svd_embedding(unit_row_matrix(rng))
    norms = np.linalg.norm(emb.spherical(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_ellipsoidal_rows_on_ellipsoid(rng):
    emb = svd_embedding(unit_row_matrix(rng))
    U = emb.ellipsoidal()
    quad = np.einsum("ij,j,ij->i", U, emb.s ** 2, U)
    assert np.allclose(quad, 1.0, atol=1e-12)


def test_numerical_rank_detects_deficiency(rng):
    basis = rng.standard_normal((18, 2))
    mix = rng.standard_normal((2, 5))
    emb = svd_embedding(basis @ mix)  # rank 2 by construction
    assert emb.rank == 2


def test_canonical_sign_invariance(rng):
    H = rng.standard_normal((10, 4))
    flipped = H * np.array([1, -1, 1, -1])
    a = svd_embedding(H)
    b = svd_embedding(flipped)
    # column sign flips of the input do not change the canonical left factor
    assert np.allclose(a.U, b.U, atol=1e-12)
    for col in a.U.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_effective_dimension_hand_values():
    s = np.array([2.0, 1.0, 1.0])  # masses 4, 1, 1; total 6
    assert effective_dimension(s, 0.01) == 3
    assert effective_dimension(s, 0.20) == 2
    assert effective_dimension(s, 0.34) == 1


def test_effective_dimension_uses_pretruncation_mass():
    s = np.array([2.0, 1.0])
    # the dropped tail still counts toward the mass being covered
    assert effective_dimension(s, 0.01, total_mass=6.0) == 2
    assert effective_dimension(s, 0.40, total_mass=6.0) == 1


def test_truncation_loss_bounded(rng):
    for _ in range(5):
        H = unit_row_matrix(rng, n=25, d=8)
        emb = svd_embedding(H, epsilon=0.01)
        cut = truncate_embedding(emb)
        assert cut.U.shape[1] == emb.d_eff
        assert cut.total_mass == emb.total_mass
        assert cut.truncation_loss() <= 0.01 * emb.total_mass + 1e-12


def test_rho_spectrum_sums_to_one_for_unit_rows(rng):
    emb = svd_embedding(unit_row_matrix(rng))
    assert emb.rho_spectrum().sum() == pytest.approx(1.0, abs=1e-12)


def test_non_finite_input_rejected():
    H = np.ones((3, 2))
    H[1, 1] = np.nan
    with pytest.raises(ValueError):
        svd_embedding(H)


def test_embedding_csv_round_trip(rng, barbell):
    emb = svd_embedding(unit_row_matrix(rng, n=6, d=3))
    text = write_embedding_csv(emb, barbell, kind="spherical")
    assert text.splitlines()[0] == "node,coord_1,coord_2,coord_3"
    labels, rows = read_embedding_csv(io.StringIO(text))
    assert labels == [str(v) for v in barbell.node_labels]
    assert np.array_equal(rows, emb.spherical())  # repr round-trips exactly


def test_ellipsoidal_csv_kind(rng, barbell):
    emb = svd_embedding(unit_row_matrix(rng, n=6, d=3))
    text = write_embedding_csv(emb, barbell, kind="ellipsoidal")
    _, rows = read_embedding_csv(io.StringIO(text))
    assert np.array_equal(rows, emb.ellipsoidal())


def test_spectrum_csv_layout(rng):
    emb = svd_embedding(unit_row_matrix(rng, n=8, d=3))
    lines = write_spectrum_csv(emb).splitlines()
    assert lines[0] == "index,eigenvalue_of_rho_over_n"
    assert len(lines) == emb.rank + 1
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(emb.s[0] ** 2 / emb.n, abs=1e-15)


def test_result_accepts_effective_dimension_object(rng):
    emb = svd_embedding(unit_row_matrix(rng))
    assert effective_dimension(emb, emb.epsilon) == emb.d_eff
    assert isinstance(emb, EmbeddingResult)
