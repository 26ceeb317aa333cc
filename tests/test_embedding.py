"""SVD embeddings: factor geometry, effective dimension, truncation, CSV I/O."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from oracles import reference_read_embedding_csv
from spherembed import (EmbeddingResult, Graph, effective_dimension, graphs, svd_embedding,
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


def _awkward_csv(rng, n, d):
    """Writer output for string labels with '#' and values spanning the double range."""
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    values.flat[rng.integers(0, n * d, size=3)] = [-0.0, 5e-324, -1.7976931348623157e308]
    labels = [f"#{i}" if i % 3 == 0 else f"n#{i} x" if i % 3 == 1 else str(i)
              for i in range(n)]
    graph = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n), labels)
    emb = EmbeddingResult(U=values, s=np.ones(d), epsilon=0.01, d_eff=d, total_mass=1.0)
    return write_embedding_csv(emb, graph, kind="ellipsoidal")


def _with_blank_lines(rng, text):
    lines = text.split("\n")
    for at in sorted(rng.integers(1, len(lines), size=4).tolist(), reverse=True):
        lines.insert(at, str(rng.choice(["", "  ", "\t"])))
    return "\n".join(lines)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_reader_matches_reference(rng, tmp_path, d):
    for trial in range(5):
        text = _awkward_csv(rng, int(rng.integers(2, 60)), d)
        for variant in (text, text.replace("\n", "\r\n"), _with_blank_lines(rng, text)):
            path = tmp_path / f"emb{trial}.csv"
            path.write_bytes(variant.encode())
            want_labels, want = reference_read_embedding_csv(
                io.StringIO(variant.removeprefix("\ufeff")))
            for source in (io.StringIO(variant), path, str(path)):
                got_labels, got = read_embedding_csv(source)
                assert got_labels == want_labels
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for columns in (1, 3):  # the first columns, as the full read has them
                got_labels, got = read_embedding_csv(io.StringIO(variant), columns=columns)
                assert got_labels == want_labels
                assert got.tobytes() == np.ascontiguousarray(want[:, :columns]).tobytes()


@pytest.mark.parametrize("kind", ["path", "text stream", "byte stream"])
def test_reader_ignores_byte_order_mark(tmp_path, kind):
    text = "node,coord_1,coord_2\na,0.5,-1.25\nb,2.0,3.0\n"
    marked = "\ufeff" + text
    if kind == "path":
        source = tmp_path / "bom.csv"
        source.write_text(marked, encoding="utf-8")
    elif kind == "text stream":
        source = io.StringIO(marked)
    else:
        source = io.BytesIO(marked.encode("utf-8"))
    labels, rows = read_embedding_csv(source)
    assert labels == ["a", "b"]
    assert np.array_equal(rows, [[0.5, -1.25], [2.0, 3.0]])


@pytest.mark.parametrize("text, message", [
    ("node,coord_1,coord_2\na,1.0,2.0\nb,nan,2.0\n", "line 3: non-finite"),
    ("node,coord_1,coord_2\na,1.0,2.0\n\nb,1.0,-inf\n", "line 4: non-finite"),
    ("node,coord_1,coord_2\r\na,inf,2.0\r\n", "line 2: non-finite"),
    ("node,coord_1,coord_2\na,1.0,2.0\nb,1.0\n", "line 3: expected 3 cells .* got 2"),
    ("node,coord_1,coord_2\na,1.0,2.0\n\n\nb,1.0,2.0,3.0\n", "line 5: expected 3 cells .* got 4"),
    ("node,coord_1\na,1.0,2.0\nb,1.0,2.0\n", "line 2: expected 2 cells .* got 3"),
    ("node,coord_1,coord_2\na\n", "line 2: expected 3 cells .* got 1"),
    ("node,\na,1.0\nb,\n", "line 3: empty coordinate"),
    ("node,coord_1,coord_2\n\n  \n", "no coordinate rows"),
    ("coord_1,coord_2\na,1.0,2.0\n", "missing 'node,coord_...' header"),
])
def test_reader_rejects_malformed_rows(text, message):
    with pytest.raises(ValueError, match=message):
        read_embedding_csv(io.StringIO(text))


# The reader cuts its input into chunks of graphs.CHUNK_BYTES that end with a
# whole line; with chunks of a few bytes it must read what the whole-text
# reader reads, and fail with the same message on the same line.

@pytest.mark.parametrize("chunk_bytes", [1, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_reader_matches_reference_in_tiny_chunks(rng, tmp_path, d, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    test_reader_matches_reference(rng, tmp_path, d)


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x1e", "\x85", "\u2028"])
def test_reader_across_chunk_boundaries(newline, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    lines = ["node,coord_1,coord_2", "a b,0.5,-1.25", "", "#c,2.0,3e-300", "  ", "d\xe9,1,2"]
    text = newline.join(lines) + newline
    for variant in (text, "\ufeff" + text, text.rstrip(newline)):
        for source in (io.StringIO(variant), io.BytesIO(variant.encode())):
            labels, rows = read_embedding_csv(source)
            want_labels, want = reference_read_embedding_csv(
                io.StringIO(variant.removeprefix("\ufeff")))
            assert labels == want_labels == ["a b", "#c", "d\xe9"]
            assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40])
@pytest.mark.parametrize("last, message", [
    ("z,1.0", "line 10: expected 3 cells as in the header, got 2"),
    ("z,1.0,2.0,3.0", "line 10: expected 3 cells as in the header, got 4"),
    ("z,1.0,inf", "line 10: non-finite coordinate"),
    ("z,1.0,x", "line 10: could not convert string 'x' to float64"),
])
def test_reader_errors_in_the_last_chunk_name_their_line(last, message, chunk_bytes,
                                                         monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    text = "node,coord_1,coord_2\n" + "a,0.5,1.5\n\n" * 4 + last + "\n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_embedding_csv(io.StringIO(text))
    empty = "node,\n" + "a,0.5\r\n\r\n" * 4 + "z,\r\n"
    with pytest.raises(ValueError, match="^line 10: empty coordinate$"):
        read_embedding_csv(io.StringIO(empty))
    # one row short by two cells and one long by two: the chunk's comma total is right
    balanced = "node,coord_1,coord_2\n" + "a,0.5,1.5\n" * 4 + "y\nz,1.0,2.0,3.0,4.0\n"
    with pytest.raises(ValueError, match="^line 6: expected 3 cells as in the header, got 1$"):
        read_embedding_csv(io.StringIO(balanced))


@pytest.mark.parametrize("chunk_bytes", [1, 9, 40])
def test_reader_names_the_line_of_a_non_number_in_a_middle_chunk(chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    text = "node,coord_1,coord_2\n" + "a,0.5,1.5\n\n" * 4 + "m,1.0,x\n" + "b,0.5,1.5\n" * 6
    with pytest.raises(ValueError, match="^line 10: could not convert string 'x' to float64$"):
        read_embedding_csv(io.StringIO(text))


def test_reader_peak_memory_is_bounded_by_its_result(tmp_path):
    n, d = 20_000, 10
    U = project_rows(np.random.default_rng(1).standard_normal((n, d)))
    graph = Graph.from_edges(n, np.arange(n - 1), np.arange(1, n), range(n))
    emb = EmbeddingResult(U=U, s=np.ones(d), epsilon=0.01, d_eff=d, total_mass=float(n))
    path = tmp_path / "embedding.csv"
    path.write_text(write_embedding_csv(emb, graph))
    tracemalloc.start()
    try:
        labels, rows = read_embedding_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.tobytes() == U.tobytes() and len(labels) == n
    assert peak <= 3.5 * kept, f"peak {peak / 1e6:.1f} MB to keep {kept / 1e6:.1f} MB"


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
