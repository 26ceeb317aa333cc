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

from .graphs import _chunks, _csv_text, _read_utf8

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
    # flip each column so its largest-magnitude entry is positive; argmax
    # takes the first maximum, which breaks ties toward the lowest index
    r = U.shape[1]
    piv = np.argmax(np.abs(U), axis=0)
    signs = np.where(U[piv, np.arange(r)] < 0, -1.0, 1.0)
    return U * signs


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
    U, s = _canonical_signs(U[:, :r]), s[:r]
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


def read_embedding_csv(source):
    """Read an embedding CSV back into (node label strings, coordinate matrix).

    A leading UTF-8 byte-order mark is dropped and blank lines are skipped.
    The label is everything before a row's first comma. Every row must have
    as many cells as the header and every coordinate must be finite; a row
    that breaks either rule raises ValueError naming its line number.
    """
    data = _read_utf8(source)
    read = _read_chunks(data)
    if read is None:  # some rule is broken: the whole-text reader names the line
        return _read_lines(data.decode("utf-8", "surrogatepass").splitlines())
    return read


def _read_chunks(data):
    """(labels, coordinates) of an embedding CSV's UTF-8 bytes, read a chunk at a time.

    Coordinates are parsed into one block sized from the line count, so the
    only per-row objects are the labels. None if the input breaks a rule.
    """
    labels, coords, filled = [], None, 0
    for start, end in _chunks(data):
        text = str(memoryview(data)[start:end], "utf-8", "surrogatepass")
        lines = text.splitlines()
        commas = text.count(",")
        del text
        if coords is None:  # the first chunk starts with the header
            if not lines[0].startswith("node,"):
                return None
            width = lines[0].count(",")
            commas -= width
            coords = np.empty((_line_bound(data) - 1, width))
            del lines[0]
        body = [line for line in lines if line.strip()]
        del lines
        if not body:
            continue
        # loadtxt rejects a row with too few cells, so with this total no row
        # has too many
        if commas != width * len(body):
            return None
        try:  # numpy's C parser rounds exactly as float() does
            block = np.loadtxt(body, delimiter=",", comments=None, usecols=range(1, width + 1),
                               ndmin=2)
        except ValueError:
            return None
        if len(block) != len(body) or not np.isfinite(block).all():
            return None
        labels += [line[:line.index(",")] for line in body]
        coords[filled:filled + len(block)] = block
        filled += len(block)
    if not filled:
        return None
    coords.resize((filled, width), refcheck=False)  # in place: no view of coords exists
    return labels, coords


_NOT_ASCII_BREAK = bytes(sorted(set(range(256)) - set(b"\n\v\f\r\x1c\x1d\x1e")))
_WIDE_BREAKS = tuple(c.encode() for c in "\x85\u2028\u2029")
_LINE_ENDS = tuple(c.encode() for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")


def _line_bound(data):
    """At least the number of lines str.splitlines() finds in the text of UTF-8 bytes.

    Exactly that number unless the text holds "\r\n", whose two bytes are
    counted as two breaks.
    """
    # translate allocates as much as it reads, so it reads 64 KB at a time
    breaks = sum(len(data[start:start + 65536].translate(None, _NOT_ASCII_BREAK))
                 for start in range(0, len(data), 65536))
    if not data.isascii():
        breaks += sum(map(data.count, _WIDE_BREAKS))
    return breaks + (not data.endswith(_LINE_ENDS))


def _read_lines(lines):
    """(labels, coordinates) of an embedding CSV's lines; raises for a broken rule."""
    if not lines or not lines[0].startswith("node,"):
        raise ValueError("not an embedding CSV: missing 'node,coord_...' header")
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        raise ValueError("embedding CSV has no coordinate rows")
    width = lines[0].count(",") + 1
    cells_per_row = np.array([line.count(",") for line in body]) + 1
    ragged = np.flatnonzero(cells_per_row != width)
    if len(ragged):
        row = int(ragged[0])
        raise ValueError(f"line {_line_number(lines, row)}: expected {width} cells "
                         f"as in the header, got {int(cells_per_row[row])}")
    labels, cells = [], []
    for line in body:
        label, _, rest = line.partition(",")
        labels.append(label)
        cells.append(rest)
    coords = np.loadtxt(cells, delimiter=",", comments=None, ndmin=2)
    if len(coords) != len(cells):  # it skips "", the cells of "label," under "node,"
        raise ValueError(f"line {_line_number(lines, cells.index(''))}: empty coordinate")
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"line {_line_number(lines, row)}: non-finite coordinate")
    return labels, coords


def _line_number(lines, row):
    """1-based line number of the row-th non-blank line after the header."""
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]


def write_spectrum_csv(result):
    """Text of "index,eigenvalue_of_rho_over_n" with 1-based index."""
    return _csv_text(["index", "eigenvalue_of_rho_over_n"], range(1, result.rank + 1),
                     result.rho_spectrum())
