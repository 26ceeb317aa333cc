"""Undirected graph container and edge-list / ground-truth loaders.

Graphs are simple (no self-loops, no duplicate edges), unweighted and
undirected, held as a symmetric CSR adjacency with sorted neighbor lists.
Loaders reduce the input to its largest connected component and keep a
stable map back to the original node labels.
"""

import collections
import hashlib
import itertools
import logging
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

log = logging.getLogger(__name__)

# The readers parse their input CHUNK_BYTES at a time, each chunk ending
# with a whole line. A chunk's lines as Python strings and its parsed rows
# hold about 9 bytes per byte of it (17 when its tokens are read as text),
# so at 256 KB they stay near 2.3 MB (4.4 MB) at any input size, below what
# a 20 000-node graph keeps. 1 MB chunks doubled a 20 000-node load's peak
# (7.0 to 14.0 MB), raised a relabelled 100 000-node one's from 45.1 to
# 57.1 MB, and made no load faster.
CHUNK_BYTES = 1 << 18
DIGEST_ROWS = 8192  # CSR rows hashed at a time


class EdgeListError(ValueError):
    """Raised for malformed edge-list or ground-truth input."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    adjacency: n x n symmetric CSR matrix with 0/1 entries, zero diagonal,
        sorted column indices.
    degrees: integer degree vector, d_i = |N(i)|.
    node_labels: original node label for each index 0..n-1.
    """

    adjacency: sparse.csr_matrix
    degrees: np.ndarray
    node_labels: tuple

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def m(self):
        """Total edge count; degrees always sum to 2m exactly."""
        return int(self.degrees.sum()) // 2

    @classmethod
    def from_edges(cls, n, rows, cols, labels):
        """Graph on n nodes from index arrays holding each edge once.

        rows[e], cols[e] is edge e in either orientation; the caller has
        already dropped self-loops and duplicate edges.
        """
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        keys.sort()
        return cls._from_keys(n, keys, labels)

    @classmethod
    def _from_keys(cls, n, keys, labels):
        """Graph on n nodes from the sorted, distinct keys i * n + j, i < j, of its edges.

        The symmetric CSR is built directly. Its entries in row order are
        the keys of both orientations in sorted order: the keys as given,
        and the flipped keys j * n + i, which one sort puts in order. The
        stable sort of the two sorted runs side by side merges them, and the
        remainders mod n are the column indices. Only floor division by n
        is used, which numpy vectorizes for a scalar divisor; % and divmod
        by n take several times as long.
        """
        m = len(keys)
        index = np.int32 if max(n, 2 * m) < 2**31 else np.int64
        rows = keys // n
        cols = rows * n
        np.subtract(keys, cols, out=cols)
        degrees = np.bincount(rows, minlength=n)
        degrees += np.bincount(cols, minlength=n)
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(degrees, out=indptr[1:])
        both = np.empty(2 * m, dtype=np.int64)
        np.multiply(cols, n, out=both[m:])
        both[m:] += rows
        del rows, cols
        both[m:].sort()
        both[:m] = keys
        both.sort(kind="stable")  # merges the two sorted runs
        both -= both // n * n
        indices = both.astype(index)
        del both
        adj = sparse.csr_matrix((np.ones(2 * m), indices, indptr), shape=(n, n))
        adj.has_canonical_format = True
        return cls(adjacency=adj, degrees=degrees, node_labels=tuple(labels))

    @cached_property
    def label_index(self):
        return {lab: i for i, lab in enumerate(self.node_labels)}

    def _upper_edges(self, start=0, stop=None):
        """(rows, cols) index arrays of each edge once, rows < cols, in CSR order.

        Only rows start..stop - 1 are read; all rows by default.
        """
        stop = self.n if stop is None else min(stop, self.n)
        indptr = self.adjacency.indptr[start:stop + 1]
        rows = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(indptr))
        cols = self.adjacency.indices[indptr[0]:indptr[-1]]
        upper = rows < cols
        return rows[upper], cols[upper].astype(np.int64)

    def edges(self):
        """Iterate each edge once as an (i, j) index pair with i < j."""
        rows, cols = self._upper_edges()
        return zip(rows.tolist(), cols.tolist())

    @cached_property
    def _digest(self):
        # the int64 (i, j) pairs of every edge in CSR order, hashed DIGEST_ROWS
        # rows at a time so that no full-size copy of the edge list is formed
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        for start in range(0, self.n, DIGEST_ROWS):
            h.update(np.column_stack(self._upper_edges(start, start + DIGEST_ROWS)).tobytes())
        return h.hexdigest()[:16]

    def content_hash(self):
        """Stable hex digest of the node count and edge set, computed once."""
        return self._digest


# rows formatted per block: each cell is a Python object while its block is
# formatted, and one tolist() of 100k x 10 floats would hold about 32 MB
CSV_ROWS = 4096


def _csv_text(header, labels, values):
    """The header line, then a "label,v_1,...,v_r" line per label and row of values.

    Each cell is repr of its Python value, so floats read back exactly.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} rows")
    parts = [",".join(header), "\n"]
    for start in range(0, len(values), CSV_ROWS):
        block = slice(start, start + CSV_ROWS)
        cells = map(repr, values[block].ravel().tolist())
        rows = map(",".join, zip(*[cells] * values.shape[1]))
        parts.append("".join(map("{},{}\n".format, labels[block], rows)))
    return "".join(parts)


def _csv_rows(source, is_header, header_error, dtype=float, columns=None):
    """(labels, values) of a "label,v_1,...,v_r" CSV such as _csv_text writes.

    is_header must accept the first line, else ValueError(header_error); its
    cell count fixes every row's. A leading byte-order mark is dropped and
    blank lines are skipped. A label is the text before its row's first
    comma. Cells v_1..v_c, with c = min(columns, r) (all r by default), must
    be finite numbers of dtype and are returned; later cells are not parsed.
    A row that breaks a rule raises ValueError naming its line. Each chunk
    is parsed into one block sized from the line count, so labels are the
    only per-row objects.
    """
    data = _read_utf8(source)
    labels, values, filled = [], None, 0
    for first, lines in _text_lines(data):
        if values is None:  # the first chunk starts with the header
            if not is_header(lines[0]):
                raise ValueError(header_error)
            width = lines[0].count(",")
            parsed = width if columns is None else min(columns, width)
            values = np.empty((_line_bound(data) - 1, parsed), dtype=dtype)
            del lines[0]
            first += 1
        body = list(filter(str.strip, lines))
        if not body:
            continue
        # loadtxt ignores cells past the last one it parses, so each row's
        # cell count is checked here
        counted = set(map(str.count, body, itertools.repeat(","))) == {width}
        block = _parse_cells(body, dtype, usecols=range(1, parsed + 1)) if counted else None
        if block is None or not np.isfinite(block).all():
            _raise_bad_row(lines, first, width, parsed, dtype)
        labels += [line.partition(",")[0] for line in body]
        values[filled:filled + len(block)] = block
        filled += len(block)
    if values is None:
        raise ValueError(header_error)
    values.resize((filled, parsed), refcheck=False)  # in place: no view of values exists
    return labels, values


def _parse_cells(lines, dtype, delimiter=",", usecols=None, ndmin=2):
    """np.loadtxt of lines into dtype, or None for a cell it cannot read as one."""
    with warnings.catch_warnings():
        # numpy before 2 reads an integer cell "1.5" as 1, with only a
        # DeprecationWarning, and lines that are all blank give only a UserWarning
        warnings.simplefilter("error")
        try:  # numpy's C parser rounds exactly as float() does
            return np.loadtxt(lines, dtype=dtype, comments=None, delimiter=delimiter,
                              usecols=usecols, ndmin=ndmin)
        except (ValueError, Warning):
            return None


def _raise_bad_row(lines, first, width, parsed, dtype):
    """Raise the error of the first row among lines, numbered from first, that breaks a rule.

    Every row must hold width cells after its label, and the first parsed
    of them must be finite numbers of dtype.
    """
    for lineno, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        cells = line.split(",")[1:]
        if len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width + 1} cells as in the header, "
                             f"got {len(cells) + 1}")
        for cell in cells[:parsed]:
            if not cell.strip():
                raise ValueError(f"line {lineno}: empty coordinate")
            value = _parse_cells([cell], dtype)
            if value is None:
                raise ValueError(f"line {lineno}: could not convert string {cell!r} "
                                 f"to {np.dtype(dtype)}")
            if not np.isfinite(value).all():
                raise ValueError(f"line {lineno}: non-finite coordinate")


def _normalize_labels(raw_labels):
    # All-integer label sets sort numerically, otherwise lexically as strings.
    try:
        return [int(t) for t in raw_labels]
    except ValueError:
        return [str(t) for t in raw_labels]


# the line breaks of str.splitlines(), in ASCII and beyond it
_ASCII_BREAKS = "\n\v\f\r\x1c\x1d\x1e"
_WIDE_BREAKS = "\x85\u2028\u2029"


def _read_utf8(source):
    """Whole input as UTF-8 bytes, without a leading byte-order mark."""
    data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    if isinstance(data, bytes):
        if data.isascii():
            return data
        data = data.decode("utf-8-sig")
    else:
        data = data.removeprefix("\ufeff")
    return data.encode("utf-8", "surrogatepass")


# the line breaks of str.splitlines() as UTF-8 bytes, which a chunk may end
# after; each starts with an ASCII or a lead byte, so none matches inside
# another character, and "\r\n" is one break, so a chunk never ends between
# its two bytes
_BREAK = re.compile(b"|".join([rb"\r\n", b"[" + re.escape(_ASCII_BREAKS.encode()) + b"]",
                               *(re.escape(c.encode()) for c in _WIDE_BREAKS)]))


def _chunks(data):
    """(start, end) offsets of consecutive pieces of UTF-8 bytes, each ending a line.

    A piece runs to the first line break at least CHUNK_BYTES into it, or
    to the end of the input.
    """
    start = 0
    while start < len(data):
        found = _BREAK.search(data, start + CHUNK_BYTES - 1)
        end = found.end() if found else len(data)
        yield start, end
        start = end


def _text_lines(data):
    """(number of its first line, its str.splitlines() lines) for each chunk of UTF-8 bytes."""
    next_line = 1
    for start, end in _chunks(data):
        lines = str(memoryview(data)[start:end], "utf-8", "surrogatepass").splitlines()
        first, next_line = next_line, next_line + len(lines)  # before the caller edits lines
        yield first, lines


_NOT_ASCII_BREAK = bytes(sorted(set(range(256)) - set(_ASCII_BREAKS.encode())))


def _line_bound(data):
    """At least the number of lines str.splitlines() finds in the text of UTF-8 bytes.

    Exactly that number unless the text holds "\r\n", whose two bytes are
    counted as two breaks.
    """
    # translate allocates as much as it reads, so it reads 64 KB at a time
    breaks = sum(len(data[start:start + 65536].translate(None, _NOT_ASCII_BREAK))
                 for start in range(0, len(data), 65536))
    if not data.isascii():
        breaks += sum(data.count(c.encode()) for c in _WIDE_BREAKS)
    return breaks + (not data.endswith(tuple(c.encode() for c in _ASCII_BREAKS + _WIDE_BREAKS)))


def _run_starts(ordered):
    """Mask of the first entry of each run of equal values in a sorted array."""
    mask = np.ones(len(ordered), dtype=bool)
    mask[1:] = ordered[1:] != ordered[:-1]
    return mask


def _holds_data(line):
    """Whether an edge-list or truth line is data: not blank, nor with '#' as first non-blank."""
    text = line.lstrip()
    return bool(text) and text[0] != "#"


def _data_lines(lines):
    """The lines _holds_data keeps, commas made spaces; tested one by one only if '#' occurs."""
    body = list(filter(str.strip, lines))
    text = "\n".join(body)
    if "#" in text:
        body = list(filter(_holds_data, body))
        text = "\n".join(body)
    return text.replace(",", " ").split("\n") if "," in text else body


def _pairs(lines, dtype):
    """The two tokens of each data line as a row of dtype: a scalar type, or a record of two.

    None when loadtxt cannot read a token as dtype or a line as one row of
    two; it skips a blank line, which a data line of commas alone becomes.
    """
    body = _data_lines(lines)
    shape = (len(body),) if np.dtype(dtype).names else (len(body), 2)
    if not body:
        return np.empty(shape, dtype=dtype)
    rows = _parse_cells(body, dtype, delimiter=None, ndmin=len(shape))
    return rows if rows is not None and rows.shape == shape else None


def _first_bad_line(lines, first):
    """(line number, token count) of the first data line without two tokens, or None."""
    for lineno, line in enumerate(lines, start=first):
        got = len(line.replace(",", " ").split())
        if got != 2 and _holds_data(line):
            return lineno, got
    return None


def _pair_rows(data, dtype):
    """(rows, bad) for each chunk of UTF-8 bytes: _pairs and _first_bad_line of its lines.

    A chunk with a bad line gives the rows of the lines before it and is
    the last; so is one whose rows are None, for a token not of dtype.
    """
    for first, lines in _text_lines(data):
        rows, bad = _pairs(lines, dtype), None
        if rows is None:
            bad = _first_bad_line(lines, first)
            rows = _pairs(lines[:bad[0] - first], dtype) if bad else None
        yield rows, bad
        if rows is None or bad:
            return


def _data_line_number(data, row):
    """Line number of the data line at index row among those of UTF-8 bytes."""
    numbers = (lineno for first, lines in _text_lines(data)
               for lineno, line in enumerate(lines, start=first) if _holds_data(line))
    return next(itertools.islice(numbers, row, None))


def _value_codes(values):
    """Codes of int64 values into their sorted distinct values, and those values as ints.

    Values spanning no more than their count are coded through a lookup
    table over that span; others are ranked after one sort, with the ranks
    written over values. The span is taken in Python ints, as it may
    exceed int64.
    """
    low, high = int(values.min()), int(values.max())
    if high - low < len(values):
        values -= low
        present = np.zeros(high - low + 1, dtype=bool)
        present[values] = True
        codes = (np.cumsum(present) - 1)[values]
        return codes, (np.flatnonzero(present) + low).tolist()
    order = np.argsort(values)
    ordered = values[order]
    new = _run_starts(ordered)
    distinct = ordered[new]
    del ordered
    values[order] = np.cumsum(new) - 1
    return values, distinct.tolist()


def _malformed(lineno, got):
    """The error for an edge-list data line holding got tokens, not two."""
    weighted = " (weighted edges are not supported)" if got > 2 else ""
    return EdgeListError(f"line {lineno}: expected 2 tokens, got {got}{weighted}")


def _edge_rows(data, dtype, convert):
    """convert of each chunk's (lines, 2) _pairs, or None at a token not of dtype.

    A data line without two tokens raises EdgeListError naming it.
    """
    parts = []
    for rows, bad in _pair_rows(data, dtype):
        if bad:
            raise _malformed(*bad)
        if rows is None:
            return None
        parts.append(convert(rows))
    return parts


def _edge_endpoints(source):
    """Endpoints of every edge line of source as (codes, labels), two codes per line.

    labels holds the distinct node labels, normalized and sorted, and codes
    index it in file order. The input is read a chunk at a time, as int64
    values while every token is an integer. At the first that is not, it is
    read again as text, each chunk's tokens interned as ids in the order of
    first appearance; only the distinct tokens are normalized, at the end.
    """
    data = _read_utf8(source)
    names = collections.defaultdict(itertools.count().__next__)  # a new token takes the next id
    parts = _edge_rows(data, np.int64, np.ravel)
    if parts is None:  # "07" and "7" are one label only when every token is an integer
        parts = _edge_rows(data, object, lambda rows: np.fromiter(
            map(names.__getitem__, rows.ravel().tolist()), dtype=np.int64, count=rows.size))
    del data  # the text dies before the codes and the graph are built
    values = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
    del parts
    if not names:
        return _value_codes(values) if len(values) else (values, [])
    normalized = _normalize_labels(list(names))
    labels = sorted(set(normalized))
    rank = {lab: i for i, lab in enumerate(labels)}
    code = np.fromiter(map(rank.__getitem__, normalized), dtype=np.int64, count=len(normalized))
    return code[values], labels


def load_edge_list(source):
    """Parse an edge-list text stream into the largest connected component.

    One edge per data line as two tokens. Commas and Unicode blanks (those
    str.split() splits on) separate tokens, and lines end where
    str.splitlines() ends them. A line is skipped if it is blank or its
    first non-blank character is '#'; a '#' later in a line is part of a
    token. A leading UTF-8 byte-order mark is dropped. Labels become ints
    when int() reads every token, so "07" and "7" are one node; otherwise
    every label is its token's text, and they are two. Self-loops and
    duplicate edges are dropped (counts logged). Rows with more than two
    tokens are rejected: weighted input is not supported.
    """
    codes, labels = _edge_endpoints(source)
    if not len(codes):
        raise EdgeListError("no edges found in input")
    n_edges = len(codes) // 2
    low, high = np.minimum(codes[0::2], codes[1::2]), np.maximum(codes[0::2], codes[1::2])
    del codes
    loop = low == high
    self_loops = int(loop.sum())
    n_all = len(labels)
    keys = low[~loop]
    keys *= n_all
    keys += high[~loop]
    del low, high, loop
    keys.sort()
    keys = keys[_run_starts(keys)]
    duplicates = n_edges - self_loops - len(keys)
    if self_loops or duplicates:
        log.info("dropped %d self-loops and %d duplicate edges", self_loops, duplicates)
    if not len(keys):
        raise EdgeListError("graph is empty after dropping self-loops")

    # a label seen only in self-loops is an isolated node: the component cut drops it
    return largest_connected_component(Graph._from_keys(n_all, keys, labels))


def largest_connected_component(g):
    """Induced subgraph on the largest component, reindexed 0..n-1.

    Ties between equal-size components go to the one containing the
    smallest original label. Idempotent on connected graphs.

    One breadth-first search from node 0 settles most graphs. If it reaches
    r >= n / 2 nodes, no other component has more than n - r <= r, and
    node 0 carries the smallest label, so it also wins a tie. Only when it
    reaches fewer does the search over all components run. The cut slices
    the CSR to the kept rows, then columns, so each row stays sorted.
    """
    from scipy.sparse import csgraph  # not at module level: it adds 11 MB of RSS on import

    reached = csgraph.breadth_first_order(g.adjacency, 0, return_predecessors=False)
    if len(reached) == g.n:
        return g
    if 2 * len(reached) >= g.n:
        inside = np.zeros(g.n, dtype=bool)
        inside[reached] = True
    else:
        # the adjacency is symmetric, so its strong components are its components,
        # found without the transposed copy that an undirected search makes
        _, comp = csgraph.connected_components(g.adjacency, directed=True, connection="strong")
        sizes = np.bincount(comp)
        # node indices follow sorted label order, so the smallest index in a
        # component carries its smallest original label
        inside = comp == comp[np.argmax(sizes[comp] == sizes.max())]
    keep = np.flatnonzero(inside)
    adj = g.adjacency[keep][:, keep]
    return Graph(adjacency=adj, degrees=np.diff(adj.indptr).astype(np.int64),
                 node_labels=tuple(g.node_labels[i] for i in keep.tolist()))


def load_ground_truth(source, graph, ignore_extra=False):
    """Read "node community" lines into a label vector aligned with graph.

    Lines, tokens, blank lines and comments follow load_edge_list's rules,
    and each data line must hold two tokens. Community ids are
    canonicalized to 0..k-1 by first appearance in the file; they are read
    as text, so "07" and "7" are two communities. Every graph node must be
    covered; node labels absent from the graph raise unless ignore_extra is
    set (useful when the graph loader dropped nodes outside the largest
    connected component). A node token is read as the graph's labels are:
    as an integer on an all-integer graph ("07" is node 7), as the string
    itself otherwise. A node listed twice takes its last community.
    """
    data = _read_utf8(source)
    node, community = _truth_pairs(data, graph, ignore_extra)
    nodes, first = np.unique(node[::-1], return_index=True)  # reversed: a node's last line wins
    assigned = np.full(graph.n, -1, dtype=np.int64)
    assigned[nodes] = community[::-1][first]
    missing = np.flatnonzero(assigned < 0)
    if len(missing):
        raise EdgeListError(f"missing community labels for {len(missing)} nodes "
                            f"(first: {graph.node_labels[missing[0]]!r})")
    return assigned


def _truth_rows(data, node_dtype):
    """(node tokens, community ids, first bad line) of UTF-8 bytes; None at a node not node_dtype.

    Community names take ids by first appearance. Reading stops at the
    first bad line (see _first_bad_line), returning the lines before it.
    """
    dtype = np.dtype([("node", node_dtype), ("community", object)])
    ids = collections.defaultdict(itertools.count().__next__)  # a new name takes the next id
    nodes, names, bad = [np.zeros(0, dtype=node_dtype)], [np.zeros(0, dtype=np.int64)], None
    for rows, bad in _pair_rows(data, dtype):
        if rows is None:
            return None
        nodes.append(rows["node"].copy())  # a copy: the names die with their chunk
        names.append(np.fromiter(map(ids.__getitem__, rows["community"].tolist()),
                                 dtype=np.int64, count=len(rows)))
    return np.concatenate(nodes), np.concatenate(names), bad


def _truth_pairs(data, graph, ignore_extra):
    """(graph index, community code) of every line naming a graph node.

    Node tokens are int64 values on an integer graph while all are integers;
    otherwise each is looked up among the graph's labels.
    """
    int_graph = isinstance(graph.node_labels[0], (int, np.integer))
    read = _truth_rows(data, np.int64) if int_graph else None
    nodes, names, malformed = read or _truth_rows(data, object)
    if nodes.dtype == np.int64:
        node = _int_label_positions(graph, nodes)
    else:  # each token is looked up among the graph's labels
        tokens = nodes.tolist()
        if int_graph:  # "07" names node 7
            tokens = [_normalize_labels([tok])[0] for tok in tokens]
        node = np.fromiter(map(graph.label_index.get, tokens, itertools.repeat(-1)),
                           dtype=np.int64, count=len(tokens))
    known = node >= 0
    if not ignore_extra and not known.all():
        first = int(np.argmin(known))
        label = _normalize_labels([nodes[first]])[0] if int_graph else nodes[first]
        raise EdgeListError(f"line {_data_line_number(data, first)}: unknown node label {label!r}")
    if malformed:
        raise EdgeListError(f"line {malformed[0]}: expected 'node community', "
                            f"got {malformed[1]} tokens")
    # the ids are codes by first appearance, until lines naming no graph node are dropped
    return node[known], names if known.all() else _first_appearance_codes(names[known])


def _int_label_positions(graph, values):
    """Index of each value among graph's integer labels, or -1 if it is none."""
    labels = np.asarray(graph.node_labels)
    order = np.argsort(labels, kind="stable")
    index = order[np.minimum(np.searchsorted(labels, values, sorter=order), len(labels) - 1)]
    return np.where(labels[index] == values, index, -1)


def _first_appearance_codes(values):
    """Codes 0, 1, ... for the distinct values, in order of first appearance."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()]


def write_edge_list(g):
    """Text of the graph as one "a b" line per edge, using original labels."""
    labels = g.node_labels
    lines = [f"# nodes={g.n} edges={g.m}"]
    lines += [f"{labels[i]} {labels[j]}" for i, j in g.edges()]
    return "\n".join(lines) + "\n"
