"""Undirected graph container and edge-list / ground-truth loaders.

Graphs are simple (no self-loops, no duplicate edges), unweighted and
undirected, held as a symmetric CSR adjacency with sorted neighbor lists.
Loaders reduce the input to its largest connected component and keep a
stable map back to the original node labels.
"""

import hashlib
import itertools
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

log = logging.getLogger(__name__)


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
        data = np.ones(2 * len(rows))
        adj = sparse.csr_matrix((data, (np.concatenate([rows, cols]),
                                        np.concatenate([cols, rows]))), shape=(n, n))
        adj.sort_indices()
        return cls(adjacency=adj, degrees=np.diff(adj.indptr).astype(np.int64),
                   node_labels=tuple(labels))

    @cached_property
    def label_index(self):
        return {lab: i for i, lab in enumerate(self.node_labels)}

    def neighbors(self, i):
        start, stop = self.adjacency.indptr[i], self.adjacency.indptr[i + 1]
        return self.adjacency.indices[start:stop]

    def _upper_edges(self):
        """(rows, cols) index arrays of each edge once, rows < cols, in CSR order."""
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        upper = rows < indices
        return rows[upper], indices[upper].astype(np.int64)

    def edges(self):
        """Iterate each edge once as an (i, j) index pair with i < j."""
        rows, cols = self._upper_edges()
        return zip(rows.tolist(), cols.tolist())

    @cached_property
    def _digest(self):
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(np.column_stack(self._upper_edges()).tobytes())
        return h.hexdigest()[:16]

    def content_hash(self):
        """Stable hex digest of the node count and edge set, computed once."""
        return self._digest


def _read_text(source):
    """Whole input as text, without a leading UTF-8 byte-order mark."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8-sig")
        return data.removeprefix("\ufeff")
    return Path(source).read_text(encoding="utf-8-sig")


def _normalize_labels(raw_labels):
    # All-integer label sets sort numerically, otherwise lexically as strings.
    try:
        return [int(t) for t in raw_labels]
    except ValueError:
        return [str(t) for t in raw_labels]


# The tokenizer works on UTF-8 bytes, so the whitespace of str.split() and
# the line breaks of str.splitlines() outside ASCII are first mapped to
# ASCII ones: a line break to "\x1e", which never pairs up as "\r\n" does.
_WIDE_SPACE = str.maketrans(
    {c: "\x1e" if c in (0x85, 0x2028, 0x2029) else " "
     for c in (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
               0x205F, 0x3000)})
_LINE_BREAK = np.zeros(256, dtype=bool)
_LINE_BREAK[list(b"\n\v\f\r\x1c\x1d\x1e")] = True
_SEPARATOR = _LINE_BREAK.copy()
_SEPARATOR[list(b" \t\x1f,")] = True
_MAX_DIGITS = 18  # a decimal numeral this long always fits in int64


def _run_starts(ordered):
    """Mask of the first entry of each run of equal values in a sorted array."""
    mask = np.ones(len(ordered), dtype=bool)
    mask[1:] = ordered[1:] != ordered[:-1]
    return mask


def _edge_tokens(raw):
    """Start offsets and lengths of the tokens on edge lines of a UTF-8 buffer.

    Also returns which of all tokens in the buffer those are. Lines are
    numbered as str.splitlines() numbers them; blank lines and lines whose
    first non-blank character is '#' are skipped; commas separate tokens
    like whitespace. An edge line without exactly two tokens raises.
    """
    breaks = _LINE_BREAK[raw]
    breaks[1:] &= (raw[1:] != ord("\n")) | (raw[:-1] != ord("\r"))  # "\r\n" is one
    line_of = np.cumsum(breaks, dtype=np.int32 if len(raw) < 2**31 else np.int64)
    n_lines = int(line_of[-1]) + 1 if len(raw) else 1
    sep = _SEPARATOR[raw]
    word = ~sep
    starts = np.flatnonzero(word & np.concatenate([[True], sep[:-1]]))
    ends = np.flatnonzero(word & np.concatenate([sep[1:], [True]])) + 1

    # a line's first non-blank character starts a token or is a comma
    commas = np.flatnonzero(raw == ord(","))
    heads = np.sort(np.concatenate([starts, commas])) if len(commas) else starts
    first = heads[_run_starts(line_of[heads])]
    edge_line = np.zeros(n_lines, dtype=bool)
    edge_line[line_of[first[raw[first] != ord("#")]]] = True
    token_line = line_of[starts]
    counts = np.bincount(token_line, minlength=n_lines)
    bad = np.flatnonzero(edge_line & (counts != 2))
    if len(bad):
        lineno, got = int(bad[0]) + 1, int(counts[bad[0]])
        if got > 2:
            raise EdgeListError(f"line {lineno}: expected 2 tokens, got {got} "
                                "(weighted edges are not supported)")
        raise EdgeListError(f"line {lineno}: expected 2 tokens, got {got}")
    keep = edge_line[token_line]
    return starts[keep], (ends - starts)[keep], keep


def _decimal_values(raw, starts, lengths):
    """int64 value of every token if all are plain decimal numerals, else None."""
    if not len(starts) or lengths.max() > _MAX_DIGITS:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for p in range(int(lengths.max())):
        more = lengths > p
        digit = raw[starts[more] + p] - ord("0")  # uint8: bytes below "0" wrap past 9
        if (digit > 9).any():
            return None
        values[more] = 10 * values[more] + digit
    return values


def _edge_endpoints(text):
    """Endpoints of every edge line as (codes, labels), two codes per line.

    labels holds the distinct node labels, normalized and sorted, and codes
    index it in file order.
    """
    if not text.isascii():
        text = text.translate(_WIDE_SPACE)
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    starts, lengths, keep = _edge_tokens(raw)
    values = _decimal_values(raw, starts, lengths)
    if values is not None:
        # int labels without parsing a string: "07" and "7" are both 7
        order = np.argsort(values)
        ordered = values[order]
        new = _run_starts(ordered)
        codes = np.empty(len(values), dtype=np.int64)
        codes[order] = np.cumsum(new) - 1
        return codes, ordered[new].tolist()

    tokens = text.replace(",", " ").split()
    if not keep.all():
        tokens = list(itertools.compress(tokens, keep.tolist()))
    distinct = list(dict.fromkeys(tokens))  # normalize each token once
    normalized = _normalize_labels(distinct)
    labels = sorted(set(normalized))  # "07" and "7" are one label
    rank = {lab: i for i, lab in enumerate(labels)}
    code = {tok: rank[lab] for tok, lab in zip(distinct, normalized)}
    codes = np.fromiter(map(code.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return codes, labels


def load_edge_list(source):
    """Parse an edge-list text stream into the largest connected component.

    One edge per line as two whitespace- or comma-separated tokens; lines
    starting with '#' and blank lines are skipped; LF and CRLF both accepted,
    and so is a leading UTF-8 byte-order mark. Self-loops and duplicate
    edges are dropped (counts logged). Rows with more than two tokens are
    rejected: weighted input is not supported.
    """
    codes, labels = _edge_endpoints(_read_text(source))
    if not len(codes):
        raise EdgeListError("no edges found in input")
    a, b = codes[0::2], codes[1::2]

    loop = a == b
    self_loops = int(loop.sum())
    n_all = len(labels)
    keys = np.sort(np.minimum(a, b)[~loop] * n_all + np.maximum(a, b)[~loop])
    keys = keys[_run_starts(keys)]
    duplicates = len(a) - self_loops - len(keys)
    if self_loops or duplicates:
        log.info("dropped %d self-loops and %d duplicate edges", self_loops, duplicates)
    if not len(keys):
        raise EdgeListError("graph is empty after dropping self-loops")

    # a label seen only in self-loops is an isolated node: the component cut drops it
    g = Graph.from_edges(n_all, keys // n_all, keys % n_all, labels)
    return largest_connected_component(g)


def largest_connected_component(g):
    """Induced subgraph on the largest component, reindexed 0..n-1.

    Ties between equal-size components go to the one containing the
    smallest original label. Idempotent on connected graphs.
    """
    ncomp, comp = csgraph.connected_components(g.adjacency, directed=False)
    if ncomp == 1:
        return g
    sizes = np.bincount(comp)
    best_size = sizes.max()
    # node indices follow sorted label order, so the smallest index in a
    # component carries its smallest original label
    winner = comp[np.argmax(sizes[comp] == best_size)]
    keep = np.flatnonzero(comp == winner)
    sub = g.adjacency[np.ix_(keep, keep)].tocsr()
    sub.sort_indices()
    degrees = np.diff(sub.indptr).astype(np.int64)
    labels = tuple(g.node_labels[i] for i in keep)
    return Graph(adjacency=sub, degrees=degrees, node_labels=labels)


def load_ground_truth(source, graph, ignore_extra=False):
    """Read "node community" lines into a label vector aligned with graph.

    Community ids are canonicalized to 0..k-1 by first appearance in the
    file. Every graph node must be covered; node labels absent from the
    graph raise unless ignore_extra is set (useful when the graph loader
    dropped nodes outside the largest connected component).
    """
    assignments = {}
    order = {}
    for lineno, line in enumerate(_read_text(source).splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'node community', got {len(tokens)} tokens")
        node = _normalize_labels([tokens[0]])[0]
        if node not in graph.label_index:
            if ignore_extra:
                continue
            raise EdgeListError(f"line {lineno}: unknown node label {node!r}")
        if tokens[1] not in order:
            order[tokens[1]] = len(order)
        assignments[node] = order[tokens[1]]
    missing = [lab for lab in graph.node_labels if lab not in assignments]
    if missing:
        raise EdgeListError(f"missing community labels for {len(missing)} nodes "
                            f"(first: {missing[0]!r})")
    return np.array([assignments[lab] for lab in graph.node_labels], dtype=np.int64)


def write_edge_list(g, dest):
    """Serialize the graph as one "a b" line per edge, using original labels."""
    labels = g.node_labels
    lines = [f"# nodes={g.n} edges={g.m}"]
    lines += [f"{labels[i]} {labels[j]}" for i, j in g.edges()]
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")
