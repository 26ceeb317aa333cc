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


def _line_breaks(raw):
    """Mask of the bytes of a UTF-8 buffer that end a line for str.splitlines()."""
    breaks = _LINE_BREAK[raw]
    breaks[1:] &= (raw[1:] != ord("\n")) | (raw[:-1] != ord("\r"))  # "\r\n" is one
    return breaks


def _edge_tokens(raw):
    """Tokens on the data lines of a UTF-8 buffer, and its first malformed line.

    Lines are numbered as str.splitlines() numbers them; blank lines and
    lines whose first non-blank character is '#' are skipped; commas
    separate tokens like whitespace. Returns the start offsets and lengths
    of the data-line tokens, which of all tokens in the buffer those are,
    and (line number, token count) of the first data line without exactly
    two tokens, or None.
    """
    # breaks lives to the end: on a 100k-node edge list, freeing it early left
    # a heap layout that raised the CLI pipeline's peak RSS by about 15 MB
    breaks = _line_breaks(raw)
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
    malformed = (int(bad[0]) + 1, int(counts[bad[0]])) if len(bad) else None
    keep = edge_line[token_line]
    return starts[keep], (ends - starts)[keep], keep, malformed


def _utf8(text):
    """text with its non-ASCII blanks made ASCII, and its UTF-8 bytes."""
    if not text.isascii():
        text = text.translate(_WIDE_SPACE)
    return text, np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _kept_tokens(text, keep):
    """The tokens of text, as str.split() finds them, that keep selects."""
    tokens = text.replace(",", " ").split()
    if keep.all():
        return tokens
    return list(itertools.compress(tokens, keep.tolist()))


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
    text, raw = _utf8(text)
    starts, lengths, keep, malformed = _edge_tokens(raw)
    if malformed:
        lineno, got = malformed
        if got > 2:
            raise EdgeListError(f"line {lineno}: expected 2 tokens, got {got} "
                                "(weighted edges are not supported)")
        raise EdgeListError(f"line {lineno}: expected 2 tokens, got {got}")
    values = _decimal_values(raw, starts, lengths)
    if values is not None:
        # int labels without parsing a string: "07" and "7" are both 7
        order = np.argsort(values)
        ordered = values[order]
        new = _run_starts(ordered)
        codes = np.empty(len(values), dtype=np.int64)
        codes[order] = np.cumsum(new) - 1
        return codes, ordered[new].tolist()

    tokens = _kept_tokens(text, keep)
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
    dropped nodes outside the largest connected component). A node token
    is read as the graph's labels are: as an integer on an all-integer
    graph ("07" is node 7), as the string itself otherwise. A node listed
    twice takes its last community.
    """
    text, raw = _utf8(_read_text(source))
    starts, lengths, keep, malformed = _edge_tokens(raw)
    if malformed:  # lines before it are read first: one may hold an unknown node
        before = int(np.searchsorted(np.cumsum(_line_breaks(raw))[starts], malformed[0] - 1))
        starts, lengths = starts[:before], lengths[:before]
    int_graph = isinstance(graph.node_labels[0], (int, np.integer))
    values = _decimal_values(raw, starts[0::2], lengths[0::2]) if int_graph else None
    codes = _decimal_values(raw, starts[1::2], lengths[1::2])
    if codes is not None and ((raw[starts[1::2]] == ord("0")) & (lengths[1::2] > 1)).any():
        codes = None  # "07" and "7" are two communities
    if values is None or codes is None:
        tokens = _kept_tokens(text, keep)[:len(starts)]

    if values is not None:
        node = _int_label_positions(graph, values)
    else:
        distinct = list(dict.fromkeys(tokens[0::2]))  # normalize each token once
        labels = [_normalize_labels([t])[0] for t in distinct] if int_graph else distinct
        index = graph.label_index
        node_of = {tok: index.get(lab, -1) for tok, lab in zip(distinct, labels)}
        node = np.fromiter(map(node_of.__getitem__, tokens[0::2]), dtype=np.int64,
                           count=len(starts) // 2)
    known = node >= 0
    if not ignore_extra and not known.all():
        first = int(np.argmin(known))
        if values is not None:
            label = int(values[first])
        else:
            label = _normalize_labels([tokens[2 * first]])[0] if int_graph else tokens[2 * first]
        lineno = int(_line_breaks(raw)[:starts[2 * first]].sum()) + 1
        raise EdgeListError(f"line {lineno}: unknown node label {label!r}")
    if malformed:
        raise EdgeListError(f"line {malformed[0]}: expected 'node community', "
                            f"got {malformed[1]} tokens")

    if codes is not None:
        community = _first_appearance_codes(codes[known])
    else:
        names = list(itertools.compress(tokens[1::2], known.tolist()))
        ids = {c: i for i, c in enumerate(dict.fromkeys(names))}
        community = np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names))
    node = node[known]
    order = np.argsort(node, kind="stable")
    last = np.append(node[order][1:] != node[order][:-1], True)  # a node's last line wins
    assigned = np.full(graph.n, -1, dtype=np.int64)
    assigned[node[order][last]] = community[order][last]
    missing = np.flatnonzero(assigned < 0)
    if len(missing):
        raise EdgeListError(f"missing community labels for {len(missing)} nodes "
                            f"(first: {graph.node_labels[missing[0]]!r})")
    return assigned


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
