"""Edge-list parsing, component extraction, and ground-truth alignment."""

import io
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import BARBELL_EDGES
from oracles import (dense_adjacency, make_graph, random_connected_graph,
                     reference_generate_planted_partition, reference_largest_connected_component,
                     reference_load_edge_list, reference_load_ground_truth)
from spherembed import (EdgeListError, Graph, PlantedPartitionSpec,
                        generate_planted_partition, graphs, largest_connected_component,
                        load_edge_list, load_ground_truth, write_edge_list)
from spherembed.embedding import read_embedding_csv


def test_parse_whitespace_comma_comments():
    text = "# a comment\n0 1\n1,2\n\n  2   0  \n"
    g = load_edge_list(io.StringIO(text))
    assert g.n == 3
    assert g.m == 3
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_integer_labels_sorted_numerically():
    g = load_edge_list(io.StringIO("10 2\n2 1\n1 10\n"))
    assert g.node_labels == (1, 2, 10)


def test_string_labels_sorted_lexicographically():
    g = load_edge_list(io.StringIO("b a\nc b\na c\n"))
    assert g.node_labels == ("a", "b", "c")


def test_mixed_labels_become_strings():
    # one non-integer token forces every label to string form
    g = load_edge_list(io.StringIO("1 x\nx 2\n2 1\n"))
    assert g.node_labels == ("1", "2", "x")


def test_self_loops_and_duplicates_dropped():
    g = load_edge_list(io.StringIO("0 0\n0 1\n1 0\n0 1\n1 2\n2 2\n2 0\n"))
    assert g.m == 3
    assert np.array_equal(g.degrees, [2, 2, 2])


def test_weighted_edges_rejected():
    with pytest.raises(EdgeListError, match="weighted"):
        load_edge_list(io.StringIO("0 1 2.5\n"))


def test_single_token_line_rejected():
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("0 1\n2\n"))


def test_empty_input_rejected():
    with pytest.raises(EdgeListError):
        load_edge_list(io.StringIO("# nothing here\n"))


def test_largest_component_kept():
    # component {0,1,2} has 3 nodes, {7,8} has 2
    g = load_edge_list(io.StringIO("0 1\n1 2\n7 8\n"))
    assert g.node_labels == (0, 1, 2)
    assert g.m == 2


def test_component_tie_prefers_smallest_label():
    g = load_edge_list(io.StringIO("5 6\n0 9\n"))
    assert g.node_labels == (0, 9)


def test_largest_connected_component_idempotent(barbell):
    again = largest_connected_component(barbell)
    assert again.node_labels == barbell.node_labels
    assert list(again.edges()) == list(barbell.edges())


def test_degrees_match_dense(rng):
    g = random_connected_graph(rng, 17, extra_edges=12)
    A = dense_adjacency(g)
    assert np.array_equal(g.degrees, A.sum(axis=1).astype(int))


def test_neighbors_sorted_and_edges_oriented(barbell):
    # from_edges sorts each CSR row, whatever the order and orientation of its input
    cols, rows = np.array(BARBELL_EDGES[::-1]).T
    for g in (barbell, Graph.from_edges(6, rows, cols, range(6))):
        indptr, indices = g.adjacency.indptr, g.adjacency.indices
        assert indices[indptr[2]:indptr[3]].tolist() == [0, 1, 3]
    for i, j in barbell.edges():
        assert i < j


def test_content_hash_sensitivity():
    g1 = make_graph([(0, 1), (1, 2)])
    g2 = make_graph([(0, 1), (1, 2)])
    g3 = make_graph([(0, 1), (1, 2), (0, 2)])
    assert g1.content_hash() == g2.content_hash()
    assert g1.content_hash() != g3.content_hash()
    assert len(g1.content_hash()) == 16


def test_ground_truth_first_appearance_ids(barbell):
    truth = load_ground_truth(io.StringIO("0 9\n1 9\n2 9\n3 4\n4 4\n5 4\n"), barbell)
    # community ids are renumbered in order of first appearance
    assert truth.tolist() == [0, 0, 0, 1, 1, 1]


def test_ground_truth_missing_node_rejected(barbell):
    with pytest.raises(EdgeListError, match="missing"):
        load_ground_truth(io.StringIO("0 1\n1 1\n2 1\n"), barbell)


def test_ground_truth_unknown_node_rejected(barbell):
    lines = "\n".join(f"{i} 0" for i in range(6)) + "\n99 0\n"
    with pytest.raises(EdgeListError):
        load_ground_truth(io.StringIO(lines), barbell)
    truth = load_ground_truth(io.StringIO(lines), barbell, ignore_extra=True)
    assert len(truth) == 6


def test_ground_truth_tokens_read_as_graph_labels():
    # string labels: an integer-looking token is the string itself
    g = load_edge_list(io.StringIO("1 x\nx 2\n2 1\n"))
    assert g.node_labels == ("1", "2", "x")
    truth = load_ground_truth(io.StringIO("1 a\n2 a\nx b\n"), g)
    assert truth.tolist() == [0, 0, 1]
    extra = "1 a\n2 a\n07 c\nx b\n"
    with pytest.raises(EdgeListError, match="line 3: unknown node label '07'"):
        load_ground_truth(io.StringIO(extra), g)
    assert load_ground_truth(io.StringIO(extra), g, ignore_extra=True).tolist() == [0, 0, 1]
    # integer labels: "07" is node 7, and a non-integer token is unknown
    g = load_edge_list(io.StringIO("07 1\n7 2\n1 2\n"))
    assert g.node_labels == (1, 2, 7)
    assert load_ground_truth(io.StringIO("07 a\n1 b\n2 b\n"), g).tolist() == [1, 1, 0]
    extra = "07 a\n1 b\nx c\n2 b\n"
    with pytest.raises(EdgeListError, match="line 3: unknown node label 'x'"):
        load_ground_truth(io.StringIO(extra), g)
    assert load_ground_truth(io.StringIO(extra), g, ignore_extra=True).tolist() == [1, 1, 0]


@pytest.mark.parametrize("text", ["", "\n# no node here\n\n", "\xa0\n\u3000\n", "99 0\nx 1\n"],
                         ids=["empty", "comments", "non-ascii-blanks", "only-unknown-nodes"])
@pytest.mark.parametrize("ignore_extra", [False, True])
def test_ground_truth_naming_no_graph_node_matches_reference(barbell, text, ignore_extra):
    # no line survives, so the last-line-wins pass runs on empty arrays
    with pytest.raises(EdgeListError) as want:
        reference_load_ground_truth(io.StringIO(text), barbell, ignore_extra)
    with pytest.raises(EdgeListError, match=re.escape(str(want.value))):
        load_ground_truth(io.StringIO(text), barbell, ignore_extra)


TRUTH_STYLES = {
    # (graph labels, node tokens that may or may not name a node)
    "int": (lambda n: [str(i) for i in range(n)], ["07", "+3", "99", "x", "\u0663", "-0"]),
    "str": (lambda n: [f"v{i}" for i in range(n)], ["1", "v99", "\xe9", "07", "V1"]),
}


def _random_truth_text(rng, names, extra):
    seps = [" ", "\t", ",", " , ", ", ", "\u3000"]
    nodes = [str(v) for v in rng.permutation(names)]
    if rng.random() < 0.2:
        nodes.pop()  # a graph node without a community
    nodes += [str(v) for v in rng.choice(names + extra, size=int(rng.integers(0, 6)))]
    # communities are strings: "07" and "7" are two
    communities = [["3", "1", "12", "0"], ["7", "07", "1", "007"], ["0", "c", "07", "7", "\xe9"],
                   ["1", "+1", "01", "-0", "0"]][int(rng.integers(4))]
    lines = []
    for node in rng.permutation(nodes):
        if rng.random() < 0.15:
            lines.append(str(rng.choice(["# c", "  #x y z", "#", "", "   "])))
        community = rng.choice(communities)
        lines.append(f"{node}{rng.choice(seps)}{community}")
    if rng.random() < 0.15:
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["a b c", "a", ","])))
    newline = "\r\n" if rng.random() < 0.5 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.7 else "")


@pytest.mark.parametrize("style", sorted(TRUTH_STYLES))
def test_ground_truth_matches_reference(style):
    # the array truth loader against the line-by-line loader it replaced
    rng = np.random.default_rng(sum(map(ord, style)))
    outcomes = set()
    for _ in range(60):
        names = TRUTH_STYLES[style][0](int(rng.integers(2, 15)))
        graph = load_edge_list(io.StringIO("".join(f"{a} {b}\n"
                                                   for a, b in zip(names, names[1:]))))
        text = _random_truth_text(rng, names, TRUTH_STYLES[style][1])
        for ignore_extra in (False, True):
            try:
                want = reference_load_ground_truth(io.StringIO(text), graph, ignore_extra)
            except EdgeListError as exc:
                outcomes.add(re.sub(r"^line \d+: ", "", str(exc)).split()[0])
                with pytest.raises(EdgeListError, match=re.escape(str(exc))):
                    load_ground_truth(io.StringIO(text), graph, ignore_extra)
                continue
            outcomes.add("ok")
            got = load_ground_truth(io.StringIO(text), graph, ignore_extra)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
    # the cases cover success and every error
    assert outcomes >= {"ok", "unknown", "expected", "missing"}


def test_write_edge_list_round_trip(rng):
    g = random_connected_graph(rng, 11, extra_edges=6)
    # "#b" sorts before "a", so the edge's first label would open a comment line
    hashed = load_edge_list(io.StringIO("a #b\nb c\na c\n"))
    assert (hashed.n, hashed.m) == (4, 3)
    for graph in (g, hashed):
        back = load_edge_list(io.StringIO(write_edge_list(graph)))
        assert back.node_labels == graph.node_labels
        assert list(back.edges()) == list(graph.edges())


def test_write_edge_list_rejects_an_edge_between_two_hash_labels():
    # only a graph built in code can join two such labels; no line can hold that edge
    both = Graph.from_edges(3, np.array([0, 1]), np.array([1, 2]), ["#a", "#b", "c"])
    with pytest.raises(ValueError, match="'#a' '#b': both labels start with '#'"):
        write_edge_list(both)


@pytest.mark.parametrize("label", ["a b", "", "a,b", "a\nb", "a\u2028b", "a\x1cb"])
def test_write_edge_list_rejects_a_label_that_is_not_one_token(label):
    # the loader splits on blanks and commas and ends lines at line breaks
    g = Graph.from_edges(3, np.array([0, 1]), np.array([1, 2]), [label, "c", "d"])
    with pytest.raises(ValueError, match=f"^label {re.escape(repr(label))} is empty or holds"):
        write_edge_list(g)


@pytest.mark.parametrize("labels, pair", [
    (["07", "7", "8"], "'07' and '7'"),         # every label reads as an integer
    ([7, "7", "x"], "7 and '7'"),               # "x" does not, so 7 reads back as "7"
    (["07", "7", "8", "x"], "'07' and '7'"),    # isolated, "x" is not written
])
def test_write_edge_list_rejects_labels_that_read_back_as_one(labels, pair):
    g = Graph.from_edges(len(labels), np.array([0, 1]), np.array([1, 2]), labels)
    with pytest.raises(ValueError, match=f"^labels {pair} read back as one node$"):
        write_edge_list(g)


def test_write_edge_list_checks_only_the_labels_it_writes():
    g = Graph.from_edges(4, np.array([0, 1]), np.array([1, 2]), ["a", "b", "c", "d e"])
    back = load_edge_list(io.StringIO(write_edge_list(g)))
    assert back.node_labels == ("a", "b", "c")
    assert list(back.edges()) == [(0, 1), (1, 2)]


def _assert_same_graph(got, want):
    assert got.node_labels == want.node_labels
    assert list(map(type, got.node_labels)) == list(map(type, want.node_labels))
    for a, b in [(got.adjacency.indptr, want.adjacency.indptr),
                 (got.adjacency.indices, want.adjacency.indices),
                 (got.adjacency.data, want.adjacency.data),
                 (got.degrees, want.degrees)]:
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


LABEL_STYLES = {
    "int": lambda n: [str(i) for i in range(n)],
    "padded": lambda n: [str(i) for i in range(n)] + ["07", "007", "00", "010"],
    "str": lambda n: [f"v{i}" for i in range(n)] + ["a", "B", "_", "é"],
    "mixed": lambda n: [str(i) for i in range(n)] + ["x", "07", "-3"],
    "int-like": lambda n: [str(i) for i in range(n)] + ["+5", "-5", "1_0", "٣",
                                                        "123456789012345678901"],
}


def _random_edge_text(rng, names):
    seps = [" ", "\t", ",", " , ", "  ", ", "]
    lines = []
    edges = []
    for _ in range(int(rng.integers(1, 60))):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["# comment", "  #x y z", "#", "", "   "]))
            continue
        if roll < 0.2 and edges:
            b, a = edges[int(rng.integers(len(edges)))]  # duplicate, reversed
        elif roll < 0.3:
            a = b = str(rng.choice(names))               # self-loop
        else:
            a, b = (str(v) for v in rng.choice(names, size=2))
        edges.append((a, b))
        pad = " " if rng.random() < 0.2 else ""
        lines.append(f"{pad}{a}{rng.choice(seps)}{b}{pad}")
    if rng.random() < 0.5:
        lines.insert(int(rng.integers(len(lines) + 1)), "selfloop-only selfloop-only"
                     if rng.random() < 0.5 else "999 999")
    newline = "\r\n" if rng.random() < 0.5 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.7 else "")


def _open_as(kind, text, tmp_path):
    if kind == "path":
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        return path
    if kind == "bytes":
        return io.BytesIO(text.encode("utf-8"))
    return io.StringIO(text)


@pytest.mark.parametrize("style", sorted(LABEL_STYLES))
def test_loader_matches_reference(style, tmp_path):
    # the vectorized loader against the tuple-per-edge loader it replaced
    rng = np.random.default_rng(sum(map(ord, style)))
    for case in range(40):
        names = LABEL_STYLES[style](int(rng.integers(2, 25)))
        text = _random_edge_text(rng, names)
        kind = ["text", "bytes", "path"][case % 3]
        try:
            want = reference_load_edge_list(_open_as(kind, text, tmp_path))
        except EdgeListError as exc:
            with pytest.raises(EdgeListError, match=re.escape(str(exc))):
                load_edge_list(_open_as(kind, text, tmp_path))
            continue
        _assert_same_graph(load_edge_list(_open_as(kind, text, tmp_path)), want)


EDGE_CASES = [
    "0 1\n2\n", "0 1 2\n", "a,b,c\n", ",\n0 1\n", "0 1\n , \n", ",# 1\n",
    "# only a comment\n", "", "\r\n\r\n", "1 1\n2 2\n", "0 1\r\n\t# c\r\n x y z\r\n",
    "0 1\r2 3 4\r", "0 1\x1c2\n", "0\u20281\n", "0\xa01\n1 2\n", "0 1\v1 2\f2 0\n",
    "#a b\n  # c d\n1,2\n", "123456789012345678901 1\n1 2\n2 123456789012345678901\n",
    "999999999999999999 1\n1 2\n", "0 1\n1 2\n\n2 0\n3 3\n",
    "0\u20031\u20281\xa02\x852\u30000\n", "a\u2029b\u205fc d\n", "0 1\r\x852 3 4\n",
    "é 1\n1\u202f2\n", "0 1\x1f\n1\t2\x1d# x\n",
    "9223372036854775808 1\n1 2\n2 0\n", "-0 0\n0 1\n1 -0\n", "+5 x\nx 5\n", "1.5 2\n2 3\n",
    "0 1\n,,\n", "0 1\n1 2 #c\n", "-1 9223372036854775807\n",
    "-5000000000000000000 5000000000000000000\n0 -5000000000000000000\n",
    "x y\n0 1 2\n",  # a token not an integer, then a bad line, in one chunk
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_loader_matches_reference_on_edge_cases(text):
    try:
        want = reference_load_edge_list(io.StringIO(text))
    except EdgeListError as exc:
        with pytest.raises(EdgeListError, match=re.escape(str(exc))):
            load_edge_list(io.StringIO(text))
        return
    _assert_same_graph(load_edge_list(io.StringIO(text)), want)


def test_padded_integer_labels_are_one_node():
    g = load_edge_list(io.StringIO("07 1\n7 2\n1 2\n"))
    assert g.node_labels == (1, 2, 7)
    assert g.m == 3


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
def test_byte_order_mark_ignored(kind, tmp_path):
    g = load_edge_list(_open_as(kind, "\ufeff0 1\n1 2\n2 0\n", tmp_path))
    assert g.node_labels == (0, 1, 2)
    truth = load_ground_truth(_open_as(kind, "\ufeff0 a\n1 a\n2 b\n", tmp_path), g)
    assert truth.tolist() == [0, 0, 1]


@pytest.mark.parametrize("data, reason", [
    (b"0 1\n\xff 2\n", "byte 0xff in position 4: invalid start byte"),
    (b"\xed\xa0\x80 1\n", "byte 0xed in position 0: invalid continuation byte"),  # a surrogate
], ids=["invalid byte", "encoded surrogate"])
def test_bytes_that_are_not_utf8_are_rejected(data, reason):
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    with pytest.raises(UnicodeDecodeError, match=f"^'utf-8' codec can't decode {reason}$"):
        load_edge_list(io.BytesIO(data))
    with pytest.raises(UnicodeDecodeError, match=f"^'utf-8' codec can't decode {reason}$"):
        load_ground_truth(io.BytesIO(data), g)
    header = b"node,coord_1\n"  # moves the position by its length
    position = int(re.search(r"position (\d+)", reason)[1])
    shifted = reason.replace(f"position {position}", f"position {position + len(header)}")
    with pytest.raises(UnicodeDecodeError, match=f"^'utf-8' codec can't decode {shifted}$"):
        read_embedding_csv(io.BytesIO(header + data))


def test_component_tie_among_many_components(rng):
    # 500 two-node components hold the smallest labels; 5000 triangles tie
    # for largest, and the one holding the smallest triangle label wins
    lines = [f"{2 * i} {2 * i + 1}" for i in range(500)]
    corners = rng.permutation(np.arange(1000, 16000)).reshape(-1, 3)
    lines += [f"{a} {b}\n{b} {c}\n{c} {a}" for a, b, c in corners.tolist()]
    g = load_edge_list(io.StringIO("\n".join(lines) + "\n"))
    winner = corners[np.flatnonzero((corners == 1000).any(axis=1))[0]]
    assert g.node_labels == tuple(sorted(winner.tolist()))
    assert g.m == 3


def _components_graph(rng, comp):
    """Graph on nodes 0..len(comp) - 1 whose components are the sets of equal comp.

    Each component is a random spanning tree plus a few random chords.
    """
    edges = set()
    for c in np.unique(comp):
        members = rng.permutation(np.flatnonzero(comp == c)).tolist()
        for idx in range(1, len(members)):
            a, b = members[idx], members[int(rng.integers(0, idx))]
            edges.add((min(a, b), max(a, b)))
        for _ in range(len(members) // 3):
            a, b = rng.choice(members, size=2, replace=False).tolist()
            edges.add((min(a, b), max(a, b)))
    rows, cols = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    return Graph.from_edges(len(comp), rows, cols, range(len(comp)))


def _node0_first(rng, sizes):
    """Component ids of random components of the given sizes; node 0 is in the first."""
    n = sum(sizes)
    order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    comp = np.empty(n, dtype=np.int64)
    comp[order] = np.repeat(np.arange(len(sizes)), sizes)
    return comp


LCC_CASES = {
    "connected": (False, lambda rng: np.zeros(60, dtype=np.int64)),
    "giant and isolated nodes": (False, lambda rng: np.where(
        (rng.random(60) < 0.2) & (np.arange(60) > 0), np.arange(60), 0)),
    "two equal halves": (False, lambda rng: np.arange(60) % 2),
    "node 0 in a small component": (True, lambda rng: np.isin(np.arange(60), [0, 7, 33]) * 1),
    "node 0 just under half": (True, lambda rng: _node0_first(rng, [29, 31])),
    "node 0 holds exactly half": (False, lambda rng: _node0_first(rng, [30, 20, 10])),
}


@pytest.mark.parametrize("case", sorted(LCC_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_largest_connected_component_matches_reference(case, seed, monkeypatch):
    # one breadth-first search from node 0 settles every case but the one
    # where node 0's component is under half the nodes, which searches them all
    fallback, make = LCC_CASES[case]
    rng = np.random.default_rng(seed)
    g = _components_graph(rng, make(rng))
    want = reference_largest_connected_component(g)
    searches = []
    search = csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *a, **k: searches.append(1) or search(*a, **k))
    got = largest_connected_component(g)
    assert len(searches) == fallback
    _assert_same_graph(got, want)
    if got.n == g.n:
        assert got is g


@pytest.mark.parametrize("case", sorted(LCC_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_largest_connected_component_keeps_canonical_csr(case, seed):
    # the cut slices the input's CSR: every row must stay sorted and free of
    # duplicates, with the input's index arrays' dtypes
    rng = np.random.default_rng(seed)
    g = _components_graph(rng, LCC_CASES[case][1](rng))
    got = largest_connected_component(g).adjacency
    assert got.has_canonical_format
    assert got.indices.dtype == g.adjacency.indices.dtype
    assert got.indptr.dtype == g.adjacency.indptr.dtype


@pytest.mark.parametrize("make, digest", [
    (lambda: make_graph(BARBELL_EDGES), "687e8c5e4f0424b7"),
    (lambda: make_graph([(0, 1)]), "c1d772afaa241014"),
    (lambda: load_edge_list(io.StringIO("b a\nc b\na c\nc d\n")), "05a5bb7ebd3c81d5"),
    (lambda: random_connected_graph(np.random.default_rng(7), 40, extra_edges=30),
     "19e958c2d5b82d58"),
    (lambda: reference_generate_planted_partition(
        PlantedPartitionSpec(n=120, k=3, p_in=0.2, p_out=0.02, seed=5))[0],
     "fe016da9d1162271"),
])
def test_content_hash_golden_values(make, digest):
    # digests of the tuple-per-edge implementation; a change breaks stored provenance
    assert make().content_hash() == digest


def test_content_hash_computed_once(barbell, monkeypatch):
    digest = barbell.content_hash()
    monkeypatch.setattr(type(barbell), "_upper_edges", lambda g: pytest.fail("rehashed"))
    assert barbell.content_hash() == digest


# Readers cut their input into chunks of graphs.CHUNK_BYTES that end with a
# whole line. With chunks of a few bytes, a chunk boundary falls inside
# almost every line, so each reader must give what it gives on the whole
# input, errors and their line numbers included.
TINY_CHUNKS = [1, 3, 7]


@pytest.mark.parametrize("chunk_bytes", TINY_CHUNKS)
@pytest.mark.parametrize("style", sorted(LABEL_STYLES))
def test_loader_matches_reference_in_tiny_chunks(style, chunk_bytes, tmp_path, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    test_loader_matches_reference(style, tmp_path)


@pytest.mark.parametrize("chunk_bytes", range(1, 9))
def test_loader_matches_reference_on_edge_cases_in_tiny_chunks(chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    for text in EDGE_CASES:
        test_loader_matches_reference_on_edge_cases(text)


@pytest.mark.parametrize("chunk_bytes", TINY_CHUNKS)
@pytest.mark.parametrize("style", sorted(TRUTH_STYLES))
def test_ground_truth_matches_reference_in_tiny_chunks(style, chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    test_ground_truth_matches_reference(style)


@pytest.mark.parametrize("chunk_bytes", range(1, 14))
def test_chunks_end_with_whole_lines(chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    data = "0 1\r\n12345 67890\n# comment, 3 4\x1e5 6\r7 8\r\n\r\n\f9\v10\x85é 1\u2028\u20292 3\n4 5".encode()
    pieces = list(graphs._chunks(data))
    assert [start for start, _ in pieces] == [0] + [end for _, end in pieces[:-1]]
    assert pieces[-1][1] == len(data)
    for start, end in pieces[:-1]:
        assert end - start >= chunk_bytes
        assert data[end - 1:end + 1] != b"\r\n"
        # the piece ends at the first line break that ends at least chunk_bytes into it
        assert len(data[start + chunk_bytes - 1:end].decode(errors="ignore").splitlines()) == 1
    lines = [data[start:end].decode().splitlines() for start, end in pieces]
    assert sum(lines, []) == data.decode().splitlines()


CHUNK_CASES = {
    "token across a boundary": "123456789 987654321\n987654321 5\n5 123456789\n",
    "CRLF pair across a boundary": "0 1\r\n1 2\r\n2 0\r\n3 0\r\n",
    "byte order mark": "\ufeff10 11\n11 12\n12 10\n",
    "record separator": "0 1\x1e1 2\x1e2 0\x1e",
    "line separator": "0 1\u20281 2\u20282 0\u2028",
    "next line": "0 1\x851 2\x852 0\x85",
    "comment across a boundary": "0 1\n# one comment, 1 2 3 4 5 6\n1 2\n  #, x\n2 0\n",
    "malformed last line": "0 1\n1 2\n2 0\n" * 5 + "3 4 5\n",
    # decimal chunks keep int64 values and others intern their tokens as text
    "padded numeral among text": "07 7\n7 x\nx 8\n8 07\n10 8\n12 10\n",
    "padded numeral among integers": "07 7\n7 8\n8 007\n10 8\n12 10\n",
    "text labels": "v0 v1\nv1 v2\nv2 v0\nv2 v10\nv10 v3\n",
    "malformed line after text": "a b\nb c\nc a\n1 2\n2 3\n3 1\n" * 2 + "3 1 4\n",
    "comment and blank lines across chunks": "0 1\n# one, 2 3\n\n  \n#\n\t# x y z\n\n1 2\n2 0\n",
    "int64-overflowing numeral among integers": "0 1\n1 2\n2 9223372036854775808\n"
                                                "9223372036854775808 0\n",
}
CHUNK_ERRORS = {"malformed last line": "^line 16: expected 2 tokens, got 3 ",
                "malformed line after text": "^line 13: expected 2 tokens, got 3 "}


@pytest.mark.parametrize("chunk_bytes", range(1, 12))
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_loader_across_chunk_boundaries(case, chunk_bytes, monkeypatch):
    text = CHUNK_CASES[case]
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    for kind in ("text", "bytes"):
        source = io.BytesIO(text.encode()) if kind == "bytes" else io.StringIO(text)
        if case in CHUNK_ERRORS:
            with pytest.raises(EdgeListError, match=CHUNK_ERRORS[case]):
                load_edge_list(source)
            continue
        want = reference_load_edge_list(io.StringIO(text.removeprefix("\ufeff")))
        _assert_same_graph(load_edge_list(source), want)


@pytest.mark.parametrize("chunk_bytes", [1, 5, 11])
def test_ground_truth_errors_in_the_last_chunk_name_their_line(chunk_bytes, monkeypatch):
    monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk_bytes)
    g = load_edge_list(io.StringIO("".join(f"{i} {i + 1}\n" for i in range(9))))
    lines = "".join(f"{i} {i % 2}\r\n" for i in range(10))
    assert load_ground_truth(io.StringIO(lines), g).tolist() == [0, 1] * 5
    with pytest.raises(EdgeListError, match="^line 11: expected 'node community', got 3"):
        load_ground_truth(io.StringIO(lines + "3 0 1\r\n"), g)
    with pytest.raises(EdgeListError, match="^line 11: unknown node label 99"):
        load_ground_truth(io.StringIO(lines + "99 0\r\n"), g)


def _traced(read, *args):
    """What read returns, the peak of memory it allocated, and what it still holds."""
    tracemalloc.start()
    try:
        out = read(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


def test_loader_peak_memory_is_bounded_by_its_result(tmp_path):
    spec = PlantedPartitionSpec(n=20_000, k=10, p_in=12 / 1_999, p_out=3 / 18_000, seed=1)
    graph, _ = generate_planted_partition(spec)
    path = tmp_path / "edges.txt"
    path.write_text(write_edge_list(graph))
    loaded, peak, kept = _traced(load_edge_list, path)
    assert loaded.content_hash() == graph.content_hash()
    assert peak <= 3 * kept, f"peak {peak / 1e6:.1f} MB to keep {kept / 1e6:.1f} MB"


def _label_edges(g, label):
    """Each edge of g once, as the sorted pair of label() of its two node labels."""
    labels = [label(lab) for lab in g.node_labels]
    return sorted(tuple(sorted((labels[i], labels[j]))) for i, j in g.edges())


def test_loader_peak_memory_is_bounded_with_text_labels(tmp_path):
    # labels that are not numerals are interned a chunk at a time, not read whole
    spec = PlantedPartitionSpec(n=20_000, k=10, p_in=12 / 1_999, p_out=3 / 18_000, seed=1)
    graph, _ = generate_planted_partition(spec)
    path = tmp_path / "edges.txt"
    path.write_text(re.sub(r"(?m)^(\d+) (\d+)$", r"v\1 v\2", write_edge_list(graph)))
    loaded, peak, kept = _traced(load_edge_list, path)
    assert (loaded.n, loaded.m) == (graph.n, graph.m)
    assert _label_edges(loaded, lambda lab: int(lab[1:])) == _label_edges(graph, int)
    assert peak <= 3 * kept, f"peak {peak / 1e6:.1f} MB to keep {kept / 1e6:.1f} MB"
