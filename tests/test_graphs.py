"""Edge-list parsing, component extraction, and ground-truth alignment."""

import io
import re

import numpy as np
import pytest

from conftest import BARBELL_EDGES
from oracles import (dense_adjacency, make_graph, random_connected_graph,
                     reference_load_edge_list)
from spherembed import (EdgeListError, PlantedPartitionSpec, generate_planted_partition,
                        largest_connected_component, load_edge_list, load_ground_truth,
                        write_edge_list)


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
    assert list(barbell.neighbors(2)) == [0, 1, 3]
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


def test_write_edge_list_round_trip(rng):
    g = random_connected_graph(rng, 11, extra_edges=6)
    back = load_edge_list(io.StringIO(write_edge_list(g)))
    assert back.node_labels == g.node_labels
    assert list(back.edges()) == list(g.edges())


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


@pytest.mark.parametrize("text", [
    "0 1\n2\n", "0 1 2\n", "a,b,c\n", ",\n0 1\n", "0 1\n , \n", ",# 1\n",
    "# only a comment\n", "", "\r\n\r\n", "1 1\n2 2\n", "0 1\r\n\t# c\r\n x y z\r\n",
    "0 1\r2 3 4\r", "0 1\x1c2\n", "0\u20281\n", "0\xa01\n1 2\n", "0 1\v1 2\f2 0\n",
    "#a b\n  # c d\n1,2\n", "123456789012345678901 1\n1 2\n2 123456789012345678901\n",
    "999999999999999999 1\n1 2\n", "0 1\n1 2\n\n2 0\n3 3\n",
    "0\u20031\u20281\xa02\x852\u30000\n", "a\u2029b\u205fc d\n", "0 1\r\x852 3 4\n",
    "é 1\n1\u202f2\n", "0 1\x1f\n1\t2\x1d# x\n",
])
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


@pytest.mark.parametrize("make, digest", [
    (lambda: make_graph(BARBELL_EDGES), "687e8c5e4f0424b7"),
    (lambda: make_graph([(0, 1)]), "c1d772afaa241014"),
    (lambda: load_edge_list(io.StringIO("b a\nc b\na c\nc d\n")), "05a5bb7ebd3c81d5"),
    (lambda: random_connected_graph(np.random.default_rng(7), 40, extra_edges=30),
     "19e958c2d5b82d58"),
    (lambda: generate_planted_partition(
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
