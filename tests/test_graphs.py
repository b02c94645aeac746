import pytest
from hypothesis import given, strategies as st

from autotree.graphs import (
    CanonicalForm,
    Coloring,
    Graph,
    ParseError,
    apply_permutation,
    format_cycles,
    form_of,
    load_dimacs,
    load_edge_list,
    load_graph,
    unit_coloring,
)
from oracle import (compose_permutations, degree, identity_permutation,
                    invert_permutation, is_unit, permute_coloring)


def test_graph_basics():
    g = Graph(4, [(0, 1), (3, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges() == [(0, 1), (1, 3), (2, 3)]
    assert g.adj[1] == (0, 3)
    assert g.has_edge(3, 2) and not g.has_edge(0, 2)
    assert degree(g, 3) == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0 and g.m == 0 and g.edges() == []
    assert unit_coloring(0).cells == ()


@given(st.integers(1, 7), st.randoms())
def test_apply_permutation_preserves_structure(n, rnd):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rnd.random() < 0.5]
    g = Graph(n, edges)
    gamma = list(range(n))
    rnd.shuffle(gamma)
    h = apply_permutation(g, gamma)
    assert h.m == g.m
    for u, v in g.edges():
        assert h.has_edge(gamma[u], gamma[v])
    back = apply_permutation(h, invert_permutation(gamma))
    assert back == g


def test_permutation_helpers():
    assert identity_permutation(3) == [0, 1, 2]
    p = [1, 2, 0]
    q = [0, 2, 1]
    assert compose_permutations(p, q) == [p[q[0]], p[q[1]], p[q[2]]]
    assert compose_permutations(p, invert_permutation(p)) == [0, 1, 2]


def test_format_cycles():
    assert format_cycles([0, 1, 2]) == "()"
    assert format_cycles([1, 0, 2]) == "(0,1)"
    assert format_cycles([0, 2, 3, 1]) == "(1,2,3)"
    assert format_cycles([1, 0, 3, 2]) == "(0,1)(2,3)"


def test_coloring_positions():
    c = Coloring([[2, 0], [1], [3, 4]])
    assert c.cells == ((0, 2), (1,), (3, 4))
    assert c.position(0) == 0 and c.position(2) == 0
    assert c.position(1) == 2
    assert c.position(3) == 3 and c.position(4) == 3
    assert c.cell_index(4) == 2
    assert not c.is_discrete()
    assert Coloring([[5], [9]]).is_discrete()


def test_coloring_rejects_overlap():
    with pytest.raises(ValueError):
        Coloring([[0, 1], [1, 2]])


def test_coloring_apply_permutation():
    c = Coloring([[0, 1], [2]])
    gamma = [2, 0, 1]
    assert permute_coloring(c, gamma).cells == ((0, 2), (1,))


def test_canonical_form_ordering():
    a = CanonicalForm([(0, 0), (1, 0)], [(0, 1)])
    b = CanonicalForm([(0, 0), (1, 0)], [])
    assert b < a
    c = CanonicalForm([(0, 0), (1, 0), (2, 0)], [])
    assert a < c or c < a
    assert a == CanonicalForm([(1, 0), (0, 0)], [(0, 1)])


def test_canonical_form_serialize():
    f = CanonicalForm([(0, 0), (1, 0), (2, 2)], [(0, 2), (0, 1)])
    assert f.serialize() == "3 2\n0 0 2\n0 1\n0 2\n"
    assert CanonicalForm([], []).serialize() == "0 0\n\n"


def test_form_of_orients_edges():
    f = form_of([(5, 9)], {5: 1, 9: 0}, {5: 0, 9: 0})
    assert f.edges == ((0, 1),)


def test_edge_list_parsing():
    g, c = load_edge_list("# comment\n5 9\n9 3 # trailing\n\n5 9\n3 3\n")
    # ids compact in order of first appearance: 5 -> 0, 9 -> 1, 3 -> 2
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert is_unit(c)


def test_edge_list_empty_input():
    g, c = load_edge_list("")
    assert g.n == 0 and g.m == 0


def test_edge_list_bad_line():
    with pytest.raises(ParseError):
        load_edge_list("1 2 3\n")


def test_dimacs_parsing():
    g, c = load_dimacs("c comment\np edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ne 1 3\nn 1 2\nn 3 2\n")
    assert g.n == 4 and g.m == 5
    assert c.cells == ((1, 3), (0, 2))


def test_dimacs_errors():
    with pytest.raises(ParseError):
        load_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        load_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        load_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(ParseError):
        load_dimacs("p edge 3 0\nq 1 2\n")
    with pytest.raises(ParseError):
        load_dimacs("")


@pytest.mark.parametrize("text, line", [
    ("p edge 2.5 0\n", 1),
    ("p edge 2 x\n", 1),
    ("p edge 2 1\ne 1 x\n", 2),
    ("c note\np edge 2 0\nn 2 x\n", 3),
    ("p edge -2 0\n", 1),
    ("p edge 2 -1\n", 1),
])
def test_dimacs_bad_numbers_name_the_line(text, line):
    with pytest.raises(ParseError, match="^line %d: " % line):
        load_dimacs(text)


def test_load_graph_picks_format_by_extension(tmp_path):
    p = tmp_path / "g.dimacs"
    p.write_text("p edge 2 1\ne 1 2\n")
    g, _ = load_graph(p)
    assert g.n == 2 and g.m == 1
    q = tmp_path / "g.el"
    q.write_text("0 1\n")
    g2, _ = load_graph(q)
    assert g2.n == 2 and g2.m == 1
    g3, _ = load_graph(p, fmt="dimacs")
    assert g3 == g
