from hypothesis import given, settings, strategies as st

from autotree.graphs import Coloring, Graph, apply_permutation, unit_coloring
from oracle import graph_from_mask, random_permutation
from autotree.refine import individualize, is_equitable, project, refine, refine_cells


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << bits) - 1)) if bits else 0
    return graph_from_mask(n, mask)


def test_refine_hub(hub_graph):
    got = refine(hub_graph, unit_coloring(8))
    assert got.cells == ((0, 1, 2, 3, 4, 5, 6), (7,))
    assert got.position(0) == 0 and got.position(7) == 7


def test_refine_hub_after_individualization(hub_graph):
    cells, at = individualize([list(range(7)), [7]], 0)
    assert cells == [[1, 2, 3, 4, 5, 6], [0], [7]]
    out = refine_cells(hub_graph.adj, cells, active=[at])
    assert out == ((4, 5, 6), (2,), (1, 3), (0,), (7,))


def test_refine_splits_by_degree():
    # path on four vertices: endpoints and midpoints separate
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    got = refine(g, unit_coloring(4))
    assert got.cells == ((0, 3), (1, 2))


def test_refine_regular_graph_stays_unit():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    got = refine(g, unit_coloring(6))
    assert got.cells == ((0, 1, 2, 3, 4, 5),)


def test_refine_keeps_input_cells_apart():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    got = refine(g, Coloring([[0, 2], [1, 3]]))
    assert got.cells == ((0, 2), (1, 3))


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_refine_is_equitable_and_coarser(g, rnd):
    pi = unit_coloring(g.n)
    out = refine(g, pi)
    assert is_equitable(g, out)
    # every refined cell sits inside one input cell
    for cell in out.cells:
        assert set(cell) <= set(range(g.n))
    assert sorted(v for c in out.cells for v in c) == list(range(g.n))


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=7), st.randoms(use_true_random=False))
def test_refine_equivariance(g, rnd):
    if g.n == 0:
        return
    gamma = random_permutation(rnd, g.n)
    h = apply_permutation(g, gamma)
    ours = refine(g, unit_coloring(g.n)).apply(gamma)
    theirs = refine(h, unit_coloring(h.n))
    assert ours.cells == theirs.cells


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7), st.randoms(use_true_random=False))
def test_individualize_then_refine_keeps_singleton(g, rnd):
    base = refine(g, unit_coloring(g.n))
    targets = [c for c in base.cells if len(c) > 1]
    if not targets:
        return
    v = targets[0][0]
    cells, at = individualize([list(c) for c in base.cells], v)
    out = refine_cells(g.adj, cells, active=[at])
    assert (v,) in out
    assert is_equitable(g, Coloring(out))


def test_refine_idempotent(hub_graph):
    once = refine(hub_graph, unit_coloring(8))
    twice = refine(hub_graph, once)
    assert once.cells == twice.cells


def test_is_equitable_counterexample():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_equitable(g, unit_coloring(4))
    assert is_equitable(g, Coloring([[0, 3], [1, 2]]))


def test_project_keeps_global_positions(hub_graph):
    pi = refine(hub_graph, unit_coloring(8))
    sub = project(pi, [4, 5, 6])
    assert sub.cells == ((4, 5, 6),)
    assert sub.global_pos[4] == 0
    assert sub.position(4) == 0
    sub2 = project(pi, [7, 2])
    assert sub2.cells == ((2,), (7,))
    assert sub2.global_pos[7] == 7
    # local positions restart on the restricted carrier
    assert sub2.position(7) == 1


def test_project_drops_empty_cells():
    pi = Coloring([[0, 1], [2], [3, 4]])
    sub = project(pi, [3, 4])
    assert sub.cells == ((3, 4),)
    assert sub.global_pos[3] == 3


def test_project_drops_vertices_outside_the_coloring():
    pi = Coloring([[0, 1], [2], [3, 4]])
    sub = project(pi, [4, 9, 1, 7, 4])
    assert sub.cells == ((1,), (4,))
    assert sub.global_pos == {1: 0, 4: 3}
    assert project(pi, [5, 6]).cells == ()


def test_project_never_walks_the_source_cells(hub_graph, unwalkable):
    pi = refine(hub_graph, unit_coloring(8))
    expected = project(pi, [7, 2, 4])
    pi.cells = unwalkable
    sub = project(pi, [7, 2, 4])
    assert sub.cells == expected.cells == ((2, 4), (7,))
    assert sub.global_pos == expected.global_pos
