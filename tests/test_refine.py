import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from autotree.graphs import Coloring, Graph, apply_permutation, unit_coloring
from oracle import (bench_inputs, graph_from_mask, is_equitable,
                    permute_coloring, random_permutation,
                    reference_refine_cells, refine)
from autotree.refine import individualize, project, refine_cells


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
    ours = permute_coloring(refine(g, unit_coloring(g.n)), gamma)
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


@st.composite
def partitioned_graphs(draw, max_n=40):
    """A random graph on up to max_n vertices, a random ordered partition of
    them, and an active list: None, [] or distinct cell indices in random
    order. Some draws spread the vertex ids out and pass a dict adjacency,
    as the tree does for a carrier inside a larger graph."""
    n = draw(st.integers(0, max_n))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    density = rnd.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rnd.random() < density]
    adj = Graph(n, edges).adj
    shuffled = list(range(n))
    rnd.shuffle(shuffled)
    k = rnd.randint(1, n) if n else 0
    cuts = [0] + sorted(rnd.sample(range(1, n), k - 1)) + [n] if n else [0]
    cells = [shuffled[a:b] for a, b in zip(cuts, cuts[1:])]
    if draw(st.booleans()):
        ids = [3 * v + 7 for v in range(n)]
        adj = {ids[v]: [ids[u] for u in adj[v]] for v in range(n)}
        cells = [[ids[v] for v in cell] for cell in cells]
    active = draw(st.sampled_from(["all", "none", "some"]))
    if active == "all":
        active = None
    elif active == "none":
        active = []
    else:
        active = rnd.sample(range(k), rnd.randint(0, k))
    return adj, cells, active


@settings(max_examples=400, deadline=None)
@given(partitioned_graphs())
def test_refine_cells_matches_reference(case):
    adj, cells, active = case
    got = refine_cells(adj, [list(c) for c in cells], active)
    assert got == reference_refine_cells(adj, [list(c) for c in cells], active)


def _bench_family_graphs():
    inputs = bench_inputs()
    rng = random.Random("refine-families")
    for n, edges in (inputs.random_cubic(rng, 30), inputs.paley(13),
                     inputs.hypercube(4)):
        yield Graph(n, inputs.relabel(rng, n, edges))


@pytest.mark.parametrize("g", list(_bench_family_graphs()),
                         ids=["cubic30", "paley13", "q4"])
def test_refine_cells_matches_reference_on_bench_families(g):
    # Two levels of the IR search: individualize each vertex of the first
    # non-singleton cell, refine from the new singleton, and do the same
    # again on each result.
    level = [refine_cells(g.adj, unit_coloring(g.n).cells)]
    calls = 0
    for _ in range(2):
        nxt = []
        for cells in level:
            target = next((c for c in cells if len(c) > 1), ())
            for v in target:
                child, at = individualize(cells, v)
                got = refine_cells(g.adj, child, active=[at])
                assert got == reference_refine_cells(g.adj, child, active=[at])
                calls += 1
                nxt.append(got)
        level = nxt
    assert calls >= g.n


def test_refine_cells_is_near_linear_on_a_path():
    # P_20000 with endpoint 0 individualized: every split step peels one
    # vertex off the long cell. A step that walks the cells it touches, or
    # the whole cell order, makes this quadratic.
    n = 20000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    start = time.process_time()
    out = refine_cells(g.adj, [list(range(1, n)), [0]], active=[1])
    elapsed = time.process_time() - start
    assert out == tuple((v,) for v in range(n - 1, 0, -1)) + ((0,),)
    assert elapsed < 2.0


def test_refine_cells_rejects_a_vertex_in_two_cells():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="vertex 1 "):
        refine_cells(g.adj, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="vertex 2 "):
        refine_cells(g.adj, [[0, 1, 2, 2]])


def test_refine_cells_rejects_active_outside_the_cells():
    g = Graph(3, [(0, 1), (1, 2)])
    for bad in (2, -1):
        with pytest.raises(ValueError, match="index %d " % bad):
            refine_cells(g.adj, [[0, 2], [1]], active=[0, bad])


def test_refine_cells_rejects_an_empty_cell():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="empty cell at index 1"):
        refine_cells(g.adj, [[0, 2], [], [1]])


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
