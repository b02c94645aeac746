import pytest
from hypothesis import given, settings, strategies as st

from autotree.graphs import Coloring, Graph, apply_permutation, unit_coloring

import oracle


@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << bits) - 1)) if bits else 0
    return oracle.graph_from_mask(n, mask)


def test_guards():
    big = Graph(9, [])
    with pytest.raises(ValueError):
        oracle.brute_canon(big)
    with pytest.raises(ValueError):
        oracle.brute_aut(big)
    with pytest.raises(ValueError):
        list(oracle.enumerate_graphs(7))
    with pytest.raises(ValueError):
        oracle.brute_canon_class_map(7)


def test_known_group_orders(hub_graph):
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracle.brute_group_order(c4) == 8
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert oracle.brute_group_order(k4) == 24
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert oracle.brute_group_order(p3) == 2
    assert oracle.brute_group_order(hub_graph) == 48
    # two disjoint triangles: swap them and rotate each
    two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert oracle.brute_group_order(two_k3) == 72


def test_hub_orbits(hub_graph):
    assert oracle.brute_orbits(hub_graph) == [[0, 1, 2, 3], [4, 5, 6], [7]]


def test_colored_automorphisms_respect_cells():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    pinned = Coloring([[0], [1, 2, 3]])
    auts = oracle.brute_aut(c4, pinned)
    assert all(g[0] == 0 for g in auts)
    assert len(auts) == 2


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_brute_aut_are_automorphisms_and_closed(g, rnd):
    auts = oracle.brute_aut(g)
    assert list(range(g.n)) in auts
    edge_set = set(g.edges())
    for gamma in auts:
        for u, v in edge_set:
            a, b = gamma[u], gamma[v]
            assert ((a, b) if a < b else (b, a)) in edge_set
    if len(auts) > 1 and g.n:
        a = rnd.choice(auts)
        b = rnd.choice(auts)
        composed = [a[b[v]] for v in range(g.n)]
        assert composed in auts


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_brute_canon_invariant_under_relabeling(g, rnd):
    gamma = oracle.random_permutation(rnd, g.n)
    h = apply_permutation(g, gamma)
    assert oracle.brute_canon(g) == oracle.brute_canon(h)


def test_brute_canon_distinguishes():
    p3 = Graph(3, [(0, 1), (1, 2)])
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert oracle.brute_canon(p3) != oracle.brute_canon(k3)


def test_brute_canon_color_sensitivity():
    g = Graph(2, [])
    a = oracle.brute_canon(g, Coloring([[0], [1]]))
    b = oracle.brute_canon(g, Coloring([[0, 1]]))
    assert a.vertex_labels != b.vertex_labels


def test_brute_ssm_hub(hub_graph):
    assert oracle.brute_ssm(hub_graph, {0}) == {
        frozenset([0]), frozenset([1]), frozenset([2]), frozenset([3])}
    assert oracle.brute_ssm(hub_graph, {7}) == {frozenset([7])}
    assert len(oracle.brute_ssm(hub_graph, {0, 4})) == 12
    assert frozenset([0, 4]) in oracle.brute_ssm(hub_graph, {0, 4})


def test_brute_ssm_rejects_bad_vertex(hub_graph):
    with pytest.raises(ValueError):
        oracle.brute_ssm(hub_graph, {99})


def test_enumerate_graphs_counts():
    assert sum(1 for _ in oracle.enumerate_graphs(3)) == 8
    assert sum(1 for _ in oracle.enumerate_graphs(4)) == 64


def test_mask_round_trip():
    for mask in range(64):
        g = oracle.graph_from_mask(4, mask)
        assert oracle.mask_from_graph(g) == mask


def test_sampled_graphs_deterministic():
    a = [oracle.mask_from_graph(g) for g in oracle.sampled_graphs(7, 5, seed=11)]
    b = [oracle.mask_from_graph(g) for g in oracle.sampled_graphs(7, 5, seed=11)]
    assert a == b and len(a) == 5


def test_class_counts_small_n():
    # labeled-graph isomorphism class counts for n = 1..5
    assert len(set(oracle.brute_canon_class_map(1).values())) == 1
    assert len(set(oracle.brute_canon_class_map(2).values())) == 2
    assert len(set(oracle.brute_canon_class_map(3).values())) == 4
    assert len(set(oracle.brute_canon_class_map(4).values())) == 11
    assert len(set(oracle.brute_canon_class_map(5).values())) == 34


def test_class_map_matches_per_graph_canon():
    cmap = oracle.brute_canon_class_map(4)
    for mask in range(64):
        g = oracle.graph_from_mask(4, mask)
        assert oracle.brute_canon(g).edges == cmap[mask]


def test_random_graph_density():
    import random

    rng = random.Random(0)
    g = oracle.random_graph(rng, 30, 0.0)
    assert g.m == 0
    g = oracle.random_graph(rng, 30, 1.0)
    assert g.m == 30 * 29 // 2
