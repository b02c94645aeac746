"""Tests for automorphism extraction: generators, orbits, group order, and
set-image counting, all checked against the brute-force oracle."""

import random

import pytest

import autotree.cli
from autotree.automorphisms import (
    are_automorphic,
    count_set_images,
    generators,
    group_order,
    orbits,
)
from autotree.graphs import (Coloring, Graph, InternalConsistencyError,
                             apply_permutation)
from oracle import (
    brute_group_order,
    brute_orbits,
    brute_ssm,
    enumerate_graphs,
    random_graph,
    sampled_graphs,
)
from autotree.tree import NON_SINGLETON_LEAF, build

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
ASYMMETRIC = Graph(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
TWO_SQUARES = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                        (4, 5), (5, 6), (6, 7), (4, 7)])
TWO_PATHS = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])


def test_hub_group_order_and_orbits(hub_graph):
    at = build(hub_graph, reduce=False)
    assert group_order(at) == 48
    assert orbits(generators(at), 8) == [[0, 1, 2, 3], [4, 5, 6], [7]]


def test_generators_are_automorphisms(hub_graph):
    at = build(hub_graph, reduce=False)
    gens = generators(at)
    assert gens
    for gamma in gens:
        assert sorted(gamma) == list(range(8))
        assert apply_permutation(hub_graph, gamma).adj == hub_graph.adj


def test_generators_are_deterministic(hub_graph):
    first = generators(build(hub_graph, reduce=False))
    second = generators(build(hub_graph, reduce=False))
    assert first == second


def _first_leaf(at):
    return next(node for node in at.nodes() if node.kind == NON_SINGLETON_LEAF)


def _leaf_breaking_an_edge(graph, coloring=None, reduce=False):
    # The hub's leaf is the 4-cycle 0-1-2-3 in one cell. Swapping 0 and 1
    # keeps colors but sends the edge 1-2 onto the non-edge 0-2.
    at = build(graph, coloring, reduce=reduce)
    _first_leaf(at).leaf_generators.append({0: 1, 1: 0, 2: 2, 3: 3})
    return at


def test_tampered_leaf_generator_breaking_an_edge_is_caught(hub_graph):
    with pytest.raises(InternalConsistencyError,
                       match="leaf generator breaks an edge"):
        generators(_leaf_breaking_an_edge(hub_graph))


def test_tampered_leaf_generator_moving_across_colors_is_caught():
    # Swapping the two squares maps the graph onto itself but moves every
    # vertex into the other square's cell; only the color check sees it.
    at = build(TWO_SQUARES, Coloring([[0, 1, 2, 3], [4, 5, 6, 7]]),
               reduce=False)
    swap = {v: (v + 4) % 8 for v in range(8)}
    assert (apply_permutation(TWO_SQUARES, [swap[v] for v in range(8)])
            == TWO_SQUARES)
    _first_leaf(at).leaf_generators.append(swap)
    with pytest.raises(InternalConsistencyError,
                       match="leaf generator moves a vertex across colors"):
        generators(at)


def test_tampered_sibling_swap_is_caught():
    # Exchanging the labels of an end and the middle of the second path
    # makes the root's sibling swap send a middle vertex onto an end.
    at = build(TWO_PATHS, reduce=False)
    second = at.root.children[1]
    end, middle = 3, 4
    assert set(second.vertices) == {3, 4, 5}
    second.gamma[end], second.gamma[middle] = (second.gamma[middle],
                                               second.gamma[end])
    with pytest.raises(InternalConsistencyError,
                       match="sibling swap breaks an edge"):
        generators(at)


def test_cli_auto_exits_3_on_a_tampered_tree(monkeypatch, capsys):
    monkeypatch.setattr(autotree.cli, "build", _leaf_breaking_an_edge)
    assert autotree.cli.main(["auto", "tests/data/hub.el"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("internal consistency error: leaf generator breaks an edge"
            in captured.err)


def test_hub_set_image_counts(hub_graph):
    at = build(hub_graph, reduce=False)
    assert count_set_images(at, {7}) == 1
    assert count_set_images(at, {4}) == 3
    assert count_set_images(at, {0, 4}) == 12
    assert count_set_images(at, set()) == 1


def test_complete_graph_pair_count():
    at = build(K4, reduce=False)
    assert group_order(at) == 24
    assert count_set_images(at, {0, 1}) == 6


def test_disjoint_triangles_swap():
    at = build(TRIANGLES, reduce=False)
    assert group_order(at) == 72
    assert any(gamma[0] == 3 for gamma in generators(at))
    assert orbits(generators(at), 6) == [[0, 1, 2, 3, 4, 5]]


def test_asymmetric_graph_has_trivial_group():
    assert brute_group_order(ASYMMETRIC) == 1
    at = build(ASYMMETRIC, reduce=False)
    assert generators(at) == []
    assert group_order(at) == 1
    assert orbits(generators(at), 6) == [[v] for v in range(6)]


def test_are_automorphic(hub_graph):
    at = build(hub_graph, reduce=False)
    assert are_automorphic(at, 0, 2)
    assert are_automorphic(at, 7, 7)
    assert not are_automorphic(at, 0, 4)
    assert not are_automorphic(at, 4, 7)
    with pytest.raises(ValueError):
        are_automorphic(at, 0, 8)


def test_colored_build_respects_cells(hub_graph):
    pinned = Coloring([[0], [1, 2, 3, 4, 5, 6, 7]])
    at = build(hub_graph, pinned, reduce=False)
    assert group_order(at) == brute_group_order(hub_graph, pinned)
    for gamma in generators(at):
        assert gamma[0] == 0


def test_reduced_tree_is_rejected(hub_graph):
    at = build(hub_graph, reduce=True)
    assert at.reduced
    for call in (generators, group_order):
        with pytest.raises(ValueError):
            call(at)
    with pytest.raises(ValueError):
        count_set_images(at, {0})
    with pytest.raises(ValueError):
        are_automorphic(at, 0, 1)


def test_exact_on_all_small_graphs():
    for n in (1, 2, 3, 4, 5):
        for g in enumerate_graphs(n):
            at = build(g, reduce=False)
            assert group_order(at) == brute_group_order(g), g.edges()
            assert orbits(generators(at), n) == brute_orbits(g), g.edges()


def test_exact_on_sampled_graphs():
    for n in (6, 7):
        for g in sampled_graphs(n, 40, seed=300 + n):
            at = build(g, reduce=False)
            assert group_order(at) == brute_group_order(g), g.edges()
            assert orbits(generators(at), n) == brute_orbits(g), g.edges()


def test_exact_order_on_larger_random_graphs():
    rng = random.Random(505)
    for _ in range(30):
        n = rng.randint(8, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        at = build(g, reduce=False)
        assert group_order(at) == brute_group_order(g, limit=9), g.edges()


def test_set_image_counts_match_oracle():
    rng = random.Random(606)
    for n in (4, 5, 6):
        for g in sampled_graphs(n, 25, seed=40 + n):
            at = build(g, reduce=False)
            queries = [{v} for v in range(n)]
            queries += [{u, v} for u in range(n) for v in range(u + 1, n)]
            queries += [set(rng.sample(range(n), 3)) for _ in range(4)]
            for q in queries:
                assert count_set_images(at, q) == len(brute_ssm(g, q)), (
                    g.edges(), q)
