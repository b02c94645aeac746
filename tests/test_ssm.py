"""Tests for symmetric subgraph matching against the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from autotree.graphs import Graph, apply_permutation
from oracle import (
    brute_aut,
    brute_group_order,
    brute_ssm,
    enumerate_graphs,
    random_graph,
    sampled_graphs,
)
from autotree.ssm import images_within, sm_leaf, ssm, ssm_with_witnesses
from autotree.tree import NON_SINGLETON_LEAF, build

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def sets(groups):
    return {frozenset(g) for g in groups}


def find_leaf(at, vertices):
    for node in at.root.walk():
        if node.kind == NON_SINGLETON_LEAF and node.vertices == vertices:
            return node
    raise AssertionError("no such leaf")


def test_hub_triangle_edge_has_three_images(hub_graph):
    at = build(hub_graph, reduce=False)
    assert ssm(hub_graph, {4, 5}, at) == sets([{4, 5}, {5, 6}, {4, 6}])


def test_hub_cross_query_matches_oracle(hub_graph):
    at = build(hub_graph, reduce=False)
    result = ssm(hub_graph, {0, 4}, at)
    assert result == brute_ssm(hub_graph, {0, 4})
    assert len(result) == 12


def test_whole_vertex_set_maps_only_to_itself(hub_graph):
    at = build(hub_graph, reduce=False)
    assert ssm(hub_graph, range(8), at) == {frozenset(range(8))}
    at4 = build(K4, reduce=False)
    assert ssm(K4, {0, 1, 2, 3}, at4) == {frozenset(range(4))}


def test_disconnected_query_spans_components():
    g = Graph(4, [(0, 1), (2, 3)])
    at = build(g, reduce=False)
    result = ssm(g, {0, 2}, at)
    assert result == brute_ssm(g, {0, 2})
    assert len(result) == 4


def test_mirror_fixture_images(mirror_graph):
    at = build(mirror_graph, reduce=False)
    result = ssm(mirror_graph, {1, 2, 5}, at)
    assert result == brute_ssm(mirror_graph, {1, 2, 5}, limit=13)
    assert len(result) == 12
    assert frozenset({7, 8, 9}) in result
    assert frozenset({9, 11, 12}) in result


def test_sm_leaf_square_edge(hub_graph):
    at = build(hub_graph, reduce=False)
    leaf = find_leaf(at, (0, 1, 2, 3))
    colors = {v: leaf.coloring.global_pos[v] for v in leaf.vertices}
    found = sm_leaf(leaf.graph, {0, 1}, colors, leaf.leaf_generators)
    assert found == sets([{0, 1}, {1, 2}, {2, 3}, {0, 3}])


def test_sm_leaf_whole_part_is_identity(hub_graph):
    at = build(hub_graph, reduce=False)
    leaf = find_leaf(at, (0, 1, 2, 3))
    colors = {v: leaf.coloring.global_pos[v] for v in leaf.vertices}
    found = sm_leaf(leaf.graph, {0, 1, 2, 3}, colors, leaf.leaf_generators)
    assert found == {frozenset({0, 1, 2, 3})}


def test_sm_leaf_unknown_vertex_matches_nothing(hub_graph):
    at = build(hub_graph, reduce=False)
    leaf = find_leaf(at, (0, 1, 2, 3))
    colors = {v: leaf.coloring.global_pos[v] for v in leaf.vertices}
    assert sm_leaf(leaf.graph, {99}, colors, leaf.leaf_generators) == set()


def test_reduced_tree_is_rejected(hub_graph):
    at = build(hub_graph, reduce=True)
    with pytest.raises(ValueError):
        ssm(hub_graph, {4, 5}, at)


def test_bad_queries_are_rejected(hub_graph):
    at = build(hub_graph, reduce=False)
    with pytest.raises(ValueError):
        ssm(hub_graph, [], at)
    with pytest.raises(ValueError):
        ssm(hub_graph, {8}, at)
    with pytest.raises(ValueError):
        ssm(hub_graph, {-1}, at)


def test_mismatched_graph_is_rejected(hub_graph):
    at = build(K4, reduce=False)
    with pytest.raises(ValueError):
        ssm(hub_graph, {0}, at)


def test_witness_mode_agrees_and_verifies(hub_graph):
    at = build(hub_graph, reduce=False)
    gens = brute_aut(hub_graph)
    witnesses = ssm_with_witnesses(hub_graph, [0, 4], at, gens)
    assert set(witnesses) == ssm(hub_graph, {0, 4}, at)
    for image, gamma in witnesses.items():
        assert {gamma[v] for v in (0, 4)} == image
        assert apply_permutation(hub_graph, gamma).adj == hub_graph.adj


def test_images_within_empty_slice_is_neutral(hub_graph):
    at = build(hub_graph, reduce=False)
    assert images_within(at.root, frozenset()) == {frozenset(): {}}


def exhaustive_queries(n):
    single = [{v} for v in range(n)]
    pairs = [{u, v} for u in range(n) for v in range(u + 1, n)]
    return single + pairs


def test_matches_oracle_on_all_four_vertex_graphs():
    for g in enumerate_graphs(4):
        at = build(g, reduce=False)
        for q in exhaustive_queries(4):
            assert ssm(g, q, at) == brute_ssm(g, q), (g.edges(), q)


def test_matches_oracle_on_sampled_graphs():
    rng = random.Random(4021)
    for n in (5, 6, 7):
        for g in sampled_graphs(n, 40, seed=900 + n):
            at = build(g, reduce=False)
            for _ in range(4):
                size = rng.randint(1, 3)
                q = set(rng.sample(range(n), size))
                assert ssm(g, q, at) == brute_ssm(g, q), (g.edges(), q)


def test_result_count_never_exceeds_group_order():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        at = build(g, reduce=False)
        q = set(rng.sample(range(n), rng.randint(1, n)))
        result = ssm(g, q, at)
        assert frozenset(q) in result
        assert len(result) <= brute_group_order(g)


@st.composite
def graph_and_query(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    q = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                      min_size=1, max_size=3, unique=True))
    return Graph(n, edges), set(q)


@settings(max_examples=120, deadline=None)
@given(graph_and_query())
def test_matches_oracle_property(case):
    g, q = case
    at = build(g, reduce=False)
    assert ssm(g, q, at) == brute_ssm(g, q)
