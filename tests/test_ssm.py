"""Tests for symmetric subgraph matching against the brute-force oracle."""

import importlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from autotree.automorphisms import count_set_images, generators
from autotree.cli import main
from autotree.graphs import (CanonicalForm, Coloring, Graph,
                             InternalConsistencyError, apply_permutation)
from autotree.group import set_orbit
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
    found = sm_leaf(leaf, {0, 1})
    assert set(found) == sets([{0, 1}, {1, 2}, {2, 3}, {0, 3}])
    for image, witness in found.items():
        assert sorted(witness) == [0, 1]
        assert frozenset(witness.values()) == image


def test_sm_leaf_whole_part_is_identity(hub_graph):
    at = build(hub_graph, reduce=False)
    leaf = find_leaf(at, (0, 1, 2, 3))
    found = sm_leaf(leaf, {0, 1, 2, 3})
    assert set(found) == {frozenset({0, 1, 2, 3})}


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


def test_witness_must_map_the_query_onto_its_image(hub_graph, monkeypatch,
                                                  capsys, tmp_path):
    # {5, 6} is a true image of {4, 5}, but its witness is the identity on
    # the query: a valid partial isomorphism whose values are not the image.
    def misfiled(node, q):
        return {q: {v: v for v in q}, frozenset({5, 6}): {4: 4, 5: 5}}

    # The package exports the function ssm under the module's name.
    module = importlib.import_module("autotree.ssm")
    monkeypatch.setattr(module, "images_within", misfiled)
    at = build(hub_graph, reduce=False)
    with pytest.raises(InternalConsistencyError):
        ssm(hub_graph, {4, 5}, at)
    query = tmp_path / "query.txt"
    query.write_text("4 5\n")
    assert main(["ssm", "tests/data/hub.el", str(query)]) == 3
    assert "internal consistency error" in capsys.readouterr().err


def test_star_run_with_many_parts_of_one_family():
    star = Graph(25, [(0, v) for v in range(1, 25)])
    at = build(star, reduce=False)
    result = ssm(star, {1, 2, 3, 4}, at)
    assert len(result) == math.comb(24, 4) == 10626
    assert len(result) == count_set_images(at, {1, 2, 3, 4})
    assert all(0 not in image for image in result)


def test_hypercube_leaf_query_is_its_set_orbit():
    q5 = Graph(32, [(v, v ^ (1 << b)) for v in range(32) for b in range(5)
                    if v < v ^ (1 << b)])
    at = build(q5, reduce=False)
    q = {0, 3, 5, 6, 9}
    result = ssm(q5, q, at)
    assert len(result) == 640
    assert result == set(set_orbit(q, generators(at), ()))
    assert len(result) == count_set_images(at, q)


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


class IndexOnly(list):
    """A child list that may be indexed but not walked."""

    def __iter__(self):
        raise AssertionError("walked every child of a node")


def test_query_visits_only_the_runs_it_touches(monkeypatch):
    # 10,000 isolated vertices, each its own color: the root has 10,000
    # children, each alone in its run.
    n = 10000
    g = Graph(n, [])
    at = build(g, Coloring([[v] for v in range(n)]), reduce=False)
    assert len(at.root.children) == n
    assert ssm(g, {n - 1}, at) == {frozenset({n - 1})}
    # stats is computed on first read, by a walk of every node: read it
    # before the children are made unwalkable.
    assert at.stats["depth"] == 1

    at.root.children = IndexOnly(at.root.children)
    key_reads = []
    key = CanonicalForm.key
    monkeypatch.setattr(CanonicalForm, "key", property(
        lambda form: key_reads.append(form) or key.fget(form)))
    module = importlib.import_module("autotree.ssm")
    calls = []

    def counted(node, q, images_within=module.images_within):
        calls.append(node)
        return images_within(node, q)

    monkeypatch.setattr(module, "images_within", counted)
    q = {0}
    assert ssm(g, q, at) == {frozenset(q)}
    assert key_reads == []
    assert len(calls) <= len(q) * (at.stats["depth"] + 1)


@st.composite
def colored_graph_and_query(draw):
    """A colored graph on 9-40 vertices, either G(n, p) or equally colored
    copies of a small random graph hung off a hub (so that runs of equal
    siblings occur), plus a query of 1-4 vertices."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=9, max_value=40))
    colors = rnd.randint(1, 3)
    color_of = [rnd.randrange(colors) for _ in range(n)]
    if draw(st.booleans()):
        g = random_graph(rnd, n, rnd.choice([0.1, 0.2, 0.4, 0.7]))
    else:
        size = rnd.randint(2, 6)
        copies = min(rnd.randint(2, 6), (n - 1) // size)
        piece = random_graph(rnd, size, 0.5).edges()
        edges = [(c * size + u, c * size + v) for c in range(copies)
                 for u, v in piece]
        hub = copies * size
        edges += [(c * size, hub) for c in range(copies)]
        edges += [(u, v) for u in range(hub + 1, n) for v in range(u + 1, n)
                  if rnd.random() < 0.3]
        g = Graph(n, edges)
        color_of[:hub] = color_of[:size] * copies
    cells = [[v for v in range(n) if color_of[v] == c] for c in range(colors)]
    coloring = Coloring([cell for cell in cells if cell])
    q = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                      min_size=1, max_size=4, unique=True))
    return g, coloring, set(q)


@settings(max_examples=80, deadline=None)
@given(colored_graph_and_query())
def test_matches_generator_closure_beyond_the_oracle(case):
    g, coloring, q = case
    at = build(g, coloring, reduce=False)
    result = ssm(g, q, at)
    assert result == set(set_orbit(q, generators(at), range(g.n)))
    assert count_set_images(at, q) == len(result)
