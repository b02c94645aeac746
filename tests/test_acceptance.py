"""Acceptance gate: one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Each test is self-contained apart from the shared small-graph
corpus fixture.
"""

import os
import random
import subprocess
import sys
import time

import pytest

from autotree import build, canonical_form, generators, group_order, orbits
from autotree.graphs import Coloring, Graph, apply_permutation, load_edge_list
from oracle import (
    bench_inputs,
    brute_aut,
    brute_canon_class_map,
    brute_group_order,
    brute_orbits,
    enumerate_graphs,
    graph_from_mask,
    mask_from_graph,
    random_graph,
    random_permutation,
    sampled_graphs,
)
from autotree.ssm import ssm
from autotree.tree import INTERNAL, NON_SINGLETON_LEAF, SINGLETON_LEAF

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def corpus():
    """Every graph on up to 5 vertices plus at least 5,000 sampled graphs on
    6 and 7 vertices."""
    graphs = []
    for n in (1, 2, 3, 4, 5):
        graphs.extend(enumerate_graphs(n))
    graphs.extend(sampled_graphs(6, 2500, seed=61))
    graphs.extend(sampled_graphs(7, 2600, seed=71))
    return graphs


def tree_signature(node):
    kids = tuple(sorted(tree_signature(ch) for ch in node.children))
    return (node.kind, node.form.key, kids)


def removed_edges(descriptors):
    removed = set()
    for desc in descriptors:
        if desc[0] == "clique":
            cell = desc[1]
            removed.update((cell[i], cell[j]) for i in range(len(cell))
                           for j in range(i + 1, len(cell)))
        else:
            _, ci, cj = desc
            removed.update((min(u, w), max(u, w)) for u in ci for w in cj)
    return removed


def connected_queries(graph):
    """All vertex sets of size up to 3 whose induced subgraph is connected."""
    n = graph.n
    queries = [{v} for v in range(n)]
    queries += [{u, v} for u in range(n) for v in range(u + 1, n)
                if graph.has_edge(u, v)]
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                edges = (graph.has_edge(u, v) + graph.has_edge(u, w)
                         + graph.has_edge(v, w))
                if edges >= 2:
                    queries.append({u, v, w})
    return queries


def test_criterion_1_canonical_soundness():
    rng = random.Random(4242)
    start = time.monotonic()
    for i in range(1000):
        n = rng.randint(2, 64)
        g = random_graph(rng, n, (0.05, 0.2, 0.5)[i % 3])
        gamma = random_permutation(rng, n)
        relabeled = apply_permutation(g, gamma)
        assert canonical_form(g) == canonical_form(relabeled), (
            g.edges(), gamma)
    assert time.monotonic() - start < 60.0


def test_criterion_2_completeness_on_six_vertices():
    start = time.monotonic()
    oracle_classes = {}
    for mask, canon_edges in brute_canon_class_map(6).items():
        oracle_classes.setdefault(canon_edges, set()).add(mask)
    assert len(oracle_classes) == 156
    form_classes = {}
    for mask in range(1 << 15):
        key = build(graph_from_mask(6, mask)).root_form().key
        form_classes.setdefault(key, set()).add(mask)
    assert len(form_classes) == 156
    assert (set(map(frozenset, form_classes.values()))
            == set(map(frozenset, oracle_classes.values())))
    assert time.monotonic() - start < 300.0


def test_criterion_3_orbit_and_group_exactness(corpus):
    sampled = sum(1 for g in corpus if g.n > 5)
    assert sampled >= 5000
    for g in corpus:
        at = build(g, reduce=False)
        assert orbits(generators(at), g.n) == brute_orbits(g), g.edges()
        assert group_order(at) == brute_group_order(g), g.edges()


def test_criterion_4_edge_removal_safety(corpus):
    checked = 0
    for g in corpus:
        at = build(g, reduce=False)
        for node in at.nodes():
            if node.axis is None or node.axis[0] != "divide_s":
                continue
            idx = {v: i for i, v in enumerate(node.vertices)}
            cells = [[idx[v] for v in cell] for cell in node.coloring.cells]
            coloring = Coloring(cells)
            before = Graph(len(idx),
                           [(idx[u], idx[v]) for u, v in node.graph.edges()])
            removed = removed_edges(node.axis[1])
            after = Graph(len(idx),
                          [(idx[u], idx[v]) for u, v in node.graph.edges()
                           if (u, v) not in removed])
            assert (sorted(brute_aut(before, coloring))
                    == sorted(brute_aut(after, coloring))), g.edges()
            checked += 1
    assert checked > 0


def test_criterion_5_tree_structure_invariance():
    rng = random.Random(3131)
    for _ in range(500):
        n = rng.randint(2, 32)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5)))
        gamma = random_permutation(rng, n)
        h = apply_permutation(g, gamma)
        for flag in (False, True):
            a = build(g, reduce=flag)
            b = build(h, reduce=flag)
            assert tree_signature(a.root) == tree_signature(b.root), (
                g.edges(), gamma, flag)


def test_criterion_6_worked_example(hub_graph):
    at = build(hub_graph, reduce=False)
    root = at.root
    assert [ch.vertices for ch in root.children] == [(4, 5, 6), (0, 1, 2, 3),
                                                     (7,)]
    kinds = {ch.vertices: ch.kind for ch in root.children}
    assert kinds[(4, 5, 6)] == INTERNAL
    assert kinds[(0, 1, 2, 3)] == NON_SINGLETON_LEAF
    assert kinds[(7,)] == SINGLETON_LEAF
    triangle = root.children[0]
    assert [ch.kind for ch in triangle.children] == [SINGLETON_LEAF] * 3
    assert at.stats == {"nodes": 7, "singleton_leaves": 4,
                        "non_singleton_leaves": 1, "avg_leaf_size": 4.0,
                        "depth": 2}
    assert orbits(generators(at), 8) == [[0, 1, 2, 3], [4, 5, 6], [7]]
    assert group_order(at) == 48

    regrown = build(hub_graph, reduce=True)
    assert regrown.reduced
    assert regrown.stats == {"nodes": 11, "singleton_leaves": 8,
                             "non_singleton_leaves": 0, "avg_leaf_size": 0.0,
                             "depth": 2}
    by_verts = {ch.vertices: ch for ch in regrown.root.children}
    assert set(by_verts) == {(4, 5, 6), (0, 1, 2, 3), (7,)}
    square = by_verts[(0, 1, 2, 3)]
    assert square.kind == INTERNAL
    assert [ch.kind for ch in square.children] == [SINGLETON_LEAF] * 4

    partitions = []
    for flag in (False, True):
        classes = {}
        for n in (4, 5):
            for g in enumerate_graphs(n):
                key = (n, build(g, reduce=flag).root_form().key)
                classes.setdefault(key, set()).add((n, mask_from_graph(g)))
        for g in sampled_graphs(6, 300, seed=66):
            key = (6, build(g, reduce=flag).root_form().key)
            classes.setdefault(key, set()).add((6, mask_from_graph(g)))
        partitions.append(set(map(frozenset, classes.values())))
    assert partitions[0] == partitions[1]


def test_criterion_7_ssm_exactness(corpus, mirror_graph):
    for g in corpus:
        at = build(g, reduce=False)
        auts = brute_aut(g)
        for q in connected_queries(g):
            expected = {frozenset(gamma[v] for v in q) for gamma in auts}
            assert ssm(g, q, at) == expected, (g.edges(), q)

    at = build(mirror_graph, reduce=False)
    images = ssm(mirror_graph, {1, 2, 5}, at)
    assert frozenset({7, 8, 9}) in images
    assert frozenset({9, 11, 12}) in images
    # an image is {a, a+1, b} for an ordered pair (a, b) of distinct corners
    # of one triangle: 6 ordered pairs per triangle x 2 mirrored branches
    assert len(images) == 12, sorted(map(sorted, images))


def test_certificates_invariant_under_relabeling_at_scale():
    """Aim 3 above the oracle's reach: a 3,000-vertex heavy-tail graph keeps
    one certificate under relabeling, with and without reduction, and moving
    one edge changes it."""
    inputs = bench_inputs()
    rng = random.Random("relabel-at-scale")
    n, edges = inputs.heavy_tail_graph(rng, 3000)
    copies = [Graph(n, edges)] + [Graph(n, inputs.relabel(rng, n, edges))
                                  for _ in range(3)]
    # Move one edge (u, v) to (u, w) with deg(w) != deg(v) - 1: the degree
    # sequence changes, so the result is not isomorphic to the original.
    g = copies[0]
    u, v = edges[-1]
    w = next(x for x in range(n) if x != u and not g.has_edge(u, x)
             and len(g.adj[x]) != len(g.adj[v]) - 1)
    moved = Graph(n, [e for e in edges if e != (u, v)] + [(u, w)])
    for flag in (True, False):
        forms = {canonical_form(h, reduce=flag) for h in copies}
        assert len(forms) == 1, flag
        assert canonical_form(moved, reduce=flag) not in forms, flag


def test_criterion_8_dataset_scale_stretch():
    candidates = [os.environ.get("WIKIVOTE_EDGE_LIST"),
                  os.path.join(DATA_DIR, "wikivote.txt"),
                  "wikivote.txt"]
    path = next((p for p in candidates if p and os.path.exists(p)), None)
    if path is None:
        pytest.skip("wikivote edge list not present")
    with open(path) as fh:
        graph, coloring = load_edge_list(fh.read())
    start = time.monotonic()
    at = build(graph, coloring)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert at.stats["non_singleton_leaves"] == 0
    assert at.stats["depth"] == 2
    print("wikivote: n=%d m=%d nodes=%d time=%.2fs"
          % (graph.n, graph.m, at.stats["nodes"], elapsed), file=sys.stderr)


def test_criterion_9_cli_determinism(tmp_path):
    hub = os.path.join(DATA_DIR, "hub.el")
    mirror = os.path.join(DATA_DIR, "mirror.el")
    query = tmp_path / "q.txt"
    query.write_text("0 4\n")
    commands = [
        ("canon", hub),
        ("iso", hub, mirror),
        ("auto", hub),
        ("orbits", hub),
        ("ssm", hub, str(query)),
        ("ssm", "--mappings", hub, str(query)),
        ("tree-stats", hub),
    ]
    for command in commands:
        baseline = None
        for _ in range(6):
            run = subprocess.run(
                [sys.executable, "-m", "autotree.cli", *command],
                capture_output=True, text=True)
            assert run.returncode in (0, 1), run.stderr
            seen = (run.returncode, run.stdout)
            if baseline is None:
                baseline = seen
            assert seen == baseline, command
