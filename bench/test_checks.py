"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from autotree import (Graph, build, canonical_form, count_set_images,  # noqa: E402
                      generators, group_order, orbits, ssm, ssm_with_witnesses,
                      unit_coloring)

# A hub with four pendant leaves (the hub has the unique degree), a triangle
# hung off the hub by a tail, and a 5-cycle hung off the hub.
N = 14
EDGES = ([(0, v) for v in (1, 2, 3, 4)] + [(0, 5), (5, 6), (6, 7), (7, 8), (6, 8)]
         + [(0, 9)] + [(9 + i, 9 + (i + 1) % 5) for i in range(5)])


@pytest.fixture(scope="module")
def solved():
    graph = Graph(N, EDGES)
    tree = build(graph, unit_coloring(N), reduce=False)
    gens = generators(tree)
    return graph, tree, gens, group_order(tree)


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_generator_check_rejects_a_non_automorphism(solved):
    _, _, gens, _ = solved
    adj, colors = checks.adjacency(N, EDGES), [0] * N
    for g in gens:
        checks.check_automorphism(adj, colors, g)
    broken = list(range(N))
    broken[0], broken[1] = 1, 0  # the hub and one of its leaves
    rejects(checks.check_automorphism, adj, colors, broken)
    rejects(checks.check_automorphism, adj, colors, [0] * N)
    recoloured = [0] * N
    recoloured[1] = 1
    leaf_swap = next(g for g in gens if g[1] != 1)
    rejects(checks.check_automorphism, adj, recoloured, leaf_swap)


def test_orbit_check_rejects_merged_orbits_and_a_wrong_order(solved):
    _, _, gens, order = solved
    adj, colors = checks.adjacency(N, EDGES), [0] * N
    real = orbits(gens, N)
    checks.check_orbits(adj, colors, gens, real, order)
    merged = sorted([real[0] + real[1]] + real[2:])
    rejects(checks.check_orbits, adj, colors, gens, [sorted(o) for o in merged], order)
    rejects(checks.check_orbits, adj, colors, gens, real, order * 5 + 1)
    checks.check_twin_divisibility(adj, colors, order)
    rejects(checks.check_twin_divisibility, adj, colors, order // 8)


def test_certificate_check_rejects_one_moved_edge():
    graph = Graph(N, EDGES)
    tree = build(graph)
    form = canonical_form(graph)
    checks.check_certificate(N, EDGES, [0] * N, form, tree.root.gamma)
    edges = list(form.edges)
    a, b = edges[0]
    moved = next((a, c) for c in range(N)
                 if c != a and c != b and (min(a, c), max(a, c)) not in edges)
    edges[0] = (min(moved), max(moved))
    corrupt = type(form)(form.vertex_labels, edges)
    rejects(checks.check_certificate, N, EDGES, [0] * N, corrupt, tree.root.gamma)


def test_ssm_check_rejects_a_dropped_image(solved):
    graph, tree, gens, _ = solved
    adj, colors = checks.adjacency(N, EDGES), [0] * N
    by_vertex = checks.index_generators(gens)
    q = (1, 2)
    family = ssm(graph, q, tree)
    checks.check_ssm_family(q, family, gens, by_vertex, count_set_images(tree, q),
                            math.comb(4, 2))
    dropped = set(family)
    dropped.discard(next(s for s in family if s != frozenset(q)))
    rejects(checks.check_ssm_family, q, dropped, gens, by_vertex,
            count_set_images(tree, q))
    rejects(checks.check_ssm_family, q, family, gens, by_vertex,
            count_set_images(tree, q), math.comb(4, 2) + 1)
    witnesses = ssm_with_witnesses(graph, q, tree, gens)
    checks.check_witnesses(adj, colors, q, family, witnesses)
    image = next(s for s in witnesses if s != frozenset(q))
    bad = dict(witnesses)
    bad[image] = list(range(N))
    rejects(checks.check_witnesses, adj, colors, q, family, bad)


def test_group_order_references_agree_with_closed_forms():
    for name, (n, edges) in (("cocktail4", inputs.cocktail_party(4)),
                             ("paley13", inputs.paley(13)),
                             ("hypercube4", inputs.hypercube(4))):
        assert checks.count_automorphisms(checks.adjacency(n, edges)) == \
            checks.closed_form_order(name)
    assert checks.count_automorphisms(checks.adjacency(N, EDGES)) == \
        group_order(build(Graph(N, EDGES), reduce=False))
