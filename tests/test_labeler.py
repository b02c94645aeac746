import itertools
import random

from hypothesis import given, settings, strategies as st

from autotree.graphs import Graph, apply_permutation, unit_coloring, Coloring
from autotree.labeler import canonical_labeling_ir
from oracle import (
    brute_canon,
    brute_canon_class_map,
    brute_group_order,
    brute_orbits,
    enumerate_graphs,
    mask_from_graph,
    random_permutation,
    sampled_graphs,
)


def ir_form(graph, coloring=None):
    cells = (coloring or unit_coloring(graph.n)).cells
    _, form, _ = canonical_labeling_ir(graph.adj, cells)
    return form


def closure_order(n, gens):
    """Size of the permutation group generated by gens (as vertex dicts)."""
    ident = tuple(range(n))
    perms = [tuple(g.get(v, v) for v in range(n)) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for p in perms:
            nxt = tuple(p[cur[v]] for v in range(n))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def orbits_from_gens(n, gens):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for v, img in g.items():
            a, b = find(v), find(img)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def test_single_vertex():
    g = Graph(1, [])
    gamma, form, gens = canonical_labeling_ir(g.adj, unit_coloring(1).cells)
    assert gamma == {0: 0}
    assert form.vertex_labels == ((0, 0),)
    assert form.edges == ()
    assert gens == []


def test_discrete_input_short_circuits():
    g = Graph(2, [(0, 1)])
    gamma, form, gens = canonical_labeling_ir(g.adj, [[0], [1]])
    assert gamma == {0: 0, 1: 1}
    assert form.edges == ((0, 1),)
    assert form.vertex_labels == ((0, 0), (1, 1))
    assert gens == []


def test_empty_carrier():
    gamma, form, gens = canonical_labeling_ir({}, [])
    assert gamma == {}
    assert form.serialize() == "0 0\n\n"
    assert gens == []


def test_c4_group_order_eight():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(4).cells)
    assert closure_order(4, gens) == 8


def test_k4_group_order():
    g = Graph(4, list(itertools.combinations(range(4), 2)))
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(4).cells)
    assert closure_order(4, gens) == 24


def test_two_triangles_group_order():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = Graph(6, edges)
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(6).cells)
    assert closure_order(6, gens) == 72


def test_hub_graph_group_and_orbits(hub_graph):
    _, _, gens = canonical_labeling_ir(hub_graph.adj, unit_coloring(8).cells)
    assert closure_order(8, gens) == 48
    assert orbits_from_gens(8, gens) == [[0, 1, 2, 3], [4, 5, 6], [7]]


def test_pinned_vertex_restricts_group():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    _, _, gens = canonical_labeling_ir(g.adj, [[0], [1, 2, 3]])
    assert closure_order(4, gens) == 2


def test_colored_form_differs_from_unit():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert ir_form(g) != ir_form(g, Coloring([[0], [1, 2, 3]]))


def test_gamma_is_bijective_labeling(hub_graph):
    gamma, form, _ = canonical_labeling_ir(hub_graph.adj, unit_coloring(8).cells)
    assert sorted(gamma) == list(range(8))
    assert sorted(gamma.values()) == list(range(8))
    relabeled = apply_permutation(hub_graph, [gamma[v] for v in range(8)])
    assert tuple(relabeled.edges()) == form.edges


small_graphs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=12,
    ).map(
        lambda es: Graph(n, sorted({(min(u, v), max(u, v)) for u, v in es}))
    )
)


@settings(max_examples=150, deadline=None)
@given(small_graphs, st.randoms(use_true_random=False))
def test_form_invariant_under_relabeling(g, rnd):
    gamma = random_permutation(rnd, g.n)
    assert ir_form(g) == ir_form(apply_permutation(g, gamma))


@settings(max_examples=80, deadline=None)
@given(small_graphs)
def test_generators_are_automorphisms(g):
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(g.n).cells)
    for sigma in gens:
        perm = [sigma[v] for v in range(g.n)]
        assert apply_permutation(g, perm) == g


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_group_order_matches_oracle(g):
    if g.n > 6:
        return
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(g.n).cells)
    assert closure_order(g.n, gens) == brute_group_order(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_orbits_match_oracle(g):
    if g.n > 6:
        return
    _, _, gens = canonical_labeling_ir(g.adj, unit_coloring(g.n).cells)
    assert orbits_from_gens(g.n, gens) == brute_orbits(g)


def test_completeness_exhaustive_n5():
    """IR certificates induce exactly the isomorphism classes on 5 vertices."""
    class_map = brute_canon_class_map(5)
    by_ir = {}
    by_oracle = {}
    for g in enumerate_graphs(5):
        mask = mask_from_graph(g)
        by_ir.setdefault(ir_form(g).key, set()).add(mask)
        by_oracle.setdefault(class_map[mask], set()).add(mask)
    assert sorted(map(sorted, by_ir.values())) == sorted(
        map(sorted, by_oracle.values())
    )


def test_completeness_sampled_n6():
    """On sampled 6-vertex graphs the IR partition agrees with brute force."""
    rng = random.Random(90125)
    sample = list(sampled_graphs(6, 120, seed=4091))
    by_ir = {}
    by_brute = {}
    for i, g in enumerate(sample):
        gamma = random_permutation(rng, 6)
        assert ir_form(g) == ir_form(apply_permutation(g, gamma))
        by_ir.setdefault(ir_form(g).key, set()).add(i)
        by_brute.setdefault(brute_canon(g).key, set()).add(i)
    assert sorted(map(sorted, by_ir.values())) == sorted(
        map(sorted, by_brute.values())
    )


def test_distinguishes_nonisomorphic_pairs():
    p3 = Graph(3, [(0, 1), (1, 2)])
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert ir_form(p3) != ir_form(k3)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert ir_form(star) != ir_form(path)


def _assert_individualizes_at_most(monkeypatch, graph, limit):
    import autotree.labeler as labeler
    real = labeler.individualize
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= limit, "orbit pruning no longer cuts the search"
        return real(*args)

    monkeypatch.setattr(labeler, "individualize", counted)
    canonical_labeling_ir(graph.adj, unit_coloring(graph.n).cells)


def test_orbit_pruning_keeps_cocktail_party_search_small(monkeypatch):
    # K_{8x2}: vertices v and v+8 are the non-adjacent pairs. Without P_C
    # orbit pruning the search individualizes far more often.
    g = Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                   if v != u + 8])
    _assert_individualizes_at_most(monkeypatch, g, 205)


def test_orbit_pruning_keeps_hypercube_search_small(monkeypatch):
    q5 = Graph(32, [(u, u ^ (1 << i)) for u in range(32) for i in range(5)
                    if u < u ^ (1 << i)])
    _assert_individualizes_at_most(monkeypatch, q5, 40)
