"""Tests for tree construction: the division steps, the combine pass, and
the structural-equivalence toggle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import autotree.tree
from autotree import canonical_form
from autotree.graphs import Coloring, Graph, apply_permutation, unit_coloring
from oracle import (
    bench_inputs,
    brute_aut,
    brute_canon,
    brute_canon_class_map,
    brute_orbits,
    enumerate_graphs,
    graph_from_mask,
    is_equitable,
    random_graph,
    random_permutation,
    reference_equal_form_runs,
    refine,
    sampled_graphs,
)
from autotree.ssm import split_query
from autotree.tree import (
    INTERNAL,
    NON_SINGLETON_LEAF,
    SINGLETON_LEAF,
    Subgraph,
    build,
    divide_p,
    divide_s,
    reduce_structural_equivalence,
    to_dot,
)

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
SQUARE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def part_vertices(parts):
    return [p.vertices for p, _ in parts]


def tree_signature(node):
    """Kind, certificate, and child signatures, invariant to child order."""
    kids = tuple(sorted(tree_signature(ch) for ch in node.children))
    return (node.kind, node.form.key, kids)


def test_divide_p_pulls_singletons_then_components(hub_graph):
    col = refine(hub_graph, unit_coloring(8))
    parts = divide_p(Subgraph.whole(hub_graph), col)
    assert part_vertices(parts) == [(7,), (0, 1, 2, 3), (4, 5, 6)]
    square = parts[1][0]
    assert square.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert parts[1][1].cells == ((0, 1, 2, 3),)
    assert parts[1][1].global_pos[0] == 0
    assert parts[0][1].global_pos[7] == 7


def test_divide_p_splits_disconnected_rest():
    g = Graph(4, [(0, 1), (2, 3)])
    parts = divide_p(Subgraph.whole(g), unit_coloring(4))
    assert part_vertices(parts) == [(0, 1), (2, 3)]


def test_divide_p_cannot_divide_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sub = Subgraph.whole(g)
    col = unit_coloring(3)
    parts = divide_p(sub, col)
    assert len(parts) == 1
    assert parts[0][0] is sub and parts[0][1] is col


def test_divide_s_splits_clique_cell():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    parts = divide_s(Subgraph.whole(g), unit_coloring(3))
    assert part_vertices(parts) == [(0,), (1,), (2,)]


def test_divide_s_cannot_divide_square():
    sub = Subgraph.whole(SQUARE)
    parts = divide_s(sub, unit_coloring(4))
    assert len(parts) == 1 and parts[0][0] is sub


def test_divide_s_splits_biclique_pair():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    parts = divide_s(Subgraph.whole(g), Coloring([[0, 1], [2, 3]]))
    assert part_vertices(parts) == [(0,), (1,), (2,), (3,)]


def test_divide_s_rolls_back_when_residual_stays_connected():
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    sub = Subgraph.whole(g)
    parts = divide_s(sub, Coloring([[0, 1], [2, 3, 4]]))
    assert len(parts) == 1 and parts[0][0] is sub


def test_hub_tree_shape(hub_graph):
    at = build(hub_graph, reduce=False)
    assert not at.reduced
    root = at.root
    assert root.kind == INTERNAL
    assert root.axis == ("divide_p", ((7,),))
    assert [ch.vertices for ch in root.children] == [(4, 5, 6), (0, 1, 2, 3), (7,)]
    kinds = {ch.vertices: ch.kind for ch in root.children}
    assert kinds[(0, 1, 2, 3)] == NON_SINGLETON_LEAF
    assert kinds[(4, 5, 6)] == INTERNAL
    assert kinds[(7,)] == SINGLETON_LEAF
    triangle = root.children[0]
    assert triangle.axis == ("divide_s", (("clique", (4, 5, 6)),))
    assert [ch.vertices for ch in triangle.children] == [(4,), (5,), (6,)]
    assert at.stats == {"nodes": 7, "singleton_leaves": 4,
                        "non_singleton_leaves": 1, "avg_leaf_size": 4.0,
                        "depth": 2}
    assert sorted(root.gamma.values()) == list(range(8))
    assert root.gamma[7] == 7


def test_hub_tree_reduced_shape(hub_graph):
    at = build(hub_graph)
    assert at.reduced
    assert at.stats == {"nodes": 11, "singleton_leaves": 8,
                        "non_singleton_leaves": 0, "avg_leaf_size": 0.0,
                        "depth": 2}
    assert at.root_coloring.cells == at.root.coloring.cells
    by_verts = {ch.vertices: ch for ch in at.root.children}
    assert set(by_verts) == {(4, 5, 6), (7,), (0, 1, 2, 3)}
    square = by_verts[(0, 1, 2, 3)]
    assert square.kind == INTERNAL
    assert [ch.vertices for ch in square.children] == [(0,), (2,), (1,), (3,)]
    assert square.graph.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sorted(at.root.gamma.values()) == list(range(8))


def test_two_vertex_path():
    at = build(Graph(2, [(0, 1)]), reduce=False)
    assert at.stats == {"nodes": 3, "singleton_leaves": 2,
                        "non_singleton_leaves": 0, "avg_leaf_size": 0.0,
                        "depth": 1}
    assert at.root.axis == ("divide_s", (("clique", (0, 1)),))


def test_complete_graph_splits_into_singletons():
    at = build(K4, reduce=False)
    assert [ch.vertices for ch in at.root.children] == [(0,), (1,), (2,), (3,)]
    assert at.stats["nodes"] == 5 and at.stats["depth"] == 1
    assert not build(K4).reduced


def test_empty_graph():
    at = build(Graph(0, []))
    assert at.root is None
    assert at.stats == {"nodes": 0, "singleton_leaves": 0,
                        "non_singleton_leaves": 0, "avg_leaf_size": 0.0,
                        "depth": 0}
    assert at.root_form().serialize() == "0 0\n\n"


def test_single_vertex():
    at = build(Graph(1, []))
    assert at.root.kind == SINGLETON_LEAF
    assert at.root.gamma == {0: 0}
    assert at.stats == {"nodes": 1, "singleton_leaves": 1,
                        "non_singleton_leaves": 0, "avg_leaf_size": 0.0,
                        "depth": 0}


def test_isolated_vertices_regrow_from_a_single_leaf():
    at = build(Graph(3, []))
    assert at.reduced
    assert at.root.kind == INTERNAL
    assert at.root.axis == ("twin_expansion", (0, 1, 2))
    assert [ch.vertices for ch in at.root.children] == [(0,), (1,), (2,)]
    assert at.stats["nodes"] == 4 and at.stats["depth"] == 1
    assert at.root_form() == build(Graph(3, []), reduce=False).root_form()


def test_reduce_collapses_hub_twins(hub_graph):
    gs, ps, classes = reduce_structural_equivalence(hub_graph, unit_coloring(8))
    assert classes == {0: (0, 2), 1: (1, 3), 4: (4,), 5: (5,), 6: (6,), 7: (7,)}
    assert gs.vertices == (0, 1, 4, 5, 6, 7)
    assert ps.cells == ((4, 5, 6, 7), (0, 1))
    assert gs.edges() == [(0, 1), (0, 7), (1, 7), (4, 5), (4, 6), (4, 7),
                          (5, 6), (5, 7), (6, 7)]


def test_reduce_keeps_cells_apart():
    g = Graph(4, [])
    gs, ps, classes = reduce_structural_equivalence(g, Coloring([[0, 1], [2, 3]]))
    assert classes == {0: (0, 1), 2: (2, 3)}
    assert ps.cells == ((0,), (2,))


def test_reduce_separates_class_sizes():
    gs, ps, classes = reduce_structural_equivalence(STAR, unit_coloring(5))
    assert classes == {0: (0,), 1: (1, 2, 3, 4)}
    assert gs.edges() == [(0, 1)]
    assert ps.cells == ((0,), (1,))


def test_star_certificate_independent_of_center():
    other = Graph(5, [(3, 0), (3, 1), (3, 2), (3, 4)])
    for flag in (False, True):
        assert (build(STAR, reduce=flag).root_form()
                == build(other, reduce=flag).root_form())


def test_square_certificate_independent_of_twin_layout():
    crossed = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    for flag in (False, True):
        assert (build(SQUARE, reduce=flag).root_form()
                == build(crossed, reduce=flag).root_form())


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


@settings(max_examples=60, deadline=None)
@given(small_graphs, st.booleans())
def test_every_node_coloring_is_equitable(g, flag):
    at = build(g, reduce=flag)
    for node in at.nodes():
        assert is_equitable(node.graph, node.coloring)


@settings(max_examples=80, deadline=None)
@given(small_graphs, st.randoms(use_true_random=False), st.booleans())
def test_tree_invariant_under_relabeling(g, rnd, flag):
    gamma = random_permutation(rnd, g.n)
    relabeled = build(apply_permutation(g, gamma), reduce=flag)
    assert tree_signature(build(g, reduce=flag).root) == tree_signature(relabeled.root)


def test_certificates_invariant_on_larger_graphs():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(8, 25)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        gamma = random_permutation(rng, n)
        h = apply_permutation(g, gamma)
        for flag in (False, True):
            assert build(g, reduce=flag).root_form() == build(h, reduce=flag).root_form()


def test_certificate_partition_matches_oracle_exhaustively():
    for n in (3, 4, 5):
        cmap = brute_canon_class_map(n)
        for flag in (False, True):
            by_form = {}
            by_canon = {}
            for mask, canon in cmap.items():
                g = graph_from_mask(n, mask)
                form = build(g, reduce=flag).root_form().serialize()
                by_form.setdefault(form, set()).add(canon)
                by_canon.setdefault(canon, set()).add(form)
            assert all(len(vals) == 1 for vals in by_form.values())
            assert all(len(vals) == 1 for vals in by_canon.values())


def test_root_form_never_precedes_oracle_minimum():
    for n in (2, 3, 4, 5):
        for g in enumerate_graphs(n):
            least = brute_canon(g).key
            for flag in (False, True):
                assert build(g, reduce=flag).root_form().key >= least


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


def check_divide_s_preserves_automorphisms(graph):
    at = build(graph, reduce=False)
    for node in at.nodes():
        if node.axis is None or node.axis[0] != "divide_s":
            continue
        idx = {v: i for i, v in enumerate(node.vertices)}
        cells = [[idx[v] for v in cell] for cell in node.coloring.cells]
        before = Graph(len(idx), [(idx[u], idx[v]) for u, v in node.graph.edges()])
        removed = removed_edges(node.axis[1])
        residual = [e for e in node.graph.edges() if e not in removed]
        after = Graph(len(idx), [(idx[u], idx[v]) for u, v in residual])
        coloring = Coloring(cells)
        assert (sorted(brute_aut(before, coloring))
                == sorted(brute_aut(after, coloring)))


def test_divide_s_preserves_colored_automorphisms():
    for g in enumerate_graphs(4):
        check_divide_s_preserves_automorphisms(g)
    for g in sampled_graphs(5, 120, seed=9):
        check_divide_s_preserves_automorphisms(g)
    for g in sampled_graphs(7, 40, seed=10):
        check_divide_s_preserves_automorphisms(g)


def leaf_record(at):
    rec = {}
    for node in at.nodes():
        if node.kind in (SINGLETON_LEAF, NON_SINGLETON_LEAF):
            for v in node.vertices:
                rec[v] = (node.kind, node.form.key)
    return rec


def check_orbits_share_leaf_forms(g):
    rec = leaf_record(build(g, reduce=False))
    orbits = brute_orbits(g)
    orbit_of = {}
    for orbit in orbits:
        for v in orbit:
            orbit_of[v] = orbit[0]
    for orbit in orbits:
        assert all(rec[v] == rec[orbit[0]] for v in orbit)
    singles = {}
    for v, (kind, key) in rec.items():
        if kind == SINGLETON_LEAF:
            singles.setdefault(key, []).append(v)
    for group in singles.values():
        assert len({orbit_of[v] for v in group}) == 1


def test_orbit_mates_share_leaf_certificates():
    for g in enumerate_graphs(5):
        check_orbits_share_leaf_forms(g)
    for g in sampled_graphs(6, 60, seed=3):
        check_orbits_share_leaf_forms(g)


@settings(max_examples=50, deadline=None)
@given(small_graphs)
def test_gamma_is_bijective_and_cell_aligned(g):
    at = build(g, reduce=False)
    assert sorted(at.root.gamma.values()) == list(range(g.n))
    for node in at.nodes():
        col = node.coloring
        for cell in col.cells:
            for v in cell:
                offset = node.gamma[v] - col.global_pos[v]
                assert 0 <= offset < len(cell)
    relabeled = apply_permutation(g, [at.root.gamma[v] for v in range(g.n)])
    assert tuple(relabeled.edges()) == at.root.form.edges


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_children_arrive_sorted_by_certificate(g):
    for node in build(g, reduce=False).nodes():
        keys = [ch.form.key for ch in node.children]
        assert keys == sorted(keys)


def test_certificates_ignore_tie_break_direction(monkeypatch, hub_graph):
    import autotree.combine
    import autotree.tree

    cases = [hub_graph, K4, SQUARE, STAR, TRIANGLES]
    baselines = [(g, flag, build(g, reduce=flag).root_form())
                 for g in cases for flag in (False, True)]

    def flipped(children):
        return sorted(children, key=lambda ch: (ch.form.key, -ch.vertices[0]))

    monkeypatch.setattr(autotree.combine, "sort_children", flipped)
    monkeypatch.setattr(autotree.tree, "sort_children", flipped)
    for g, flag, form in baselines:
        assert build(g, reduce=flag).root_form() == form


def test_induced_never_walks_the_parent_vertices(hub_graph, unwalkable):
    whole = Subgraph.whole(hub_graph)
    expected = whole.induced([6, 4, 7])
    whole.vertices = unwalkable
    sub = whole.induced([6, 4, 7])
    assert sub.vertices == expected.vertices == (4, 6, 7)
    assert sub.adj == expected.adj == {4: (6, 7), 6: (4, 7), 7: (4, 6)}


def test_to_dot_lists_every_node(hub_graph):
    at = build(hub_graph, reduce=False)
    dot = to_dot(at)
    assert dot.startswith("digraph")
    assert dot.count("[label=") == at.stats["nodes"]
    assert dot.count("->") == at.stats["nodes"] - 1


def test_division_counters_stay_linear():
    rng = random.Random(5)
    for n, p in ((40, 0.1), (60, 0.3), (50, 0.8)):
        g = random_graph(rng, n, p)
        col = refine(g, unit_coloring(n))
        budget = 20 * (g.n + g.m + len(col.cells) + 1)
        ops = {}
        divide_p(Subgraph.whole(g), col, ops)
        assert ops["steps"] <= budget
        ops = {}
        divide_s(Subgraph.whole(g), col, ops)
        assert ops["steps"] <= budget


def run_cache_corpus():
    """The oracle corpus plus small graphs of the three benchmark families,
    relabeled; heavy-tail and ssm-query graphs carry twins, so reduction
    collapses and regrows them."""
    yield from enumerate_graphs(4)
    yield from sampled_graphs(7, 60, seed=17)
    inputs = bench_inputs()
    rng = random.Random("run-cache")
    for n, edges in (inputs.heavy_tail_graph(rng, 80), inputs.cocktail_party(4),
                     inputs.paley(13), inputs.random_cubic(rng, 20),
                     inputs.hypercube(4), inputs.ssm_graph(rng)[:2]):
        yield Graph(n, inputs.relabel(rng, n, edges))


def test_cached_runs_and_lazy_index_match_the_children():
    for g in run_cache_corpus():
        for flag in (False, True):
            for node in build(g, reduce=flag).nodes():
                if node.kind != INTERNAL:
                    continue
                assert [list(run) for run in node.runs] == \
                    reference_equal_form_runs(node.children)
                assert node.index is None
                split_query(node, frozenset(node.vertices[:1]))
                assert len(node.index) == len(node.vertices)
                for r, run in enumerate(node.runs):
                    for i in run:
                        for v in node.children[i].vertices:
                            assert node.index[v] == (i, r)


def random_colored_graphs(count, seed):
    """Random graphs on up to 12 vertices with up to three random cells;
    the colorings keep many of them reducible."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        cells = {}
        for v in range(n):
            cells.setdefault(rng.randrange(3), []).append(v)
        yield g, Coloring([cells[c] for c in sorted(cells)])


def canonical_form_corpus(hub_graph):
    for n in range(6):
        for g in enumerate_graphs(n):
            yield g, None
    for g in sampled_graphs(6, 200, seed=606):
        yield g, None
    yield from random_colored_graphs(200, seed=607)
    yield Graph(3, []), None
    yield Graph(0, []), None
    yield hub_graph, None


def test_canonical_form_equals_the_regrown_root(hub_graph):
    reduced = 0
    for g, c in canonical_form_corpus(hub_graph):
        at = build(g, c, reduce=True)
        reduced += at.reduced
        assert canonical_form(g, c) == at.root_form(), (g.edges(), c)
        assert canonical_form(g, c, reduce=False) == \
            build(g, c, reduce=False).root_form()
    assert reduced > 100


def test_canonical_form_never_regrows_the_whole_tree(monkeypatch, hub_graph):
    def refuse(*args):
        raise AssertionError("canonical_form regrew the whole tree")

    expected = [(g, c, build(g, c).root_form()) for g, c in
                ((hub_graph, None), (Graph(3, []), None), (STAR, None),
                 (Graph(4, []), Coloring([[0, 1], [2, 3]])))]
    monkeypatch.setattr(autotree.tree, "expand_structural_equivalence", refuse)
    for g, c, form in expected:
        assert canonical_form(g, c) == form


@pytest.mark.parametrize("flag", [False, True])
def test_wrong_size_coloring_is_rejected(flag):
    g = Graph(3, [(0, 1)])
    for coloring in (Coloring([[0, 1]]), Coloring([[0, 1], [2, 3]])):
        with pytest.raises(ValueError):
            canonical_form(g, coloring, reduce=flag)
        with pytest.raises(ValueError):
            build(g, coloring, reduce=flag)
