"""Automorphism generators, orbits, and group order read off a built tree.

Two kinds of symmetry are visible in the tree: the groups the base labeler
found inside non-singleton leaves, and swaps of equal-certificate sibling
subtrees. Their lifts generate the automorphism group of the colored graph,
so orbit, order, and counting questions reduce to walking the tree. Every
generator is re-verified against the graph before it leaves this module.
"""

import math

from .graphs import InternalConsistencyError
from .group import orbit_roots, order
from .ssm import equal_form_runs, images_within, sibling_correspondence
from .tree import INTERNAL, NON_SINGLETON_LEAF


def _checked(graph, coloring, perm, what):
    """Verify perm maps the colored graph onto itself before handing it out."""
    for v in range(graph.n):
        if coloring.cell_index(v) != coloring.cell_index(perm[v]):
            raise InternalConsistencyError("%s moves a vertex across colors"
                                           % what)
    for u in range(graph.n):
        image = graph.adj[perm[u]]
        for w in graph.adj[u]:
            if perm[w] not in image:
                raise InternalConsistencyError("%s breaks an edge" % what)
    return perm


def _reject_reduced(at):
    if at.reduced:
        raise ValueError(
            "automorphism extraction needs a tree built with reduce=False")


def generators(at):
    """Verified generator permutations of the colored graph's automorphism
    group: each leaf generator extended by the identity, plus one swap for
    every adjacent pair of equal-certificate siblings."""
    _reject_reduced(at)
    graph, coloring = at.graph, at.coloring
    n = graph.n
    gens = []
    for node in at.nodes():
        if node.kind == NON_SINGLETON_LEAF:
            for g in node.leaf_generators:
                perm = list(range(n))
                for v, image in g.items():
                    perm[v] = image
                gens.append(_checked(graph, coloring, perm, "leaf generator"))
        elif node.kind == INTERNAL:
            for run in equal_form_runs(node.children):
                for a, b in zip(run, run[1:]):
                    move = sibling_correspondence(node.children[a],
                                                  node.children[b])
                    perm = list(range(n))
                    for u, v in move.items():
                        perm[u] = v
                        perm[v] = u
                    gens.append(_checked(graph, coloring, perm,
                                         "sibling swap"))
    return gens


def orbits(gens, n):
    """Vertex orbits under the given permutations, each orbit sorted, the
    list ordered by smallest member."""
    groups = {}
    for v, root in orbit_roots(gens, range(n)).items():
        groups.setdefault(root, []).append(v)
    return list(groups.values())


def group_order(at):
    """Order of the automorphism group: the product of every leaf group's
    order and k! for every run of k equal-certificate siblings. Exact
    integers throughout."""
    _reject_reduced(at)
    total = 1
    for node in at.nodes():
        if node.kind == NON_SINGLETON_LEAF:
            total *= order(node.leaf_generators, node.vertices)
        elif node.kind == INTERNAL:
            for run in equal_form_runs(node.children):
                total *= math.factorial(len(run))
    return total


def _count(node, part):
    if node.kind == NON_SINGLETON_LEAF:
        return len(images_within(node, part))
    if not node.children:
        return 1
    parts = {}
    for i, child in enumerate(node.children):
        piece = part.intersection(child.vertices)
        if piece:
            parts[i] = piece
    total = 1
    for run in equal_form_runs(node.children):
        sources = [i for i in run if i in parts]
        if not sources:
            continue
        first = node.children[run[0]]
        classes = {}
        for i in sources:
            child = node.children[i]
            family = images_within(child, parts[i])
            if i == run[0]:
                moved = frozenset(family)
            else:
                move = sibling_correspondence(child, first)
                moved = frozenset(frozenset(move[x] for x in image)
                                  for image in family)
            classes.setdefault(moved, []).append(i)
        k = len(run)
        run_count = math.factorial(k) // math.factorial(k - len(sources))
        for family, members in classes.items():
            run_count //= math.factorial(len(members))
            run_count *= len(family) ** len(members)
        total *= run_count
    return total


def count_set_images(at, s):
    """How many distinct images the vertex set s has under the automorphism
    group, without listing them.

    Within a run of k interchangeable siblings the query parts fall into
    classes with equal transported image families; placements multiply a
    multinomial over the class sizes by each family size per part."""
    _reject_reduced(at)
    s = frozenset(s)
    for v in s:
        if not (0 <= v < at.graph.n):
            raise ValueError("vertex %d out of range" % v)
    if not s:
        return 1
    return _count(at.root, s)


def are_automorphic(at, u, v):
    """Whether some automorphism maps vertex u to vertex v."""
    for w in (u, v):
        if not (0 <= w < at.graph.n):
            raise ValueError("vertex %d out of range" % w)
    if u == v:
        return True
    roots = orbit_roots(generators(at), range(at.graph.n))
    return roots[u] == roots[v]
