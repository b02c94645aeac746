"""Symmetric subgraph matching: all images of a query vertex set under the
automorphism group, read off a built tree.

The tree drives the search. Children of an internal node that share a
certificate are interchangeable, so per-child image families are transported
along the label-aligned correspondences between siblings and reassembled,
one target child per query part. Non-singleton leaves fall back to an
explicit color-constrained matcher filtered by the leaf group's closure.
"""

import itertools

from .graphs import InternalConsistencyError
from .group import set_orbit
from .tree import NON_SINGLETON_LEAF, SINGLETON_LEAF


def sibling_correspondence(src, dst):
    """Vertex map from one child onto an equal-certificate sibling, pairing
    vertices that carry the same label."""
    back = {label: v for v, label in dst.gamma.items()}
    return {v: back[label] for v, label in src.gamma.items()}


def equal_form_runs(children):
    """Indices of maximal blocks of adjacent children with equal forms."""
    runs = []
    for i, child in enumerate(children):
        if runs and children[runs[-1][-1]].form.key == child.form.key:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def sm_leaf(leaf_graph, q_part, color_constraints, generators):
    """Vertex sets of a leaf that the query part can map onto.

    A backtracking matcher assigns each query vertex to a distinct leaf
    vertex of the same color, keeping adjacency exactly (the match is
    induced). Raw matches are then filtered down to sets the leaf group can
    actually reach from q_part. Returns a set of frozensets.
    """
    order = sorted(q_part)
    adjacency = {v: set(leaf_graph.adj[v]) for v in leaf_graph.vertices}
    by_color = {}
    for v in leaf_graph.vertices:
        by_color.setdefault(color_constraints.get(v), []).append(v)

    matches = set()
    assignment = {}
    used = set()

    def extend(i):
        if i == len(order):
            matches.add(frozenset(assignment.values()))
            return
        v = order[i]
        for cand in by_color.get(color_constraints.get(v), ()):
            if cand in used:
                continue
            if any((order[j] in adjacency.get(v, ()))
                   != (assignment[order[j]] in adjacency[cand])
                   for j in range(i)):
                continue
            assignment[v] = cand
            used.add(cand)
            extend(i + 1)
            del assignment[v]
            used.discard(cand)

    extend(0)
    if not matches:
        return set()
    reachable = set_orbit(q_part, generators, ())
    return {s for s in matches if s in reachable}


def images_within(node, q):
    """Images of q under the automorphisms visible in node's subtree.

    Returns a dict mapping each image (frozenset) to a witness dict that
    sends every vertex of q to its spot in the image. q must lie inside the
    node's vertex set.
    """
    q = frozenset(q)
    if not q:
        return {q: {}}
    if node.kind == SINGLETON_LEAF:
        return {q: {v: v for v in q}}
    if node.kind == NON_SINGLETON_LEAF:
        colors = {v: node.coloring.global_pos[v] for v in node.vertices}
        track = sorted(q)
        reachable = set_orbit(q, node.leaf_generators, track)
        kept = sm_leaf(node.graph, q, colors, node.leaf_generators)
        if set(reachable) - kept:
            raise InternalConsistencyError(
                "leaf matcher missed an image reachable by the leaf group")
        return {s: dict(zip(track, reachable[s])) for s in kept}

    children = node.children
    parts = {}
    for i, child in enumerate(children):
        part = q.intersection(child.vertices)
        if part:
            parts[i] = part

    total = {frozenset(): {}}
    for run in equal_form_runs(children):
        sources = [i for i in run if i in parts]
        if not sources:
            continue
        families = {i: images_within(children[i], parts[i]) for i in sources}
        maps = {}
        for i in sources:
            for t in run:
                maps[i, t] = (None if t == i
                              else sibling_correspondence(children[i], children[t]))
        run_images = {}
        for targets in itertools.permutations(run, len(sources)):
            combos = [(frozenset(), {})]
            for i, t in zip(sources, targets):
                move = maps[i, t]
                placed = []
                for image, witness in families[i].items():
                    if move is None:
                        placed.append((image, witness))
                    else:
                        placed.append((frozenset(move[x] for x in image),
                                       {v: move[x] for v, x in witness.items()}))
                combos = [(s | img, {**w, **wit})
                          for s, w in combos for img, wit in placed]
            for s, w in combos:
                run_images.setdefault(s, w)
        total = {s | img: {**w, **wit}
                 for s, w in total.items() for img, wit in run_images.items()}
    return total


def _verify_image(graph, coloring, witness):
    """Check one witness really is a partial color-preserving induced
    isomorphism on the query."""
    verts = sorted(witness)
    if len(set(witness.values())) != len(verts):
        raise InternalConsistencyError("image witness is not injective")
    for v in verts:
        if coloring.cell_index(v) != coloring.cell_index(witness[v]):
            raise InternalConsistencyError("image witness changes a color")
    for u, v in itertools.combinations(verts, 2):
        if graph.has_edge(u, v) != graph.has_edge(witness[u], witness[v]):
            raise InternalConsistencyError("image is not an induced match")


def ssm(graph, q, at):
    """All images of the vertex set q under automorphisms of the colored
    graph, as a set of frozensets. Every result is re-checked against the
    graph before it is returned, and q itself is always among them.
    """
    if at.reduced:
        raise ValueError("matching needs a tree built with reduce=False")
    if graph.n != at.graph.n or graph.m != at.graph.m:
        raise ValueError("tree was built from a different graph")
    q = sorted(set(q))
    if not q:
        raise ValueError("query must contain at least one vertex")
    if q[0] < 0 or q[-1] >= graph.n:
        raise ValueError("query vertex %d out of range" % (
            q[0] if q[0] < 0 else q[-1]))
    found = images_within(at.root, frozenset(q))
    for witness in found.values():
        _verify_image(graph, at.coloring, witness)
    if frozenset(q) not in found:
        raise InternalConsistencyError("query missing from its own images")
    return set(found)


def ssm_with_witnesses(graph, q, at, generators):
    """Images of q with one full automorphism per image.

    Closes q under the given verified generators while composing the
    permutations, then cross-checks the reached sets against the tree-driven
    ssm result. Returns a dict mapping each frozenset to a permutation list.
    """
    expected = ssm(graph, q, at)
    found = set_orbit(q, generators, range(graph.n))
    if set(found) != expected:
        raise InternalConsistencyError(
            "generator closure and tree recursion disagree on image sets")
    return found
