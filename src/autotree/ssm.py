"""Symmetric subgraph matching: all images of a query vertex set under the
automorphism group, read off a built tree.

Inside a non-singleton leaf, the images of a query part are its set orbit
under the leaf group. Children of an internal node that share a certificate
are interchangeable: the query parts on such a run are grouped by their
image family, carried onto the run's first child, and each group takes an
unordered set of siblings with one family image per part. Every image keeps
a witness map from the query, and ssm re-checks each one against the graph.

Runs are computed once, at build (AutoTreeNode.runs). The first query that
reaches an internal node caches there each vertex's child and run, so later
queries split in O(|q|) and visit only the runs and children they touch.
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


def sm_leaf(node, q):
    """Images of q under the group of the non-singleton leaf node.

    They are the set orbit of q under the leaf generators, which the labeler
    verified as color-preserving automorphisms of the leaf when it found
    them. Returns a dict mapping each image (frozenset) to a witness dict
    that sends every vertex of q to its spot in the image. q must lie inside
    the leaf.
    """
    track = sorted(q)
    return {image: dict(zip(track, spots))
            for image, spots in set_orbit(q, node.leaf_generators,
                                          track).items()}


def split_query(node, q):
    """The nonempty parts of q in an internal node's children, as a list of
    (run, parts) in ascending run order: parts maps each child index of the
    run that q touches, in ascending order, to its part of q. The first call
    on a node builds and caches its vertex index."""
    index = node.index
    if index is None:
        index = node.index = {}
        for r, run in enumerate(node.runs):
            for i in run:
                index.update(dict.fromkeys(node.children[i].vertices, (i, r)))
    by_run = {}
    for v in q:
        i, r = index[v]
        by_run.setdefault(r, {}).setdefault(i, []).append(v)
    return [(node.runs[r], {i: frozenset(parts[i]) for i in sorted(parts)})
            for r, parts in sorted(by_run.items())]


def _carry(family, move):
    """Images with witnesses, moved along a vertex map."""
    return {frozenset(move[x] for x in image):
            {v: move[x] for v, x in witness.items()}
            for image, witness in family.items()}


def run_families(node, run, parts):
    """The query parts on a run of interchangeable siblings, grouped by
    image family. parts maps child indices of the run to their parts, in
    ascending order.

    Each part's images within its child are carried onto the run's first
    child. Parts whose carried families hold the same images form a group;
    families of different groups are disjoint set orbits. Returns the
    groups in order of their first part, each a list with one carried
    family per part: a dict from an image in the first child to a witness
    sending the part into it.
    """
    first = node.children[run[0]]
    groups = {}
    for i, part in parts.items():
        family = images_within(node.children[i], part)
        if i != run[0]:
            family = _carry(family, sibling_correspondence(node.children[i],
                                                           first))
        groups.setdefault(frozenset(family), []).append(family)
    return list(groups.values())


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
        return sm_leaf(node, q)

    children = node.children
    total = {frozenset(): {}}
    for run, parts in split_query(node, q):
        groups = run_families(node, run, parts)
        first = children[run[0]]
        moves = {t: sibling_correspondence(first, children[t]) for t in run}
        # Each group takes an unordered set of siblings no earlier group
        # took, and every part of it one image of the family on its sibling.
        placed = [(frozenset(), {}, ())]
        for group in groups:
            on = [{t: _carry(family, moves[t]) for t in run}
                  for family in group]
            grown = []
            for image, witness, taken in placed:
                free = [t for t in run if t not in taken]
                for targets in itertools.combinations(free, len(group)):
                    options = [(image, witness)]
                    for carried, t in zip(on, targets):
                        options = [(s | img, {**w, **wit})
                                   for s, w in options
                                   for img, wit in carried[t].items()]
                    grown.extend((s, w, taken + targets) for s, w in options)
            placed = grown
        total = {s | img: {**w, **wit}
                 for s, w in total.items() for img, wit, _ in placed}
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
    for image, witness in found.items():
        if sorted(witness) != q or frozenset(witness.values()) != image:
            raise InternalConsistencyError(
                "image witness does not map the query onto its image")
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
