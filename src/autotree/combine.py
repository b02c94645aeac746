"""Assemble canonical labelings for tree nodes.

Every node's labeling gamma injects its vertices into the global label
space: a vertex lands inside its own cell's global position block. Leaves
order a cell by the base labeler's output; internal nodes order it by
(sorted child position, label within the child). Certificates are always
computed over the node's full edge set, including any edges a division
removed, so a parent's certificate still encodes the removed structure.
"""

from .graphs import CanonicalForm, form_of
from .labeler import canonical_labeling_ir


def singleton_form(v, position):
    """Labeling and certificate of a one-vertex subgraph: both are just the
    vertex's global position."""
    return {v: position}, CanonicalForm([(position, position)], [])


def sort_children(children):
    """Children in combine order: non-descending by certificate, ties broken
    by smallest contained vertex id (the parent's certificate does not depend
    on the tie order)."""
    return sorted(children, key=lambda ch: (ch.form.key, ch.vertices[0]))


def ranked_gamma(coloring, sort_key):
    """Map each vertex to its cell's global position plus its rank within
    the cell under sort_key."""
    gamma = {}
    for cell in coloring.cells:
        for rank, v in enumerate(sorted(cell, key=sort_key)):
            gamma[v] = coloring.global_pos[v] + rank
    return gamma


def certificate(graph, coloring, gamma):
    """Certificate of a node: its full edge set relabeled by gamma, with
    the global positions as colors."""
    colors = {v: coloring.global_pos[v] for v in gamma}
    return form_of(graph.edges(), gamma, colors)


def combine_cl_with_generators(graph, coloring):
    """Labeling, certificate and verified automorphism generators of a
    non-singleton leaf.

    Runs the base labeler on (graph, coloring), then maps each vertex to its
    cell's global position plus its rank within the cell under the base
    labeling.
    """
    if coloring.is_discrete():
        raise ValueError("a leaf needs a non-discrete coloring")
    gamma_star, _, gens = canonical_labeling_ir(graph.adj, coloring.cells)
    gamma = ranked_gamma(coloring, lambda v: gamma_star[v])
    return gamma, certificate(graph, coloring, gamma), gens


def combine_st(graph, coloring, children):
    """Labeling and certificate of an internal node from combined children.

    Children must come in combine order (sort_children); within each cell
    of the node's coloring, vertices are ranked by (child position, label
    inside the child) and offset by the cell's global position.
    """
    key = {}
    for pos, child in enumerate(children):
        for v, label in child.gamma.items():
            key[v] = (pos, label)
    gamma = ranked_gamma(coloring, lambda v: key[v])
    return gamma, certificate(graph, coloring, gamma)
