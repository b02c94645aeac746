"""Canonical labeling, automorphism detection, and symmetric subgraph
matching for undirected colored graphs, organized around a divide-and-conquer
tree with an individualization-refinement labeler at the leaves."""

from .automorphisms import (
    are_automorphic,
    count_set_images,
    generators,
    group_order,
    orbits,
)
from .graphs import (
    CanonicalForm,
    Coloring,
    Graph,
    InternalConsistencyError,
    ParseError,
    apply_permutation,
    format_cycles,
    load_dimacs,
    load_edge_list,
    load_graph,
    unit_coloring,
)
from .labeler import canonical_labeling_ir
from .refine import individualize
from .ssm import sm_leaf, ssm, ssm_with_witnesses
from .tree import (AutoTree, AutoTreeNode, build, canonical_form, to_dot,
                   tree_stats)


def are_isomorphic(graph_a, graph_b, coloring_a=None, coloring_b=None):
    """Whether two colored graphs are isomorphic, by comparing certificates."""
    return canonical_form(graph_a, coloring_a) == canonical_form(graph_b,
                                                                 coloring_b)


__all__ = [
    "AutoTree",
    "AutoTreeNode",
    "CanonicalForm",
    "Coloring",
    "Graph",
    "InternalConsistencyError",
    "ParseError",
    "apply_permutation",
    "are_automorphic",
    "are_isomorphic",
    "build",
    "canonical_form",
    "canonical_labeling_ir",
    "count_set_images",
    "format_cycles",
    "generators",
    "group_order",
    "individualize",
    "load_dimacs",
    "load_edge_list",
    "load_graph",
    "orbits",
    "sm_leaf",
    "ssm",
    "ssm_with_witnesses",
    "to_dot",
    "tree_stats",
    "unit_coloring",
]
