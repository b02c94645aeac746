"""Build the divide-and-conquer labeling tree of a colored graph.

Division tries two automorphism-preserving steps. divide_p isolates each
singleton cell and splits the rest into connected components. divide_s
deletes every intra-cell edge set forming a clique and every cell-pair edge
set forming a complete bipartite graph, then splits the residual into
components. A node neither step can split becomes a non-singleton leaf and
is handed to the base labeler; the combine pass then assembles labelings
bottom-up, children sorted by certificate.

Structural-equivalence reduction (on by default) collapses same-cell
vertices with identical open neighborhoods to one representative and builds
the tree on the reduced graph. build regrows the whole tree, for tree-stats
and --dot; canonical_form (canon, iso) regrows only the root. Reduced trees
carry valid certificates but are not suitable for automorphism extraction;
the automorphisms module refuses them.
"""

from collections import deque
from functools import cached_property
from hashlib import sha1

from .combine import (certificate, combine_cl_with_generators, combine_st,
                      ranked_gamma, singleton_form, sort_children)
from .graphs import CanonicalForm, Coloring, unit_coloring
from .refine import project, refine_cells

SINGLETON_LEAF = "singleton_leaf"
NON_SINGLETON_LEAF = "non_singleton_leaf"
INTERNAL = "internal"


class Subgraph:
    """A set of original vertex ids plus adjacency restricted to the set."""

    __slots__ = ("vertices", "adj")

    def __init__(self, vertices, adj):
        self.vertices = tuple(sorted(vertices))
        self.adj = {v: tuple(sorted(adj[v])) for v in self.vertices}

    @classmethod
    def whole(cls, graph):
        return cls(range(graph.n), {v: graph.adj[v] for v in range(graph.n)})

    def induced(self, keep):
        """The subgraph induced by keep, which must lie inside this one.

        Built from keep and its vertices' adjacency alone, so the cost
        follows the child, not the parent.
        """
        keep = set(keep)
        return Subgraph(keep, {v: [u for u in self.adj[v] if u in keep] for v in keep})

    def edges(self):
        return [(v, u) for v in self.vertices for u in self.adj[v] if v < u]

    def __repr__(self):
        return "Subgraph(%d vertices, %d edges)" % (
            len(self.vertices), sum(map(len, self.adj.values())) // 2)


class AutoTreeNode:
    """A tree node. An internal node's runs are the maximal blocks of
    adjacent equal-certificate (interchangeable) children, as ranges of
    child indices, set once the children are sorted. Its index stays None
    until the first query reaches it; ssm then caches there each vertex's
    (child index, run index)."""

    __slots__ = ("graph", "coloring", "kind", "children", "axis", "gamma",
                 "form", "leaf_generators", "runs", "index")

    def __init__(self, graph, coloring):
        self.graph = graph
        self.coloring = coloring
        self.kind = None
        self.children = []
        self.axis = None
        self.gamma = None
        self.form = None
        self.leaf_generators = []
        self.runs = ()
        self.index = None

    @property
    def vertices(self):
        return self.graph.vertices

    def walk(self):
        """All nodes of the subtree, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self):
        return "AutoTreeNode(%s, %d vertices)" % (self.kind, len(self.vertices))


class AutoTree:
    """A built tree: root node plus the graph and colorings it was built
    from. reduced records whether structural-equivalence reduction actually
    collapsed anything (such trees carry certificates only)."""

    def __init__(self, root, graph, coloring, root_coloring, reduced):
        self.root = root
        self.graph = graph
        self.coloring = coloring
        self.root_coloring = root_coloring
        self.reduced = reduced

    @cached_property
    def stats(self):
        return tree_stats(self)

    def nodes(self):
        return list(self.root.walk()) if self.root is not None else []

    def root_form(self):
        return self.root.form if self.root is not None else CanonicalForm([], [])


def _components(vertices, adj, ops=None):
    """Connected components as sorted lists, ordered by smallest member."""
    seen = set()
    comps = []
    steps = 0
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            steps += 1 + len(adj[v])
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    if ops is not None:
        ops["steps"] = ops.get("steps", 0) + steps
    return comps


def divide_p(g, coloring, ops=None):
    """One part per singleton cell (in cell order), then one part per
    connected component of the remaining vertices (by smallest member).

    Returns [(g, coloring)] unchanged when there is no singleton cell and g
    is connected, signalling that this step cannot divide.
    """
    singles = [cell for cell in coloring.cells if len(cell) == 1]
    if ops is not None:
        ops["steps"] = ops.get("steps", 0) + len(coloring.cells) + len(g.vertices)
    if not singles:
        comps = _components(g.vertices, g.adj, ops)
        if len(comps) <= 1:
            return [(g, coloring)]
        return [(g.induced(c), project(coloring, c)) for c in comps]
    parts = [(g.induced(cell), project(coloring, cell)) for cell in singles]
    pinned = {cell[0] for cell in singles}
    rest = [v for v in g.vertices if v not in pinned]
    if rest:
        rest_graph = g.induced(rest)
        for comp in _components(rest_graph.vertices, rest_graph.adj, ops):
            parts.append((rest_graph.induced(comp), project(coloring, comp)))
    if ops is not None:
        ops["steps"] = ops.get("steps", 0) + sum(1 + len(g.adj[v]) for v in g.vertices)
    return parts


def _removable_structure(g, coloring, ops=None):
    """Clique cells and complete-bipartite cell pairs, with the edge set
    their removal deletes. One pass over per-vertex cell neighbor counts."""
    cells = coloring.cells
    cell_of = {}
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    counts = {v: {} for v in g.vertices}
    steps = 0
    for v in g.vertices:
        steps += 1 + len(g.adj[v])
        cv = counts[v]
        for u in g.adj[v]:
            j = cell_of[u]
            cv[j] = cv.get(j, 0) + 1
    axis = []
    removed = set()
    for i, cell in enumerate(cells):
        if len(cell) >= 2 and all(counts[v].get(i, 0) == len(cell) - 1 for v in cell):
            axis.append(("clique", tuple(cell)))
            for a in range(len(cell)):
                for b in range(a + 1, len(cell)):
                    removed.add((cell[a], cell[b]))
            steps += len(cell) * (len(cell) - 1) // 2
    for i, ci in enumerate(cells):
        for j in sorted(counts[ci[0]]):
            if j <= i:
                continue
            cj = cells[j]
            if all(counts[v].get(j, 0) == len(cj) for v in ci):
                axis.append(("biclique", tuple(ci), tuple(cj)))
                for u in ci:
                    for w in cj:
                        removed.add((u, w) if u < w else (w, u))
                steps += len(ci) * len(cj)
    if ops is not None:
        ops["steps"] = ops.get("steps", 0) + steps
    return axis, removed


def _divide_s_parts(g, coloring, ops=None):
    axis, removed = _removable_structure(g, coloring, ops)
    if not removed:
        return [(g, coloring)], []
    residual = {
        v: tuple(u for u in g.adj[v] if ((v, u) if v < u else (u, v)) not in removed)
        for v in g.vertices
    }
    comps = _components(g.vertices, residual, ops)
    if len(comps) <= 1:
        return [(g, coloring)], []
    parts = [
        (Subgraph(comp, {v: residual[v] for v in comp}), project(coloring, comp))
        for comp in comps
    ]
    return parts, axis


def divide_s(g, coloring, ops=None):
    """Remove clique-cell and biclique-cell-pair edges, then split into the
    residual's connected components. Returns [(g, coloring)] unchanged when
    the residual stays connected (cannot divide)."""
    parts, _ = _divide_s_parts(g, coloring, ops)
    return parts


def _divide_node(node):
    g, col = node.graph, node.coloring
    if len(g.vertices) == 1:
        node.kind = SINGLETON_LEAF
        return ()
    parts = divide_p(g, col)
    if len(parts) > 1:
        node.axis = ("divide_p", tuple(c for c in col.cells if len(c) == 1))
    else:
        parts, removed_axis = _divide_s_parts(g, col)
        if len(parts) <= 1:
            node.kind = NON_SINGLETON_LEAF
            return ()
        node.axis = ("divide_s", tuple(removed_axis))
    node.kind = INTERNAL
    node.children = [AutoTreeNode(sg, sc) for sg, sc in parts]
    return node.children


def _grow(node):
    stack = [node]
    while stack:
        stack.extend(_divide_node(stack.pop()))


def equal_form_runs(children):
    """Maximal blocks of adjacent children with equal forms, as ranges of
    child indices."""
    keys = [child.form.key for child in children]
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    bounds = [0, *cuts, len(keys)] if keys else []
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _combine_node(node):
    if node.kind == SINGLETON_LEAF:
        v = node.vertices[0]
        node.gamma, node.form = singleton_form(v, node.coloring.global_pos[v])
    elif node.kind == NON_SINGLETON_LEAF:
        node.gamma, node.form, node.leaf_generators = combine_cl_with_generators(
            node.graph, node.coloring)
    else:
        node.children = sort_children(node.children)
        node.runs = equal_form_runs(node.children)
        node.gamma, node.form = combine_st(node.graph, node.coloring, node.children)


def _combine_subtree(root):
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            _combine_node(node)
            continue
        stack.append((node, True))
        stack.extend((ch, False) for ch in node.children)


def _build_carrier(sub, coloring, graph, input_coloring):
    """Build without reduction on an arbitrary carrier (a Subgraph)."""
    root_cells = refine_cells(sub.adj, [list(c) for c in coloring.cells])
    root_coloring = Coloring(root_cells)
    root = AutoTreeNode(sub, root_coloring)
    _grow(root)
    _combine_subtree(root)
    return AutoTree(root, graph, input_coloring, root_coloring, False)


def _build_tree(graph, coloring, reduce):
    """The tree of a colored graph, plus the class table if it was built on
    the reduced graph (else None)."""
    if coloring is None:
        coloring = unit_coloring(graph.n)
    if coloring.size != graph.n:
        raise ValueError("coloring covers %d vertices, graph has %d"
                         % (coloring.size, graph.n))
    if graph.n == 0:
        return AutoTree(None, graph, coloring, coloring, False), None
    if reduce:
        gs, ps, classes = reduce_structural_equivalence(graph, coloring)
        if any(len(members) > 1 for members in classes.values()):
            return _build_carrier(gs, ps, graph, coloring), classes
    return _build_carrier(Subgraph.whole(graph), coloring, graph, coloring), None


def build(graph, coloring=None, reduce=True):
    """Build the tree of a colored graph.

    reduce (default on) applies the structural-equivalence reduction when it
    finds collapsible twins, then regrows every node for tree-stats and
    --dot; certificates stay sound either way, but trees where reduction
    collapsed anything refuse automorphism extraction.
    """
    at, classes = _build_tree(graph, coloring, reduce)
    return at if classes is None else expand_structural_equivalence(at, classes)


def canonical_form(graph, coloring=None, reduce=True):
    """Certificate of a colored graph: equal exactly for isomorphic inputs.
    The root form of build(graph, coloring, reduce), regrowing only the root."""
    at, classes = _build_tree(graph, coloring, reduce)
    return at.root_form() if classes is None else _regrow_root(at, classes)[0].form


def reduce_structural_equivalence(graph, coloring):
    """Collapse same-cell vertices with identical open neighborhoods.

    Returns (reduced subgraph, reduced coloring, classes); classes maps each
    class representative (its smallest member) to the full class. Vertices
    with identical open neighborhoods are never adjacent, so keeping one
    representative preserves the rest of the structure.

    Representatives of classes of different sizes go into separate cells of
    the reduced coloring, ordered by class size. Without the split, the
    reduced graph could treat a representative standing for one vertex and a
    representative standing for several as interchangeable, and the labeling
    inherited at expansion would not be invariant.
    """
    cell_of = {}
    for i, cell in enumerate(coloring.cells):
        for v in cell:
            cell_of[v] = i
    groups = {}
    for v in range(graph.n):
        groups.setdefault((cell_of[v], graph.adj[v]), []).append(v)
    classes = {members[0]: tuple(members) for members in groups.values()}
    reps = sorted(classes)
    gs = Subgraph.whole(graph).induced(reps)
    cells = []
    for cell in project(coloring, reps).cells:
        by_size = {}
        for v in cell:
            by_size.setdefault(len(classes[v]), []).append(v)
        cells.extend(by_size[size] for size in sorted(by_size))
    ps = Coloring(cells)
    return gs, ps, classes


def _expand_cells(cells, classes):
    return [sorted(x for v in cell for x in classes[v]) for cell in cells]


def _clone(old, classes, pos):
    """The expanded copy of a reduced node, without children."""
    adj = {}
    for v in old.vertices:
        nbrs = [x for u in old.graph.adj[v] for x in classes[u]]
        adj.update(dict.fromkeys(classes[v], nbrs))
    graph = Subgraph(adj.keys(), adj)
    coloring = Coloring(_expand_cells(old.coloring.cells, classes),
                        global_pos={x: pos[x] for x in graph.vertices})
    node = AutoTreeNode(graph, coloring)
    node.kind = old.kind
    node.axis = old.axis
    rank = {x: (label, x) for v, label in old.gamma.items() for x in classes[v]}
    node.gamma = ranked_gamma(coloring, rank.__getitem__)
    node.form = certificate(graph, coloring, node.gamma)
    return node


def _twin_leaf(x, pos):
    node = AutoTreeNode(Subgraph((x,), {x: ()}),
                        Coloring([[x]], global_pos={x: pos[x]}))
    node.kind = SINGLETON_LEAF
    node.gamma, node.form = singleton_form(x, pos[x])
    return node


def _regrow_root(at_s, classes):
    """The expanded root of a reduced tree, labeled and certified, plus each
    original vertex's global position, which regrows the nodes below it."""
    pos = Coloring(_expand_cells(at_s.root_coloring.cells, classes)).global_pos
    old_root = at_s.root
    members = classes[old_root.vertices[0]]
    if old_root.kind != SINGLETON_LEAF or len(members) == 1:
        return _clone(old_root, classes, pos), pos
    root = AutoTreeNode(Subgraph(members, dict.fromkeys(members, ())),
                        Coloring([members], global_pos=pos))
    root.kind = INTERNAL
    root.axis = ("twin_expansion", members)
    root.children = [_twin_leaf(x, pos) for x in members]
    root.gamma = ranked_gamma(root.coloring, lambda x: x)
    root.form = certificate(root.graph, root.coloring, root.gamma)
    return root, pos


def expand_structural_equivalence(at_s, classes):
    """Regrow a tree built on the reduced graph to cover the original, every
    node of it; canonical_form regrows only the root (_regrow_root).

    Every node's carrier is expanded through the class table, with adjacency
    copied from representatives (classmates are never adjacent to each
    other). A singleton leaf whose representative has classmates gains one
    sibling singleton leaf per classmate; a reduced root that was itself a
    singleton leaf turns into an internal node over the regrown twins.

    Labelings are inherited rather than recomputed: within each cell, an
    expanded node orders vertices by their representative's label on the
    reduced carrier, classmates consecutively. Re-running the combine pass
    could break certificate ties between expanded siblings in an order no
    automorphism of the original graph realizes; the inherited order is
    realized by construction, because class sizes are part of the reduced
    coloring. Axis descriptors keep the reduced vertex ids they were
    computed from.
    """
    root, pos = _regrow_root(at_s, classes)
    stack = [(at_s.root, root)]
    while stack:
        old, new = stack.pop()
        for ch in old.children:
            if ch.kind == SINGLETON_LEAF and len(classes[ch.vertices[0]]) > 1:
                new.children.extend(_twin_leaf(x, pos) for x in classes[ch.vertices[0]])
                continue
            nch = _clone(ch, classes, pos)
            new.children.append(nch)
            stack.append((ch, nch))
    for node in root.walk():
        node.runs = equal_form_runs(node.children)
    return AutoTree(root, at_s.graph, at_s.coloring, root.coloring, True)


def tree_stats(at):
    """Structure counts: total nodes, leaf counts by kind, mean non-singleton
    leaf size (0.0 if none), and depth (edges on the longest root-leaf path).
    """
    if at.root is None:
        return {"nodes": 0, "singleton_leaves": 0, "non_singleton_leaves": 0,
                "avg_leaf_size": 0.0, "depth": 0}
    nodes = 0
    singles = 0
    sizes = []
    depth = 0
    stack = [(at.root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if node.kind == SINGLETON_LEAF:
            singles += 1
        elif node.kind == NON_SINGLETON_LEAF:
            sizes.append(len(node.vertices))
        stack.extend((ch, d + 1) for ch in node.children)
    return {"nodes": nodes, "singleton_leaves": singles,
            "non_singleton_leaves": len(sizes),
            "avg_leaf_size": sum(sizes) / len(sizes) if sizes else 0.0,
            "depth": depth}


def _vertex_label(vertices):
    if len(vertices) <= 12:
        return "{%s}" % ",".join(str(v) for v in vertices)
    head = ",".join(str(v) for v in vertices[:10])
    return "{%s,... %d vertices}" % (head, len(vertices))


def to_dot(at):
    """GraphViz text for the tree; each node shows its vertex set, kind, and
    a short digest of its certificate (display only, never compared)."""
    lines = ["digraph autotree {", "  node [shape=box];"]
    if at.root is not None:
        ids = {}
        order = []
        stack = [at.root]
        while stack:
            node = stack.pop()
            ids[id(node)] = len(order)
            order.append(node)
            stack.extend(reversed(node.children))
        for node in order:
            digest = (sha1(node.form.serialize().encode()).hexdigest()[:10]
                      if node.form is not None else "unlabeled")
            label = "%s\\n%s\\n%s" % (_vertex_label(node.vertices), node.kind, digest)
            lines.append('  n%d [label="%s"];' % (ids[id(node)], label))
        for node in order:
            for ch in node.children:
                lines.append("  n%d -> n%d;" % (ids[id(node)], ids[id(ch)]))
    lines.append("}")
    return "\n".join(lines) + "\n"
