"""Core graph, coloring, permutation and certificate types plus file I/O."""

from __future__ import annotations


class ParseError(Exception):
    """Raised for malformed input files or queries (CLI exit code 2)."""


class InternalConsistencyError(Exception):
    """Raised when a self-check fails, e.g. a candidate automorphism does not
    verify (CLI exit code 3)."""


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    adj is a tuple of sorted neighbor tuples. Parallel edges and self loops
    are rejected at construction.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n, edges):
        nbrs = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self loop %d-%d" % (u, v))
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range in edge %d-%d" % (u, v))
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError("duplicate edge %d-%d" % (u, v))
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.adj = tuple(tuple(sorted(ns)) for ns in nbrs)
        self.m = len(seen)

    def edges(self):
        """Sorted list of (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def has_edge(self, u, v):
        return v in self.adj[u]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def apply_permutation(graph, gamma):
    """Relabel a graph by gamma, where gamma[v] is the new id of v."""
    return Graph(graph.n, [(gamma[u], gamma[v]) for u, v in graph.edges()])


def format_cycles(gamma):
    """Cycle notation with fixed points omitted, e.g. "(0,2)(4,5,6)".

    The identity renders as "()". Cycles are listed by smallest member and
    each cycle starts at its smallest member.
    """
    n = len(gamma)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or gamma[start] == start:
            seen[start] = True
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = gamma[v]
        cycles.append(cyc)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(v) for v in cyc) + ")" for cyc in cycles)


class Coloring:
    """An ordered partition of a vertex set into cells.

    The color (position) of a vertex is the number of vertices in earlier
    cells, so a coloring [a,b | c] gives positions a,b -> 0 and c -> 2.
    global_pos optionally carries positions inherited from an enclosing
    graph's coloring; it defaults to this coloring's own positions.
    """

    __slots__ = ("cells", "global_pos", "_pos", "_cell_of")

    def __init__(self, cells, global_pos=None):
        self.cells = tuple(tuple(sorted(c)) for c in cells)
        pos = {}
        cell_of = {}
        offset = 0
        for i, cell in enumerate(self.cells):
            if not cell:
                raise ValueError("empty cell at index %d" % i)
            for v in cell:
                if v in cell_of:
                    raise ValueError("vertex %d in two cells" % v)
                pos[v] = offset
                cell_of[v] = i
            offset += len(cell)
        self._pos = pos
        self._cell_of = cell_of
        self.global_pos = dict(global_pos) if global_pos is not None else pos

    @property
    def size(self):
        return len(self._pos)

    def vertices(self):
        return sorted(self._pos)

    def position(self, v):
        return self._pos[v]

    def cell_index(self, v):
        return self._cell_of[v]

    def is_discrete(self):
        return all(len(c) == 1 for c in self.cells)

    def __eq__(self, other):
        return isinstance(other, Coloring) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return "[" + " | ".join(",".join(str(v) for v in c) for c in self.cells) + "]"


def unit_coloring(n):
    """Single-cell coloring of vertices 0..n-1 (empty for n=0)."""
    return Coloring([range(n)] if n else [])


class CanonicalForm:
    """Certificate of a colored graph: (label, color) pairs plus a relabeled
    edge list. Compared as explicit tuples, never as hashes."""

    __slots__ = ("vertex_labels", "edges")

    def __init__(self, vertex_labels, edges):
        self.vertex_labels = tuple(sorted(tuple(p) for p in vertex_labels))
        self.edges = tuple(sorted(tuple(e) for e in edges))
        for a, b in self.edges:
            if a >= b:
                raise ValueError("edge (%d,%d) not in a<b order" % (a, b))

    @property
    def key(self):
        return (self.vertex_labels, self.edges)

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __hash__(self):
        return hash(self.key)

    def serialize(self):
        """Text certificate: "n m", colors by label order, then sorted edges."""
        colors = " ".join(str(color) for _, color in self.vertex_labels)
        lines = ["%d %d" % (len(self.vertex_labels), len(self.edges)), colors]
        lines.extend("%d %d" % e for e in self.edges)
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "CanonicalForm(labels=%r, edges=%r)" % (self.vertex_labels, self.edges)


def form_of(graph_edges, labeling, colors):
    """Build a CanonicalForm from an edge iterable, a vertex->label map and a
    vertex->color map."""
    vl = [(labeling[v], colors[v]) for v in labeling]
    es = []
    for u, v in graph_edges:
        a, b = labeling[u], labeling[v]
        es.append((a, b) if a < b else (b, a))
    return CanonicalForm(vl, es)


def load_edge_list(text):
    """Parse "u v" lines into a Graph plus a unit coloring.

    '#' starts a comment, raw vertex names are compacted to 0..n-1 in order
    of first appearance, duplicate edges and self loops are dropped, and an
    empty input yields the empty graph.
    """
    ids = {}
    edges = set()

    def vid(tok):
        if tok not in ids:
            ids[tok] = len(ids)
        return ids[tok]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected two vertex ids, got %r" % (lineno, raw))
        u, v = vid(parts[0]), vid(parts[1])
        if u == v:
            continue
        edges.add((u, v) if u < v else (v, u))
    n = len(ids)
    return Graph(n, sorted(edges)), unit_coloring(n)


def load_dimacs(text):
    """Parse a DIMACS/bliss file into a Graph plus a Coloring.

    "p edge n m" must come first, "e u v" lines are 1-indexed, optional
    "n v c" lines assign color c to vertex v (default 0), and cells are
    ordered by ascending declared color. Self loops and duplicate edges are
    dropped; every e line still counts toward the declared edge total.
    """
    n = None
    declared_m = 0
    edge_lines = 0
    edges = set()
    colors = {}
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise ParseError("line %d: duplicate problem line" % lineno)
                if len(parts) != 4 or parts[1] != "edge":
                    raise ParseError("line %d: malformed problem line %r" % (lineno, raw))
                n, declared_m = int(parts[2]), int(parts[3])
                if n < 0 or declared_m < 0:
                    raise ParseError("line %d: negative count in %r" % (lineno, raw))
            elif parts[0] == "e":
                if n is None:
                    raise ParseError("line %d: edge before problem line" % lineno)
                if len(parts) != 3:
                    raise ParseError("line %d: malformed edge line %r" % (lineno, raw))
                u, v = int(parts[1]), int(parts[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ParseError("line %d: vertex out of range" % lineno)
                edge_lines += 1
                if u != v:
                    u, v = u - 1, v - 1
                    edges.add((u, v) if u < v else (v, u))
            elif parts[0] == "n":
                if n is None:
                    raise ParseError("line %d: color before problem line" % lineno)
                if len(parts) != 3:
                    raise ParseError("line %d: malformed color line %r" % (lineno, raw))
                v, c = int(parts[1]), int(parts[2])
                if not (1 <= v <= n):
                    raise ParseError("line %d: vertex out of range" % lineno)
                colors[v - 1] = c
            else:
                raise ParseError("line %d: unknown record %r" % (lineno, raw))
    except ValueError:
        # int() met a token that is not an integer.
        raise ParseError("line %d: expected integers, got %r"
                         % (lineno, raw)) from None
    if n is None:
        raise ParseError("missing problem line")
    if edge_lines != declared_m:
        raise ParseError("edge count mismatch: header says %d, found %d" % (declared_m, edge_lines))
    by_color = {}
    for v in range(n):
        by_color.setdefault(colors.get(v, 0), []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    return Graph(n, sorted(edges)), Coloring(cells) if n else unit_coloring(0)


def load_graph(path, fmt=None):
    """Read a graph file. fmt is "el", "dimacs", or None to pick by extension
    (.dimacs/.col/.clq mean DIMACS, anything else means edge list)."""
    with open(path) as fh:
        text = fh.read()
    if fmt is None:
        lower = str(path).lower()
        fmt = "dimacs" if lower.endswith((".dimacs", ".col", ".clq")) else "el"
    if fmt == "dimacs":
        return load_dimacs(text)
    if fmt == "el":
        return load_edge_list(text)
    raise ParseError("unknown format %r" % fmt)
