"""Correctness checks on the program's outputs, computed apart from it.

Each check works on plain data (vertex count, edge list, colour list and
the program's returned values) and raises CheckFailed with a reason when an
output is wrong. None of them compares against saved output: they test a
property the method must have, or recompute the answer by other means
(union-find, colour refinement, backtracking, closed forms).
"""

import math
import re


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_automorphism(adj, colors, perm, what="generator"):
    """perm (a list) is a permutation of 0..n-1 that keeps every vertex's
    colour and maps the edge set onto itself.

    Only moved vertices are examined: an edge between two fixed vertices
    maps to itself, and a bijection that maps every edge at a moved vertex
    to an edge maps the finite edge set onto itself.
    """
    n = len(adj)
    require(len(perm) == n and sorted(perm) == list(range(n)),
            "%s is not a permutation of 0..%d" % (what, n - 1))
    for v in range(n):
        w = perm[v]
        if w == v:
            continue
        require(colors[v] == colors[w], "%s moves %d to %d across colours" % (what, v, w))
        require({perm[u] for u in adj[v]} == adj[w],
                "%s breaks the edges at %d" % (what, v))


def colour_refinement(adj, colors):
    """Coarsest equitable refinement of a vertex colouring (1-dimensional
    Weisfeiler-Leman), as a list of class ids."""
    n = len(adj)
    cls = list(colors)
    classes = len(set(cls))
    while True:
        sig = [(cls[v], tuple(sorted(cls[u] for u in adj[v]))) for v in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if len(ids) == classes:
            return new
        cls, classes = new, len(ids)


def union_find_orbits(n, gens):
    """Orbits of the group the permutations generate, each sorted, ordered by
    smallest member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbit = {}
    for v in range(n):
        orbit.setdefault(find(v), []).append(v)
    return sorted(orbit.values())


def check_orbits(adj, colors, gens, orbits, order):
    """orbits equal the union-find closure of gens, each orbit lies inside one
    colour-refinement class, and each orbit size divides the group order."""
    require([list(o) for o in orbits] == union_find_orbits(len(adj), gens),
            "orbits differ from the union-find closure of the generators")
    wl = colour_refinement(adj, colors)
    for orbit in orbits:
        require(len({wl[v] for v in orbit}) == 1,
                "orbit of %d spans several refinement classes" % orbit[0])
        require(order % len(orbit) == 0,
                "orbit size %d does not divide the group order" % len(orbit))


def open_twin_classes(adj, colors):
    """Classes of same-coloured vertices with equal open neighbourhoods."""
    groups = {}
    for v in range(len(adj)):
        groups.setdefault((colors[v], frozenset(adj[v])), []).append(v)
    return list(groups.values())


def check_twin_divisibility(adj, colors, order):
    """Every permutation of an open-twin class is an automorphism, so the
    group order is divisible by the product of the class-size factorials."""
    product = 1
    for cls in open_twin_classes(adj, colors):
        product *= math.factorial(len(cls))
    require(order % product == 0,
            "group order is not divisible by the twin factorials %d" % product)


def check_certificate(n, edges, colors, form, gamma):
    """form equals the coloured input relabeled by gamma.

    The edge part must be exactly the input edges relabeled. Each vertex's
    certificate colour is the first label of its cell, so a colour c on s
    vertices must own the labels c..c+s-1, and the cells must refine the
    input colouring's coarsest equitable refinement.
    """
    require(sorted(gamma) == list(range(n)) and sorted(gamma.values()) == list(range(n)),
            "gamma is not a bijection onto 0..%d" % (n - 1))
    relabeled = sorted((min(gamma[u], gamma[v]), max(gamma[u], gamma[v]))
                       for u, v in edges)
    require(list(form.edges) == relabeled,
            "certificate edges are not the input relabeled by gamma")
    labels = dict(form.vertex_labels)
    require(sorted(labels) == list(range(n)), "certificate labels are not 0..%d" % (n - 1))
    by_colour = {}
    for v in range(n):
        by_colour.setdefault(labels[gamma[v]], []).append(v)
    wl = colour_refinement(adjacency(n, edges), colors)
    for c, cell in by_colour.items():
        require(sorted(gamma[v] for v in cell) == list(range(c, c + len(cell))),
                "certificate colour %d does not own its labels" % c)
        require(len({wl[v] for v in cell}) == 1,
                "certificate colour %d mixes refinement classes" % c)
        require(len({colors[v] for v in cell}) == 1,
                "certificate colour %d mixes input colours" % c)


def distance_profile(adj, s):
    dist = {s: 0}
    queue = [s]
    for v in queue:
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    counts = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        counts[d] += 1
    return tuple(counts)


def count_automorphisms(adj):
    """|Aut| of an uncoloured graph by plain backtracking: vertices are placed
    in breadth-first order, each onto an unused vertex with the same distance
    profile (how many vertices lie at each distance, which every automorphism
    keeps) that is adjacent to the images of exactly its placed neighbours."""
    n = len(adj)
    profile = [distance_profile(adj, v) for v in range(n)]
    order, seen = [], [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        for v in queue:
            order.append(v)
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[u for u in adj[v] if pos[u] < pos[v]] for v in order]
    image = [None] * n
    used = [False] * n

    def candidates(i):
        v, placed = order[i], earlier[i]
        pool = adj[image[placed[0]]] if placed else range(n)
        return iter([w for w in pool
                     if not used[w] and profile[w] == profile[v]
                     and all(image[u] in adj[w] for u in placed)
                     and sum(1 for x in adj[w] if used[x]) == len(placed)])

    count = 0
    levels = [candidates(0)]
    while levels:
        v = order[len(levels) - 1]
        if image[v] is not None:
            used[image[v]] = False
            image[v] = None
        w = next(levels[-1], None)
        if w is None:
            levels.pop()
            continue
        image[v] = w
        used[w] = True
        if len(levels) == n:
            count += 1
        else:
            levels.append(candidates(len(levels)))
    return count


def check_ssm_family(q, family, gens, gens_by_vertex, counted, exact=None):
    """q is among its images, the family is closed under every generator,
    its size is the program's own image count, and, where the answer is
    known in closed form, that size."""
    q = frozenset(q)
    require(q in family, "query is missing from its own images")
    for image in family:
        require(len(image) == len(q), "an image has the wrong size")
        touching = set()
        for v in image:
            touching.update(gens_by_vertex.get(v, ()))
        for i in touching:
            require(frozenset(gens[i][v] for v in image) in family,
                    "family is not closed under a generator")
    require(len(family) == counted,
            "family has %d images, count_set_images says %d" % (len(family), counted))
    if exact is not None:
        require(len(family) == exact,
                "family has %d images, expected exactly %d" % (len(family), exact))


def index_generators(gens):
    """Each vertex to the indices of the generators that move it."""
    by_vertex = {}
    for i, g in enumerate(gens):
        for v, w in enumerate(g):
            if v != w:
                by_vertex.setdefault(v, []).append(i)
    return by_vertex


def check_witnesses(adj, colors, q, family, witnesses):
    """Every image has one verified automorphism that carries q onto it."""
    require(set(witnesses) == set(family), "witnessed images differ from the family")
    for image, perm in witnesses.items():
        check_automorphism(adj, colors, perm, "witness")
        require(frozenset(perm[v] for v in q) == image, "witness misses its image")


def closed_form_order(name):
    """Group order of the named symmetric-leaf family member, or None when
    there is no closed form (random cubic graphs)."""
    formulas = {"cocktail": lambda k: 2 ** k * math.factorial(k),
                "paley": lambda p: p * (p - 1) // 2,
                "hypercube": lambda d: 2 ** d * math.factorial(d)}
    family = re.match(r"([a-z]+)(\d+)", name)
    if family.group(1) not in formulas:
        return None
    return formulas[family.group(1)](int(family.group(2)))

