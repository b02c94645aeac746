"""Permutation group primitives shared by the labeler and the queries.

A permutation is anything indexed as g[v]: a dict on a leaf carrier or a
list on the whole vertex range. Every function here only reads g[v] for
points of the domain it is given, so both forms work.
"""


def orbit_roots(gens, points):
    """Map each point to the least point of its orbit under gens.

    points must be closed under every generator.
    """
    parent = {v: v for v in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for v in parent:
            w = g[v]
            if w == v:
                continue
            a, b = find(v), find(w)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in parent}


def set_orbit(seed, gens, track):
    """Orbit of the vertex set seed under gens.

    Maps each image set to [g[x] for x in track], where g is the product of
    the generators along the path that first reached the set. The search is
    a stack that tries the generators in their given order, so the recorded
    products depend only on that order.
    """
    start = frozenset(seed)
    found = {start: list(track)}
    stack = [start]
    while stack:
        current = stack.pop()
        tracked = found[current]
        for g in gens:
            image = frozenset([g[v] for v in current])
            if image not in found:
                found[image] = [g[x] for x in tracked]
                stack.append(image)
    return found


def order(gens, domain):
    """Order of the group gens generate on domain, by orbit-stabilizer:
    the orbit size of the least moved point times the order of its
    stabilizer, which is presented by its Schreier generators."""
    total = 1
    while True:
        gens = [g for g in gens if any(g[v] != v for v in domain)]
        if not gens:
            return total
        base = min(v for v in domain if any(g[v] != v for g in gens))
        transversal = {base: {v: v for v in domain}}
        stack = [base]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if y not in transversal:
                    transversal[y] = {v: g[w]
                                      for v, w in transversal[x].items()}
                    stack.append(y)
        inverse = {y: {image: v for v, image in t.items()}
                   for y, t in transversal.items()}
        stabilizer = {}
        for x, t in transversal.items():
            for g in gens:
                # t sends base to x; t, then g, then the inverse of the
                # transversal element at g[x] fixes base.
                back = inverse[g[x]]
                s = {v: back[g[w]] for v, w in t.items()}
                if any(v != w for v, w in s.items()):
                    stabilizer.setdefault(tuple(sorted(s.items())), s)
        total *= len(transversal)
        gens = list(stabilizer.values())
