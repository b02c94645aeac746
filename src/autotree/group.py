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


class _Level:
    """One level of a stabilizer chain: its base point, the strong
    generators that fix every earlier base point, and the orbit of the base
    point under them. forward[y] sends the base point to y and backward[y]
    is its inverse; orbit lists the points in the order they were reached.
    """

    __slots__ = ("base", "gens", "orbit", "forward", "backward", "done")

    def __init__(self, base, k):
        identity = list(range(k))
        self.base = base
        self.gens = []
        self.orbit = [base]
        self.forward = {base: identity}
        self.backward = {base: identity}
        # done[i]: how many of gens have had their Schreier generator at
        # orbit[i] sifted; gens only grows, so these pairs stay checked.
        self.done = [0]

    def add(self, g):
        """Add a strong generator and extend the orbit and transversal."""
        self.gens.append(g)
        orbit, forward, backward = self.orbit, self.forward, self.backward
        old = len(orbit)
        i = 0
        while i < len(orbit):
            x = orbit[i]
            for h in ((g,) if i < old else self.gens):
                y = h[x]
                if y not in forward:
                    u = [h[w] for w in forward[x]]
                    inverse = [0] * len(u)
                    for w, image in enumerate(u):
                        inverse[image] = w
                    forward[y] = u
                    backward[y] = inverse
                    orbit.append(y)
                    self.done.append(0)
            i += 1


def _sift(chain, h, start):
    """Strip h through the levels of chain from start on.

    Returns (residue, level): the residue fixes the base points of every
    level before level, and either its base-point image at level is outside
    that orbit, or level == len(chain) and the residue fixes every base
    point. The residue is None when h lies in the chain's group.
    """
    for level in range(start, len(chain)):
        step = chain[level]
        y = h[step.base]
        if y == step.base:
            continue
        back = step.backward.get(y)
        if back is None:
            return h, level
        h = [back[w] for w in h]
    return (None if h == list(range(len(h))) else h), len(chain)


def _add_strong(chain, h, first, level):
    """Add h as a strong generator to the levels first..level of chain,
    opening a new level when h fixes every base point. A new level's base
    point is the least point h moves."""
    if level == len(chain):
        chain.append(_Level(next(x for x, y in enumerate(h) if x != y),
                            len(h)))
    for step in chain[first:level + 1]:
        step.add(h)


def _complete(chain, level):
    """Sift the unchecked Schreier generators of one level through the
    deeper levels. Returns the next level to check: the level of the first
    non-trivial residue, which is added there, or level - 1 when every
    Schreier generator sifts to the identity."""
    step = chain[level]
    forward, backward, gens, done = (step.forward, step.backward, step.gens,
                                     step.done)
    for i, x in enumerate(step.orbit):
        u = forward[x]
        while done[i] < len(gens):
            g = gens[done[i]]
            done[i] += 1
            # u sends the base point to x and g sends x on to y; following
            # them by the inverse of forward[y] fixes the base point.
            moved = [g[w] for w in u]
            y = moved[step.base]
            if moved == forward[y]:
                continue
            back = backward[y]
            residue, deeper = _sift(chain, [back[w] for w in moved],
                                    level + 1)
            if residue is not None:
                _add_strong(chain, residue, level + 1, deeper)
                return deeper
    return level - 1


def order(gens, domain):
    """Order of the group gens generate on domain, by Schreier–Sims.

    The domain is sorted and mapped to indices 0..k-1, and every
    permutation becomes a list on those indices. The stabilizer chain is
    built deterministically (Seress, Permutation Group Algorithms, 2003,
    ch. 4): each generator is sifted through the chain in its given order
    and dropped if it sifts to the identity; otherwise its residue becomes a
    strong generator at every level up to its own. A new level's base point
    is the least point moved by the residue that opened it. Completion then
    checks the levels from the deepest up: the Schreier generator of each
    (orbit point, strong generator) pair is sifted through the deeper levels
    once, and a non-trivial residue is added there and checking resumes at
    its level. The order is the product of the orbit sizes, an exact int.

    The result does not depend on how redundant the generating set is, and
    a redundant generator costs one sift. With a base of length b and s
    strong generators, a sift costs O(b·k) and completion sifts at most
    b·k·s Schreier generators; the transversals take O(b·k^2) memory.
    """
    points = sorted(domain)
    index = {v: i for i, v in enumerate(points)}
    chain = []
    for g in gens:
        residue, level = _sift(chain, [index[g[v]] for v in points], 0)
        if residue is not None:
            _add_strong(chain, residue, 0, level)
    level = len(chain) - 1
    while level >= 0:
        level = _complete(chain, level)
    total = 1
    for step in chain:
        total *= len(step.orbit)
    return total
