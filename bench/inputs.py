"""Seeded input graphs of the three benchmark workloads, written as DIMACS.

Every graph comes from the workload name and the seed alone, so the same
seed always gives the same files. The files are what the program parses;
the generator objects never reach it. DIMACS keeps the generated vertex
ids (an edge list would renumber them by first appearance), which lets the
ssm-query workload name its query vertices.

Regenerate the inputs of one workload with

    python3 bench/inputs.py --workload heavy-tail --seed 1

which writes them under bench/generated/.
"""

import argparse
import os
import random

WORKLOADS = ("heavy-tail", "symmetric-leaf", "ssm-query")

GENERATED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "generated")

# Fixed sizes and attachment counts, so that the seed changes the wiring
# but not the amount of work.
HEAVY_TAIL_N = 400
HEAVY_TAIL_GRAPHS = 9
COCKTAIL_K = 10
PALEY_P = 61
HYPERCUBE_D = 6
CUBIC_N = 120
SSM_N = 700
SSM_PENDANTS = 12
SSM_GADGET_COPIES = 6
SSM_HUB_LINKS = 150


def _attachment_counts(n):
    """How many edges each new vertex sends: one edge 45% of the time, two
    edges 15%, otherwise a heavy-tailed count up to 24. Drawn from a fixed
    stream, not the seed, so every graph of one size has the same number of
    edges.

    The mix is fitted to no real graph. It was chosen so that tree division
    and projection do the work: a vertex that sends one edge is a pendant of
    a hub, and the pendants of one hub are open twins."""
    rng = random.Random("attachment-counts")
    counts = []
    for v in range(n):
        r = rng.random()
        if r < 0.45:
            counts.append(1)
        elif r < 0.6:
            counts.append(2)
        else:
            counts.append(min(24, int(3 / (1.0 - rng.random()) ** 0.7)))
    return counts


def heavy_tail_graph(rng, n):
    """Preferential attachment over a 4-clique. One edge per new vertex is
    the most common case, so hubs collect many pendant vertices with the
    same single neighbour: open twins."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    ends = [v for e in edges for v in e]
    counts = _attachment_counts(n)
    for v in range(4, n):
        targets = set()
        while len(targets) < min(counts[v], v):
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((t, v))
            ends.extend((t, v))
    return n, edges


def relabel(rng, n, edges):
    """The edges under a random permutation of 0..n-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def cocktail_party(k):
    """K_2k minus a perfect matching: group order 2^k k!."""
    n = 2 * k
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + k]


def paley(p):
    """Paley graph of a prime p = 1 mod 4: group order p(p-1)/2."""
    squares = {x * x % p for x in range(1, p)}
    return p, [(u, v) for u in range(p) for v in range(u + 1, p)
               if (v - u) % p in squares]


def hypercube(d):
    """Q_d: group order 2^d d!."""
    n = 1 << d
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d)
               if u < u ^ (1 << b)]


def random_cubic(rng, n):
    """Random 3-regular simple graph by the pairing model, drawing again
    whenever a pairing makes a loop or a multi-edge."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            return n, sorted(edges)


def ssm_graph(rng):
    """Heavy-tailed graph plus planted interchangeable structure.

    Returns (n, edges, plan). The plan names the vertices queries are drawn
    from: the pendant leaves of a hub whose degree no other vertex has, the
    copies of a small gadget hung off one anchor vertex, and two Petersen
    graphs.
    """
    n, edges = heavy_tail_graph(rng, SSM_N)
    nxt = n
    # Gadgets: copies of a triangle with a tail, each hung by its tail off one
    # anchor, so the copies are interchangeable siblings.
    gadget_anchor = rng.randrange(n)
    gadgets = []
    for _ in range(SSM_GADGET_COPIES):
        tail, a, b, c = nxt, nxt + 1, nxt + 2, nxt + 3
        nxt += 4
        edges += [(gadget_anchor, tail), (tail, a), (a, b), (b, c), (a, c)]
        gadgets.append((tail, a, b, c))
    # Two Petersen graphs, each with an apex joined to all ten of its
    # vertices, and both apexes hung off one anchor: each Petersen graph is
    # an irreducible leaf of the tree (group S5), and the two copies are
    # interchangeable siblings.
    petersen_anchor = rng.randrange(n)
    petersens = []
    for _ in range(2):
        apex, ring = nxt, list(range(nxt + 1, nxt + 11))
        nxt += 11
        edges.append((petersen_anchor, apex))
        edges += [(apex, v) for v in ring]
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
        edges += [(ring[5 + i], ring[5 + (i + 2) % 5]) for i in range(5)]
        edges += [(ring[i], ring[5 + i]) for i in range(5)]
        petersens.append(ring)
    # The pendant hub is joined to SSM_HUB_LINKS vertices of the heavy part
    # besides its pendant leaves. That lifts its degree above every other
    # vertex's, so every automorphism fixes it and the only images of a set
    # of its leaves are the other sets of its leaves.
    hub = nxt
    leaves = list(range(hub + 1, hub + 1 + SSM_PENDANTS))
    nxt = leaves[-1] + 1
    edges += [(v, hub) for v in sorted(rng.sample(range(n), SSM_HUB_LINKS))]
    edges += [(hub, v) for v in leaves]
    degree = [0] * nxt
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if sorted(degree)[-2] >= degree[hub]:
        raise ValueError("the pendant hub's degree is not unique")
    plan = {"pendant_hub": hub, "pendants": leaves, "gadgets": gadgets,
            "petersens": petersens, "heavy_n": n}
    return nxt, edges, plan


# One round of ssm-query: how many queries of each kind, out of 1,000. The
# cheap kinds make up 910, so the median lies well inside them. Above them
# come 50 three-gadget queries, 35 three-leaf and 5 four-leaf pendant
# queries; the 99th percentile (the 990th time) lies inside the three-leaf
# pendant band, 5 from its top and 29 from its bottom, with 10 times beyond.
QUERY_MIX = (("hub", 150), ("connected", 500), ("gadget-one", 50), ("gadget-pair", 50),
             ("gadget-across2", 50), ("gadget-across3", 50), ("petersen-pair", 30),
             ("petersen-across", 20), ("pendant2", 60), ("pendant3", 35), ("pendant4", 5))


def ssm_queries(rng, n, edges, plan):
    """One round of (kind, vertices) queries for the ssm-query graph."""
    heavy = plan["heavy_n"]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    hubs = sorted(range(heavy), key=lambda v: (-len(adj[v]), v))[:12]

    def connected():
        size = rng.randint(2, 4)
        grown = [rng.randrange(heavy)]
        while len(grown) < size:
            u = rng.choice(adj[rng.choice(grown)])
            if u not in grown:
                grown.append(u)
        return grown

    gadgets = plan["gadgets"]
    make = {
        "hub": lambda: rng.sample(hubs, rng.randint(2, 4)),
        "connected": connected,
        "gadget-one": lambda: [rng.choice(rng.choice(gadgets))],
        "gadget-pair": lambda: rng.sample(rng.choice(gadgets), 2),
        "gadget-across2": lambda: [g[1] for g in rng.sample(gadgets, 2)],
        "gadget-across3": lambda: [g[2] for g in rng.sample(gadgets, 3)],
        "petersen-pair": lambda: rng.sample(rng.choice(plan["petersens"]), 2),
        "petersen-across": lambda: [rng.choice(ring) for ring in plan["petersens"]],
    }
    for s in (2, 3, 4):
        make["pendant%d" % s] = lambda s=s: rng.sample(plan["pendants"], s)
    queries = [(kind, tuple(sorted(make[kind]()))) for kind, count in QUERY_MIX
               for _ in range(count)]
    rng.shuffle(queries)
    return queries


def dimacs(n, edges):
    lines = ["p edge %d %d" % (n, len(edges))]
    lines.extend("e %d %d" % (u + 1, v + 1) for u, v in edges)
    return "\n".join(lines) + "\n"


def workload_graphs(workload, seed):
    """[(name, n, edges)] for a workload, plus the ssm-query plan of planted
    vertices and queries (None for the other workloads)."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "heavy-tail":
        return [("pa%d-%02d" % (HEAVY_TAIL_N, i),) + heavy_tail_graph(rng, HEAVY_TAIL_N)
                for i in range(1, HEAVY_TAIL_GRAPHS + 1)], None
    if workload == "symmetric-leaf":
        graphs = []
        for name, (n, edges) in (("cocktail%d" % COCKTAIL_K, cocktail_party(COCKTAIL_K)),
                                 ("paley%d" % PALEY_P, paley(PALEY_P))):
            for i in (1, 2):
                graphs.append(("%s-%d" % (name, i), n, relabel(rng, n, edges)))
        for i in (1, 2, 3):
            graphs.append(("cubic%d-%d" % (CUBIC_N, i),) + random_cubic(rng, CUBIC_N))
        # The hypercube's cost depends tenfold on its vertex labels (the IR
        # search keeps up to 195 generators where 21 suffice), so it comes in
        # its natural labels and in one fixed relabeling, the same for every
        # seed: the waste shows in every run at the same size.
        n, edges = hypercube(HYPERCUBE_D)
        graphs.append(("hypercube%d-natural" % HYPERCUBE_D, n, edges))
        graphs.append(("hypercube%d-fixed" % HYPERCUBE_D, n,
                       relabel(random.Random("hypercube"), n, edges)))
        return graphs, None
    if workload == "ssm-query":
        n, edges, plan = ssm_graph(rng)
        plan["queries"] = ssm_queries(rng, n, edges, plan)
        return [("ssm", n, edges)], plan
    raise ValueError("unknown workload %r" % workload)


def write_inputs(workload, seed, root=GENERATED):
    """Write a workload's graphs as DIMACS files, and the ssm-query queries
    as one "kind v v ..." line each; returns ([(name, path)], graphs, plan)
    with graphs and plan as workload_graphs gives them.

    Each file is written to a temporary name and renamed, so a reader never
    sees a partial file.
    """
    graphs, plan = workload_graphs(workload, seed)
    out = os.path.join(root, "%s-seed%d" % (workload, seed))
    os.makedirs(out, exist_ok=True)
    files = []
    for name, n, edges in graphs:
        path = os.path.join(out, name + ".dimacs")
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w") as fh:
            fh.write(dimacs(n, edges))
        os.replace(tmp, path)
        files.append((name, path))
    if plan is not None:
        path = os.path.join(out, "queries.txt")
        with open(path + ".tmp%d" % os.getpid(), "w") as fh:
            fh.writelines("%s %s\n" % (kind, " ".join(map(str, q)))
                          for kind, q in plan["queries"])
        os.replace(path + ".tmp%d" % os.getpid(), path)
    return files, graphs, plan


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    files, _, _ = write_inputs(args.workload, args.seed)
    for _, path in files:
        print(path)


if __name__ == "__main__":
    main()
