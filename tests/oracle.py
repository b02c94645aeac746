"""Brute-force reference implementations used by the test suite.

Everything here enumerates permutations outright, guarded to small n, so the
main algorithms can be checked against an independent source of truth. None
of this is wired into the CLI.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import random
from collections import deque

from autotree.graphs import CanonicalForm, Coloring, Graph, unit_coloring
from autotree.refine import refine_cells

BRUTE_LIMIT = 8
EXHAUSTIVE_LIMIT = 6
SAMPLE_LIMIT = 12


def reference_refine_cells(adj, cells, active=None):
    """The dict-and-order-list refinement that refine_cells replaced, kept
    as the differential reference: same arguments, same ordered output.

    Every split step re-buckets each member of every touched cell, renames
    every moved vertex and rebuilds the whole cell order, so one call costs
    cells x splits.
    """
    cellmap = {}
    order = []
    cell_of = {}
    for i, cell in enumerate(cells):
        members = sorted(cell)
        if not members:
            raise ValueError("empty cell at index %d" % i)
        cellmap[i] = members
        order.append(i)
        for v in members:
            cell_of[v] = i
    next_id = len(order)

    if active is None:
        queue = deque(order)
    else:
        queue = deque(active)
    in_queue = set(queue)

    while queue:
        w = queue.popleft()
        in_queue.discard(w)
        if w not in cellmap:
            continue
        cnt = {}
        for u in cellmap[w]:
            for x in adj[u]:
                cnt[x] = cnt.get(x, 0) + 1
        touched = set(cell_of[x] for x in cnt)
        splits = {}
        for cid in touched:
            members = cellmap[cid]
            if len(members) == 1:
                continue
            buckets = {}
            for v in members:
                buckets.setdefault(cnt.get(v, 0), []).append(v)
            if len(buckets) > 1:
                splits[cid] = [buckets[k] for k in sorted(buckets)]
        if not splits:
            continue

        new_order = []
        for cid in order:
            if cid not in splits:
                new_order.append(cid)
                continue
            parts = splits[cid]
            part_ids = []
            for part in parts:
                pid = next_id
                next_id += 1
                cellmap[pid] = part
                for v in part:
                    cell_of[v] = pid
                part_ids.append(pid)
            del cellmap[cid]
            new_order.extend(part_ids)
            if cid in in_queue:
                in_queue.discard(cid)
                for pid in part_ids:
                    queue.append(pid)
                    in_queue.add(pid)
            else:
                sizes = [len(cellmap[pid]) for pid in part_ids]
                skip = sizes.index(max(sizes))
                for k, pid in enumerate(part_ids):
                    if k != skip:
                        queue.append(pid)
                        in_queue.add(pid)
        order = new_order

    return tuple(tuple(cellmap[cid]) for cid in order)


def refine(graph, coloring):
    """Coarsest equitable refinement of a coloring, as a Coloring.

    Accepts a Graph (or any object with .adj). Positions are recomputed from
    the refined cells; callers that need to keep positions inherited from an
    enclosing coloring should work with refine_cells directly.
    """
    adj = graph.adj if hasattr(graph, "adj") else graph
    cells = refine_cells(adj, [list(c) for c in coloring.cells])
    return Coloring(cells)


def is_equitable(graph, coloring):
    """True when every cell sees every cell with a uniform neighbor count."""
    adj = graph.adj if hasattr(graph, "adj") else graph
    cell_of = {}
    for i, cell in enumerate(coloring.cells):
        for v in cell:
            cell_of[v] = i
    reference = {}
    for i, cell in enumerate(coloring.cells):
        for v in cell:
            sig = {}
            for u in adj[v]:
                j = cell_of[u]
                sig[j] = sig.get(j, 0) + 1
            if i in reference:
                if reference[i] != sig:
                    return False
            else:
                reference[i] = sig
    return True


def _guard(n, limit=BRUTE_LIMIT):
    if n > limit:
        raise ValueError("brute force capped at n=%d, got n=%d" % (limit, n))


def _cell_preserving_bijections(coloring):
    """Yield vertex->label dicts mapping each cell onto its position range."""
    cells = coloring.cells
    starts = []
    offset = 0
    for cell in cells:
        starts.append(offset)
        offset += len(cell)
    for assignment in itertools.product(*(itertools.permutations(c) for c in cells)):
        gamma = {}
        for cell_members, start in zip(assignment, starts):
            for i, v in enumerate(cell_members):
                gamma[v] = start + i
        yield gamma


def brute_canon(graph, coloring=None):
    """Minimum CanonicalForm over every bijection preserving the coloring's
    cells (each cell maps onto its own position range)."""
    _guard(graph.n)
    if coloring is None:
        coloring = unit_coloring(graph.n)
    colors = {v: coloring.position(v) for cell in coloring.cells for v in cell}
    edges = graph.edges()
    best = None
    for gamma in _cell_preserving_bijections(coloring):
        relabeled = tuple(sorted(
            (gamma[u], gamma[v]) if gamma[u] < gamma[v] else (gamma[v], gamma[u])
            for u, v in edges))
        if best is None or relabeled < best[0]:
            best = (relabeled, gamma)
    if best is None:
        return CanonicalForm([], [])
    relabeled, gamma = best
    return CanonicalForm([(gamma[v], colors[v]) for v in gamma], relabeled)


def brute_aut(graph, coloring=None, limit=BRUTE_LIMIT):
    """All automorphisms preserving the coloring, as permutation lists.

    Enumeration stays within refined cells, which is safe because refinement
    never separates vertices that an automorphism could exchange. Callers
    that know their refined cells are small may raise the size cap.
    """
    _guard(graph.n, limit)
    if coloring is None:
        coloring = unit_coloring(graph.n)
    refined = refine(graph, coloring)
    edge_set = set(graph.edges())
    out = []
    for gamma in _cell_preserving_positions_as_vertices(refined):
        ok = True
        for u, v in edge_set:
            a, b = gamma[u], gamma[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                ok = False
                break
        if ok:
            out.append(gamma)
    return out


def _cell_preserving_positions_as_vertices(coloring):
    """Yield permutation lists that map every cell onto itself."""
    n = coloring.size
    cells = coloring.cells
    for assignment in itertools.product(*(itertools.permutations(c) for c in cells)):
        gamma = [0] * n
        for cell, images in zip(cells, assignment):
            for v, img in zip(cell, images):
                gamma[v] = img
        yield gamma


def brute_orbits(graph, coloring=None, limit=BRUTE_LIMIT):
    """Vertex orbits under brute_aut, sorted by smallest member."""
    auts = brute_aut(graph, coloring, limit)
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gamma in auts:
        for v in range(graph.n):
            a, b = find(v), find(gamma[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for v in range(graph.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def brute_group_order(graph, coloring=None, limit=BRUTE_LIMIT):
    return len(brute_aut(graph, coloring, limit))


def brute_ssm(graph, q, coloring=None, limit=BRUTE_LIMIT):
    """All images of the vertex set q under the automorphism group."""
    q = frozenset(q)
    for v in q:
        if not (0 <= v < graph.n):
            raise ValueError("query vertex %d out of range" % v)
    return {frozenset(gamma[v] for v in q)
            for gamma in brute_aut(graph, coloring, limit)}


def reference_equal_form_runs(children):
    """The per-query run computation that the runs cached at combine time
    replaced: indices of maximal blocks of adjacent children with equal
    forms, as lists."""
    runs = []
    for i, child in enumerate(children):
        if runs and children[runs[-1][-1]].form.key == child.form.key:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def degree(graph, v):
    return len(graph.adj[v])


def is_unit(coloring):
    return len(coloring.cells) <= 1


def permute_coloring(coloring, gamma):
    """The coloring pi^gamma, which colors v^gamma the way pi colors v."""
    return Coloring([[gamma[v] for v in cell] for cell in coloring.cells])


def identity_permutation(n):
    return list(range(n))


def invert_permutation(gamma):
    inv = [0] * len(gamma)
    for v, img in enumerate(gamma):
        inv[img] = v
    return inv


def compose_permutations(outer, inner):
    """Permutation applying inner first, then outer."""
    return [outer[inner[v]] for v in range(len(inner))]


def bench_inputs():
    """The benchmark's graph generators (bench/inputs.py), loaded by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def closure_order(n, gens):
    """Size of the permutation group generated by gens (as vertex dicts)."""
    ident = tuple(range(n))
    perms = [tuple(g.get(v, v) for v in range(n)) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for p in perms:
            nxt = tuple(p[cur[v]] for v in range(n))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def pair_list(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n, mask):
    pairs = pair_list(n)
    return Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def mask_from_graph(graph):
    idx = {p: i for i, p in enumerate(pair_list(graph.n))}
    mask = 0
    for e in graph.edges():
        mask |= 1 << idx[e]
    return mask


def enumerate_graphs(n):
    """Every labeled simple graph on n vertices (n <= 6)."""
    _guard(n, EXHAUSTIVE_LIMIT)
    bits = n * (n - 1) // 2
    for mask in range(1 << bits):
        yield graph_from_mask(n, mask)


def sampled_graphs(n, count, seed):
    """count random labeled graphs on n vertices (n <= 12), uniform over
    edge subsets."""
    _guard(n, SAMPLE_LIMIT)
    rng = random.Random(seed)
    bits = n * (n - 1) // 2
    for _ in range(count):
        yield graph_from_mask(n, rng.getrandbits(bits) if bits else 0)


def random_graph(rng, n, p):
    """G(n, p) graph from a random.Random instance."""
    edges = [e for e in pair_list(n) if rng.random() < p]
    return Graph(n, edges)


def random_permutation(rng, n):
    gamma = list(range(n))
    rng.shuffle(gamma)
    return gamma


def brute_canon_class_map(n):
    """mask -> canonical edge tuple for every labeled graph on n vertices.

    This is brute_canon with unit coloring, computed one isomorphism orbit at
    a time: for an unseen mask, all n! permutation images are generated, the
    minimum sorted edge list among them is the canonical value, and that
    value is recorded for every image (brute_canon is constant on an orbit by
    definition). Equal map values therefore mean isomorphic.
    """
    _guard(n, EXHAUSTIVE_LIMIT)
    pairs = pair_list(n)
    nbits = len(pairs)
    pair_idx = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        table = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            table.append(pair_idx[(a, b) if a < b else (b, a)])
        tables.append(table)

    canon = {}
    for mask in range(1 << nbits):
        if mask in canon:
            continue
        images = set()
        best = None
        for table in tables:
            img = 0
            rem = mask
            while rem:
                low = rem & -rem
                img |= 1 << table[low.bit_length() - 1]
                rem ^= low
            if img not in images:
                images.add(img)
                edges = tuple(pairs[i] for i in range(nbits) if (img >> i) & 1)
                if best is None or edges < best:
                    best = edges
        for img in images:
            canon[img] = best
    return canon
