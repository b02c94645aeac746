"""Equitable color refinement over one ordered-partition array, and
coloring projection."""

from __future__ import annotations

from collections import Counter, deque

from .graphs import Coloring


def index_carrier(adj, vertices):
    """Map a carrier to 0..k-1 in ascending id order, which keeps the order
    of ids. Returns (the ids in ascending order, id -> index, adj as lists
    of indices)."""
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    return verts, index, [[index[u] for u in adj[v]] for v in verts]


def refine_cells(adj, cells, active=None):
    """Refine an ordered partition to the coarsest equitable one.

    adj maps each vertex to its neighbors inside the carrier (a dict, or an
    indexable sequence when vertices are 0..n-1). cells is a list of vertex
    lists, each vertex in exactly one cell. active optionally lists distinct
    cell indices that seed the worklist; by default every cell is
    scrutinized.

    The partition is one array of the vertices in partition order, with each
    vertex's position and cell, and each cell's start and size; a cell is
    named by its start. Ids other than 0..n-1 are first mapped to 0..n-1 in
    ascending order, so the tables follow the carrier, not the largest id.
    One split step counts the neighbors of the scrutinizing cell's members
    and groups the counted vertices by cell. A cell splits unless all of its
    members were counted with one count: its counted vertices are swapped
    into the tail of its segment in ascending count, and the uncounted ones
    stay in front under the cell's name. So a step costs the vertices it
    counts, not the cells they sit in.

    Sub-cells replace their parent in place, ordered by ascending neighbor
    count toward the scrutinizing cell. A step's splits are handled in cell
    order. When a pending cell splits, its queue entry goes stale (each
    entry carries a ticket) and all of its parts become pending; otherwise
    every part except the largest does (ties keep the earliest part out of
    the queue). Refinement stops once the partition is discrete.

    Returns a tuple of sorted vertex tuples, in cell order.
    """
    elems = []
    starts = []
    for i, cell in enumerate(cells):
        if not cell:
            raise ValueError("empty cell at index %d" % i)
        starts.append(len(elems))
        elems.extend(cell)
    n = len(elems)
    if len(set(elems)) != n:
        v = next(v for v, k in Counter(elems).items() if k > 1)
        raise ValueError("vertex %r is in more than one cell" % (v,))
    if active is None:
        active = range(len(starts))
    else:
        for i in active:
            if not 0 <= i < len(starts):
                raise ValueError("active cell index %r is not in 0..%d"
                                 % (i, len(starts) - 1))
    verts = None
    if n and (min(elems) < 0 or max(elems) >= n):
        verts, index, adj = index_carrier(adj, elems)
        elems = [index[v] for v in elems]

    pos = [0] * n
    cell_of = [0] * n
    size = [0] * n
    ticket = [0] * n  # ticket of the cell's live queue entry, 0 if none
    for s, e in zip(starts, starts[1:] + [n]):
        size[s] = e - s
        for p in range(s, e):
            v = elems[p]
            pos[v] = p
            cell_of[v] = s
    queue = deque()
    tick = 0
    for i in active:
        tick += 1
        ticket[starts[i]] = tick
        queue.append((starts[i], tick))
    ncells = len(starts)

    while queue and ncells < n:
        w, t = queue.popleft()
        if ticket[w] != t:
            continue
        ticket[w] = 0
        if size[w] == 1:
            cnt = dict.fromkeys(adj[elems[w]], 1)
        else:
            cnt = {}
            for u in elems[w:w + size[w]]:
                for x in adj[u]:
                    cnt[x] = cnt.get(x, 0) + 1
        groups = {}
        for x in cnt:
            c = cell_of[x]
            if size[c] > 1:
                if c in groups:
                    groups[c].append(x)
                else:
                    groups[c] = [x]
        for c in sorted(groups):
            counted = groups[c]
            end = c + size[c]
            q = end - len(counted)
            if len(counted) > 1:
                counted.sort(key=cnt.__getitem__)
                one_count = cnt[counted[0]] == cnt[counted[-1]]
                if q == c and one_count:
                    continue
            else:
                one_count = True
            p = end
            for x in reversed(counted):
                p -= 1
                y = elems[p]
                elems[pos[x]] = y
                pos[y] = pos[x]
                elems[p] = x
                pos[x] = p
            if one_count:
                # One count, the common case, needs no part list: the
                # uncounted front keeps c and the counted tail is cell q.
                for x in counted:
                    cell_of[x] = q
                size[c] = q - c
                size[q] = end - q
                ncells += 1
                if ticket[c]:
                    parts = (c, q)
                elif q - c >= end - q:
                    parts = (q,)
                else:
                    parts = (c,)
            else:
                parts = [c] if q > c else []
                last = None
                for x in counted:
                    k = cnt[x]
                    if k != last:
                        parts.append(q)
                        last = k
                    cell_of[x] = parts[-1]
                    q += 1
                ncells += len(parts) - 1
                sizes = []
                for a, b in zip(parts, parts[1:] + [end]):
                    size[a] = b - a
                    sizes.append(b - a)
                if not ticket[c]:
                    del parts[sizes.index(max(sizes))]
            for a in parts:
                tick += 1
                ticket[a] = tick
                queue.append((a, tick))

    if verts is not None:
        elems = [verts[v] for v in elems]
    if ncells == n:
        return tuple([(v,) for v in elems])
    out = []
    s = 0
    while s < n:
        e = s + size[s]
        out.append(tuple(sorted(elems[s:e])))
        s = e
    return tuple(out)


def individualize(cells, v):
    """Split v's cell into [cell without v, {v}], remainder first.

    Returns (new cells as a list of lists, index of the new singleton cell).
    """
    out = []
    singleton_at = None
    for cell in cells:
        if v in cell:
            rest = [u for u in cell if u != v]
            if not rest:
                raise ValueError("vertex %d is already a singleton cell" % v)
            out.append(rest)
            singleton_at = len(out)
            out.append([v])
        else:
            out.append(list(cell))
    if singleton_at is None:
        raise ValueError("vertex %d not in any cell" % v)
    return out, singleton_at


def project(coloring, vertices):
    """Restrict a coloring to a vertex subset.

    Cells keep their order, empty restrictions are dropped, and each kept
    vertex retains its global position from the source coloring. Vertices
    the coloring does not cover are dropped. Only the given vertices are
    read, never the source's cells: each is bucketed by its cell index and
    the buckets are emitted in cell order, so k vertices cost O(k log k).
    """
    buckets = {}
    for v in set(vertices):
        try:
            i = coloring.cell_index(v)
        except KeyError:
            continue
        buckets.setdefault(i, []).append(v)
    cells = [buckets[i] for i in sorted(buckets)]
    global_pos = {v: coloring.global_pos[v] for cell in cells for v in cell}
    return Coloring(cells, global_pos=global_pos)
