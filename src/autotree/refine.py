"""Equitable color refinement with a worklist, plus equitability checks and
coloring projection."""

from __future__ import annotations

from collections import deque

from .graphs import Coloring


def refine_cells(adj, cells, active=None):
    """Refine an ordered partition to the coarsest equitable one.

    adj maps each vertex to its neighbors inside the carrier (a dict, or an
    indexable sequence when vertices are 0..n-1). cells is a list of vertex
    lists. active optionally names the cell indices that seed the worklist;
    by default every cell is scrutinized.

    Sub-cells replace their parent in place, ordered by ascending neighbor
    count toward the scrutinizing cell. When a pending cell splits, all of
    its parts become pending; otherwise every part except the largest does
    (ties keep the earliest part out of the queue).

    Returns a tuple of sorted vertex tuples.
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
