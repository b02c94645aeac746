"""Individualization-refinement search: canonical labeling plus automorphism
generators for a colored (sub)graph.

The search tree refines the input coloring, then repeatedly individualizes
every vertex of the first non-singleton cell. Leaves are discrete colorings,
read as labelings. Three prunings keep the tree small: subtrees whose node
invariant differs from the leftmost path and is worse than the best path are
cut (P_A and P_B), and target vertices in the same discovered orbit as an
already-explored sibling are skipped when the discovered automorphisms fix
the current individualization sequence pointwise (P_C). A leaf whose
certificate equals the first or the best leaf's yields an automorphism that
maps that leaf's path onto its own, so the search backjumps to the depth
where the two paths part (McKay 1981): the open subtree below is the image
of one already searched, and its leaves repeat (invariant path,
certificate) pairs already seen, so the certificate does not change. The
result is the leaf with the lexicographically smallest (invariant path,
certificate) pair.
"""

from __future__ import annotations

from .graphs import CanonicalForm, InternalConsistencyError
from .group import orbit_roots
from .refine import index_carrier, individualize, refine_cells


def _quotient_invariant(adj, cells):
    """Cell sizes plus cell-to-cell edge counts of a refined coloring."""
    cell_of = {}
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    counts = {}
    for u in cell_of:
        cu = cell_of[u]
        for w in adj[u]:
            if u < w:
                cw = cell_of[w]
                key = (cu, cw) if cu <= cw else (cw, cu)
                counts[key] = counts.get(key, 0) + 1
    return (tuple(len(c) for c in cells), tuple(sorted(counts.items())))


def _leaf_certificate(adj, cells, input_pos):
    """Labeling and certificate of a discrete coloring.

    Labels are positions in the discrete coloring; certificate colors are the
    vertex positions in the original input coloring, so certificates of
    differently-colored carriers never collide.
    """
    gamma = {}
    for i, cell in enumerate(cells):
        gamma[cell[0]] = i
    colors = tuple(input_pos[cell[0]] for cell in cells)
    edges = []
    for u, lu in gamma.items():
        for w in adj[u]:
            if u < w:
                lw = gamma[w]
                edges.append((lu, lw) if lu < lw else (lw, lu))
    return gamma, (colors, tuple(sorted(edges)))


def _verify_generator(adj, input_pos, sigma):
    """Check that sigma preserves adjacency and input colors."""
    for v, img in sigma.items():
        if input_pos[v] != input_pos[img]:
            raise InternalConsistencyError("generator moves %d across cells" % v)
        if sorted(sigma[w] for w in adj[v]) != sorted(adj[img]):
            raise InternalConsistencyError("generator breaks adjacency at %d" % v)


class _Search:
    def __init__(self, adj, input_pos):
        self.adj = adj
        self.input_pos = input_pos
        # (phi_path, cert, gamma, nu) of the first leaf and of the best one
        self.first = None
        self.best = None
        self.gens = []
        self._gen_keys = set()
        self.jump = None  # depth to backjump to, set by _leaf

    def run(self, root_cells):
        phi = _quotient_invariant(self.adj, root_cells)
        # One _descend generator per open search node, kept on an explicit
        # stack, so the search depth is not bounded by the recursion limit.
        stack = [self._descend(root_cells, (phi,), ())]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                if self.jump is not None:
                    del stack[self.jump + 1:]
                    self.jump = None
            else:
                stack.append(self._descend(*child))
        return self.best

    def _descend(self, cells, phi_path, nu):
        """Visit a search node, then yield the arguments of each child
        that orbit pruning keeps, after the previous child's subtree is
        done."""
        if self.first is not None:
            d = len(phi_path)
            on_first = phi_path == self.first[0][:d]
            if not on_first and phi_path > self.best[0][:d]:
                return
        target = None
        for cell in cells:
            if len(cell) > 1:
                target = cell
                break
        if target is None:
            self._leaf(cells, phi_path, nu)
            return
        tried = []
        gen_mark = -1
        for v in target:
            if tried:
                if gen_mark != len(self.gens):
                    # Generators that fix nu pointwise preserve the refined
                    # partition, so the target cell is closed under them.
                    roots = orbit_roots([g for g in self.gens
                                         if all(g[x] == x for x in nu)], target)
                    gen_mark = len(self.gens)
                if any(roots[u] == roots[v] for u in tried):
                    continue
            tried.append(v)
            child_cells, at = individualize(cells, v)
            refined = refine_cells(self.adj, child_cells, active=[at])
            phi = _quotient_invariant(self.adj, refined)
            yield refined, phi_path + (phi,), nu + (v,)

    def _leaf(self, cells, phi_path, nu):
        gamma, cert = _leaf_certificate(self.adj, cells, self.input_pos)
        if self.first is None:
            self.first = self.best = (phi_path, cert, gamma, nu)
            return
        for _, other_cert, other_gamma, other_nu in (self.first, self.best):
            if cert == other_cert:
                self._record_automorphism(other_gamma, gamma)
                # The automorphism fixes the two paths' common prefix and
                # maps the rest of the other path onto nu: backjump to the
                # depth where they part.
                d = 0
                while nu[d] == other_nu[d]:
                    d += 1
                self.jump = d
                break
        if (phi_path, cert) < (self.best[0], self.best[1]):
            self.best = (phi_path, cert, gamma, nu)

    def _record_automorphism(self, gamma_a, gamma_b):
        by_label = {}
        for v, lab in gamma_b.items():
            by_label[lab] = v
        sigma = {v: by_label[lab] for v, lab in gamma_a.items()}
        if all(v == img for v, img in sigma.items()):
            return
        key = tuple(sorted(sigma.items()))
        if key in self._gen_keys:
            return
        _verify_generator(self.adj, self.input_pos, sigma)
        self._gen_keys.add(key)
        self.gens.append(sigma)


def canonical_labeling_ir(adj, cells):
    """Canonically label a colored graph by individualization-refinement.

    adj maps vertices to neighbors inside the carrier; cells is the input
    ordered partition (any vertex ids). Returns (gamma, form, generators):
    gamma maps each vertex to a label in 0..k-1, form is the certificate of
    the relabeled graph (colors taken from input cell positions), and
    generators are verified automorphism dicts of the colored carrier.

    The search runs on the carrier mapped once by index_carrier, so every
    table it and refine_cells keep is a list of carrier size; since the map
    keeps the order of ids, the search visits the same nodes as on the ids.
    """
    if not cells:
        return {}, CanonicalForm([], []), []
    verts, index, adj = index_carrier(adj, [v for cell in cells for v in cell])
    cells = [[index[v] for v in cell] for cell in cells]
    input_pos = [0] * len(verts)
    offset = 0
    for cell in cells:
        for v in cell:
            input_pos[v] = offset
        offset += len(cell)

    root_cells = refine_cells(adj, cells)
    search = _Search(adj, input_pos)
    best = search.run(root_cells)
    _, (colors, edges), gamma, _ = best
    form = CanonicalForm(
        [(lab, colors[lab]) for lab in range(len(colors))], edges)
    gens = [{verts[v]: verts[img] for v, img in g.items()} for g in search.gens]
    return {verts[v]: lab for v, lab in gamma.items()}, form, gens
