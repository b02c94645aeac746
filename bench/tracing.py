"""Per-layer tracing from outside the program.

The tracer replaces public functions of the autotree modules with wrappers,
at the name their caller looks up (for example autotree.tree.project, which
the tree-building code calls, and autotree.labeler.refine_cells, which the IR
search calls). Each wrapper times its call as a span and keeps a stack of
open spans, so a layer's self time is its span's duration minus the time
of the traced spans it caused. Spans are aggregated as they close, not
stored one by one. Counts are read from a call's arguments or result.

The program itself is never edited; uninstall() puts every original back.
"""

import sys
import time
from collections import defaultdict


class _CountingItertools:
    """Stands in for the itertools module inside autotree.ssm, counting the
    tuples permutations() yields: one per placement of query parts that
    images_within tries."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def permutations(self, *args):
        for placement in self._real.permutations(*args):
            self._tracer.counts["ssm.placements"] += 1
            yield placement


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._open = []
        self._undo = []

    def wrap(self, owner, attr, layer, before=None, after=None):
        """Replace owner.attr by a timed wrapper recorded under layer.

        before(tracer, args) runs ahead of the call and after(tracer, result)
        behind it; both read counts outside the span's timed interval.
        """
        fn = getattr(owner, attr)
        clock = time.perf_counter_ns
        open_spans = self._open
        self_ns, calls = self.self_ns, self.calls
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = open_spans.pop()
                self_ns[layer] += took - children
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += took
            if after is not None:
                after(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self, autotree):
        mods = {name: sys.modules["autotree." + name]
                for name in ("tree", "combine", "labeler", "ssm", "automorphisms")}
        tree, combine, labeler, ssm_mod = (mods["tree"], mods["combine"],
                                           mods["labeler"], mods["ssm"])
        self.wrap(autotree, "load_graph", "graphs.load_graph")
        self.wrap(autotree, "build", "tree.build", after=_tree_shape)
        self.wrap(tree, "project", "refine.project", before=_project_cells)
        self.wrap(tree.Subgraph, "induced", "tree.Subgraph.induced",
                  before=_induced_vertices)
        self.wrap(tree, "divide_p", "tree.divide_p")
        self.wrap(tree, "refine_cells", "tree.refine_cells")
        self.wrap(tree, "reduce_structural_equivalence",
                  "tree.reduce_structural_equivalence")
        self.wrap(tree, "expand_structural_equivalence",
                  "tree.expand_structural_equivalence")
        self.wrap(tree, "combine_st", "combine.combine_st")
        self.wrap(tree, "certificate", "combine.certificate")
        self.wrap(combine, "certificate", "combine.certificate")
        self.wrap(combine, "canonical_labeling_ir", "labeler.canonical_labeling_ir")
        self.wrap(labeler, "refine_cells", "labeler.refine_cells")
        self.wrap(labeler, "individualize", "labeler.individualize")
        self.wrap(autotree, "generators", "automorphisms.generators",
                  after=_generator_count)
        self.wrap(autotree, "group_order", "automorphisms.group_order")
        self.wrap(autotree, "orbits", "automorphisms.orbits")
        self.wrap(autotree, "ssm", "ssm.ssm", after=_image_count)
        self.wrap(ssm_mod, "images_within", "ssm.images_within")
        self.wrap(ssm_mod, "sm_leaf", "ssm.sm_leaf")
        self._undo.append((ssm_mod, "itertools", ssm_mod.itertools))
        ssm_mod.itertools = _CountingItertools(ssm_mod.itertools, self)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def snapshot(self):
        """Totals so far, as one flat dict of layer metrics in their units."""
        out = {}
        for layer, ns in self.self_ns.items():
            out[layer + ".s"] = ns / 1e9
        for layer, n in self.calls.items():
            out[layer + ".calls"] = n
        out.update(self.counts)
        return out


def _project_cells(tracer, args):
    tracer.counts["refine.project.cells_scanned"] += len(args[0].cells)


def _induced_vertices(tracer, args):
    tracer.counts["tree.Subgraph.induced.vertices_scanned"] += len(args[0].vertices)


def _tree_shape(tracer, at):
    tracer.counts["tree.nodes"] += at.stats["nodes"]
    tracer.counts["tree.non_singleton_leaves"] += at.stats["non_singleton_leaves"]
    tracer.maxima["tree.depth"] = max(tracer.maxima["tree.depth"], at.stats["depth"])


def _generator_count(tracer, gens):
    tracer.counts["automorphisms.generators.count"] += len(gens)


def _image_count(tracer, images):
    tracer.counts["ssm.images"] += len(images)
