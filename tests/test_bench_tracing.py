"""The benchmark's per-layer tracer (bench/tracing.py) wraps functions of
the package at the names their callers look up. A rename or a call that no
longer goes through such a name would silently empty a layer of
`bench/run.py --trace 1`; this test fails instead."""

import importlib.util
import os

import autotree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = (
    "graphs.load_graph", "tree.build", "refine.project",
    "tree.Subgraph.induced", "tree.divide_p", "tree.refine_cells",
    "tree.reduce_structural_equivalence",
    "tree.expand_structural_equivalence", "combine.combine_st",
    "combine.certificate", "labeler.canonical_labeling_ir",
    "labeler.refine_cells", "labeler.individualize",
    "automorphisms.generators", "automorphisms.group_order",
    "automorphisms.orbits", "ssm.ssm", "ssm.images_within", "ssm.sm_leaf",
)
COUNTS = (
    "refine.project.cells_scanned", "tree.Subgraph.induced.vertices_scanned",
    "tree.nodes", "tree.non_singleton_leaves",
    "automorphisms.generators.count", "ssm.images", "ssm.placements",
)


def _load_tracer():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_records_every_layer():
    tracer = _load_tracer()
    tracer.install(autotree)
    try:
        graph, coloring = autotree.load_graph(
            os.path.join(ROOT, "tests", "data", "hub.el"))
        autotree.build(graph, coloring)
        at = autotree.build(graph, coloring, reduce=False)
        gens = autotree.generators(at)
        assert autotree.group_order(at) == 48
        autotree.orbits(gens, graph.n)
        assert len(autotree.ssm(graph, {0, 4}, at)) == 12
    finally:
        tracer.uninstall()
    snapshot = tracer.snapshot()
    assert [layer for layer in LAYERS
            if not snapshot.get(layer + ".calls")] == []
    assert [count for count in COUNTS if not snapshot.get(count)] == []
