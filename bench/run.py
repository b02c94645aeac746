"""Benchmark of the autotree engine: one workload per run, closed loop, one
thread, public API only.

    python3 bench/run.py --workload heavy-tail --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from src/. The
run generates its inputs from the seed and writes them as files, then
times set-up (import plus parsing, and for ssm-query the tree build), then
runs whole rounds of the same operations until --seconds of wall time have
passed, timing set-up again after each round, then checks every output.
The last line of stdout is one JSON object. --trace 0 reports the
end-to-end metrics; --trace 1 reports per-layer metrics from a run with
wrappers around the program's functions (bench/tracing.py). Without
--workload, every workload runs in turn, each in its own process. See
bench/README.md.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import subprocess
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

# All end-to-end times are process CPU time: the code is single-threaded,
# and CPU time does not count the time other processes on the machine
# hold the core.
cpu = time.process_time

# Set-up repetitions after each round, besides the one before the first.
# The machine can hold a faster speed for seconds at a time: 81 set-ups
# timed in one 5 s block gave heavy-tail's setup_s a quartile spread of 0.11
# over ten runs. Spread through the run, they see the same mix of speeds as
# the operations.
SETUP_REPS_PER_ROUND = {"heavy-tail": 8, "symmetric-leaf": 25, "ssm-query": 2}

PER_LAYER = {
    "graphs.load_graph.s": "s",
    "refine.project.calls": "count",
    "refine.project.cells_scanned": "count",
    "refine.project.s": "s",
    "tree.Subgraph.induced.vertices_scanned": "count",
    "tree.Subgraph.induced.s": "s",
    "tree.divide_p.s": "s",
    "tree.refine_cells.s": "s",
    "tree.build.s": "s",
    "tree.nodes": "count",
    "tree.depth": "count",
    "tree.non_singleton_leaves": "count",
    "tree.reduce_structural_equivalence.s": "s",
    "tree.expand_structural_equivalence.s": "s",
    "combine.combine_st.s": "s",
    "combine.certificate.s": "s",
    "labeler.canonical_labeling_ir.calls": "count",
    "labeler.canonical_labeling_ir.s": "s",
    "labeler.refine_cells.calls": "count",
    "labeler.refine_cells.s": "s",
    "labeler.individualize.calls": "count",
    "automorphisms.generators.s": "s",
    "automorphisms.generators.count": "count",
    "automorphisms.generator_redundancy": "ratio",
    "automorphisms.group_order.s": "s",
    "automorphisms.orbits.s": "s",
    "ssm.ssm.s": "s",
    "ssm.images_within.calls": "count",
    "ssm.images_within.s": "s",
    "ssm.sm_leaf.s": "s",
    "ssm.images": "count",
    "ssm.placements": "count",
    "trace.overhead_pct": "%",
}


def import_autotree():
    """A fresh import of the package from src/, so that every set-up
    repetition pays for the import."""
    for name in [m for m in sys.modules if m == "autotree" or m.startswith("autotree.")]:
        del sys.modules[name]
    import autotree
    if not os.path.abspath(autotree.__file__).startswith(SRC + os.sep):
        raise SystemExit("autotree was imported from %s, not from %s"
                         % (autotree.__file__, SRC))
    return autotree


class PerGraph:
    """A round is one operation per input graph."""

    def load(self, at, files, plan):
        self.graphs = [(name, at.load_graph(path)) for name, path in files]

    def ops(self, at):
        return [(name, lambda g=g, c=c: self.op(at, g, c)) for name, (g, c) in self.graphs]


class HeavyTail(PerGraph):
    """One operation: one graph through canonical_form (with reduction), then
    build(reduce=False), generators, group_order and orbits."""

    @staticmethod
    def op(at, graph, coloring):
        cert = at.canonical_form(graph, coloring)
        tree = at.build(graph, coloring, reduce=False)
        gens = at.generators(tree)
        order = at.group_order(tree)
        return cert, gens, order, at.orbits(gens, graph.n)

    def check(self, at, outputs, generated, seed):
        rng = random.Random("check/%d" % seed)
        for name, n, edges in generated:
            cert, gens, order, orbits = outputs[name]
            adj = checks.adjacency(n, edges)
            colors = [0] * n
            for g in gens:
                checks.check_automorphism(adj, colors, g)
            checks.check_orbits(adj, colors, gens, orbits, order)
            checks.check_twin_divisibility(adj, colors, order)
            graph = at.Graph(n, edges)
            checks.check_certificate(n, edges, colors, cert, at.build(graph).root.gamma)
            perm = list(range(n))
            rng.shuffle(perm)
            copy = at.Graph(n, [(perm[u], perm[v]) for u, v in edges])
            checks.require(at.canonical_form(copy) == cert,
                           "%s: certificate changes under relabeling" % name)
        return _redundancy(outputs[name][1:3] for name, _, _ in generated)


class SymmetricLeaf(PerGraph):
    """One operation: one graph through build(reduce=False), generators and
    group_order."""

    @staticmethod
    def op(at, graph, coloring):
        tree = at.build(graph, coloring, reduce=False)
        gens = at.generators(tree)
        return gens, at.group_order(tree)

    def check(self, at, outputs, generated, seed):
        for name, n, edges in generated:
            gens, order = outputs[name]
            adj = checks.adjacency(n, edges)
            for g in gens:
                checks.check_automorphism(adj, [0] * n, g)
            expected = checks.closed_form_order(name)
            if expected is None:
                expected = checks.count_automorphisms(adj)
            checks.require(order == expected, "%s: group order %d, expected %d"
                           % (name, order, expected))
        return _redundancy(outputs[name] for name, _, _ in generated)


class SsmQuery:
    """Set-up builds the tree (reduce=False) and its generators once; one
    operation is one ssm(graph, q, tree) call."""

    def load(self, at, files, plan):
        self.graph, coloring = at.load_graph(files[0][1])
        self.tree = at.build(self.graph, coloring, reduce=False)
        self.gens = at.generators(self.tree)
        self.queries = plan["queries"]
        self.pendants = len(plan["pendants"])

    def ops(self, at):
        graph, tree = self.graph, self.tree
        return [((kind, q), lambda q=q: at.ssm(graph, q, tree)) for kind, q in self.queries]

    def check(self, at, outputs, generated, seed):
        _, n, edges = generated[0]
        adj = checks.adjacency(n, edges)
        colors = [0] * n
        for g in self.gens:
            checks.check_automorphism(adj, colors, g)
        order = at.group_order(self.tree)
        checks.check_twin_divisibility(adj, colors, order)
        by_vertex = checks.index_generators(self.gens)
        witnessed = set()
        for kind, q in self.queries:
            family = outputs[kind, q]
            exact = (math.comb(self.pendants, len(q)) if kind.startswith("pendant")
                     else None)
            checks.check_ssm_family(q, family, self.gens, by_vertex,
                                    at.count_set_images(self.tree, q), exact)
            if kind not in witnessed:
                witnessed.add(kind)
                checks.check_witnesses(adj, colors, q, family,
                                       at.ssm_with_witnesses(self.graph, q, self.tree,
                                                             self.gens))
        return _redundancy([(self.gens, order)])


WORKLOADS = {"heavy-tail": HeavyTail, "symmetric-leaf": SymmetricLeaf,
             "ssm-query": SsmQuery}


def _redundancy(pairs):
    """Generators per bit of group order, summed over (gens, order) pairs: a
    generating set never needs more than log2 of the order."""
    gens = bits = 0
    for g, order in pairs:
        gens += len(g)
        bits += math.log2(order)
    return gens / bits if bits else 0.0


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Loop:
    """Closed loop over whole rounds of the same operations.

    Every output of the first round is kept for the checks, and every later
    output must equal it. times[i] holds every time of the round's i-th
    operation.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first = {}
        self.times = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.mismatch = None

    def round(self):
        for i, (key, fn) in enumerate(self.ops):
            self.attempted += 1
            t0 = cpu()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print("operation %r failed: %r" % (key, exc), file=sys.stderr)
                continue
            self.times[i].append(cpu() - t0)
            if key not in self.first:
                self.first[key] = out
            elif out != self.first[key] and self.mismatch is None:
                self.mismatch = "output of %r changed between rounds" % (key,)
        self.rounds += 1

    def run_for(self, seconds, between):
        """Whole rounds until seconds of wall time have passed; between()
        runs after each round, and its time extends the deadline."""
        deadline = time.monotonic() + seconds
        while True:
            self.round()
            started = time.monotonic()
            between()
            deadline += time.monotonic() - started
            if time.monotonic() >= deadline:
                return

    def typical_times(self):
        """Median time of each operation that succeeded at least once.

        The machine runs the same code at speeds up to 1.6 times apart,
        switching within a second; an operation's median over the rounds is
        its time at the speed that prevailed, which a few slow repeats do
        not move."""
        return sorted(statistics.median(t) for t in self.times if t)


def time_setup(name, files, plan, tracer=None):
    """One set-up: a fresh import and a fresh workload read from the files.
    Returns (CPU seconds, the package, the workload)."""
    gc.collect()
    t0 = cpu()
    at = import_autotree()
    if tracer is not None:
        tracer.install(at)
    workload = WORKLOADS[name]()
    workload.load(at, files, plan)
    return cpu() - t0, at, workload


def setup_again(name, files, plan, times):
    """Time more set-ups between rounds, then put back in sys.modules the
    package the rounds run on, and collect the set-ups' garbage."""
    package = {m: mod for m, mod in sys.modules.items()
               if m == "autotree" or m.startswith("autotree.")}
    for _ in range(SETUP_REPS_PER_ROUND[name]):
        times.append(time_setup(name, files, plan)[0])
    sys.modules.update(package)
    gc.collect()


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace):
    files, generated, plan = inputs.write_inputs(name, seed)
    tracer = Tracer() if trace else None
    setup_s, at, workload = time_setup(name, files, plan, tracer)
    setup_times = [setup_s]
    loop = Loop(workload.ops(at))
    gc.collect()
    if trace:
        # Untraced and traced rounds alternate, so both see the same machine
        # speed: the ratio of their typical round times is the tracing
        # overhead.
        at_setup = tracer.snapshot()
        tracer.uninstall()
        traced = Loop(loop.ops)
        traced.first = loop.first  # traced outputs must equal untraced ones
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            loop.round()
            tracer.install(at)
            traced.round()
            tracer.uninstall()
        at_end = tracer.snapshot()
        overhead = sum(traced.typical_times()) / sum(loop.typical_times()) - 1.0
        loop.mismatch = loop.mismatch or traced.mismatch
    else:
        loop.run_for(seconds, lambda: setup_again(name, files, plan, setup_times))
        setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, reason = True, loop.mismatch
    redundancy = 0.0
    try:
        redundancy = workload.check(at, loop.first, generated, seed)
    except checks.CheckFailed as exc:
        reason = reason or str(exc)
    except Exception as exc:  # the program can also raise while being checked
        reason = reason or "check phase raised %r" % exc
    if reason:
        correct = False
        print("check failed: %s" % reason, file=sys.stderr)

    typical = loop.typical_times()
    print("workload=%s seed=%d rounds=%d ops_per_round=%d attempted=%d failed=%d "
          "samples_beyond_p99=%d setups=%d correct=%s"
          % (name, seed, loop.rounds, len(loop.ops), loop.attempted, loop.failed,
             len(typical) - math.ceil(0.99 * len(typical)), len(setup_times), correct),
          file=sys.stderr)
    if trace:
        values = {}
        for key in PER_LAYER:
            before, after = at_setup.get(key, 0), at_end.get(key, 0)
            values[key] = before + (after - before) / traced.rounds
        values["tree.depth"] = tracer.maxima["tree.depth"]
        values["automorphisms.generator_redundancy"] = redundancy
        values["trace.overhead_pct"] = 100.0 * overhead
        metrics = {key: metric(values[key], unit) for key, unit in PER_LAYER.items()}
        attempted, failed = loop.attempted + traced.attempted, loop.failed + traced.failed
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(len(typical) / sum(typical), "1/s"),
            "op_p50_ms": metric(1000.0 * percentile(typical, 0.50), "ms"),
            "op_p99_ms": metric(1000.0 * percentile(typical, 0.99), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        attempted, failed = loop.attempted, loop.failed
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "autotree", "__init__.py")):
        print("no autotree package under %s: run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload is None:
        status = 0
        for name in inputs.WORKLOADS:
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
