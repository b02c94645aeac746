"""Command line front end.

One binary with subcommands: canonical certificates, isomorphism verdicts,
automorphism generators, orbit partitions, symmetric subgraph matching, and
tree structure statistics. Stdout carries only the machine-readable result;
diagnostics and the optional --stats line go to stderr.

Exit codes: 0 for success (and ISOMORPHIC), 1 for NON-ISOMORPHIC, 2 for
input problems, 3 for an internal consistency failure.
"""

import argparse
import resource
import sys
import time

from .automorphisms import generators, group_order, orbits
from .graphs import (
    InternalConsistencyError,
    ParseError,
    format_cycles,
    load_graph,
)
from .ssm import ssm, ssm_with_witnesses
from .tree import build, canonical_form, to_dot, tree_stats


def _load(args, path):
    return load_graph(path, args.format)


def _load_query(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError("query file is empty")
    try:
        return sorted({int(t) for t in tokens})
    except ValueError:
        raise ParseError("query file must hold space-separated vertex ids")


def cmd_canon(args):
    graph, coloring = _load(args, args.graph)
    form = canonical_form(graph, coloring, reduce=not args.no_reduce)
    sys.stdout.write(form.serialize())
    return 0


def cmd_iso(args):
    graph_a, coloring_a = _load(args, args.graph_a)
    graph_b, coloring_b = _load(args, args.graph_b)
    reduce_flag = not args.no_reduce
    form_a = canonical_form(graph_a, coloring_a, reduce=reduce_flag)
    form_b = canonical_form(graph_b, coloring_b, reduce=reduce_flag)
    if form_a == form_b:
        print("ISOMORPHIC")
        return 0
    print("NON-ISOMORPHIC")
    return 1


def cmd_auto(args):
    graph, coloring = _load(args, args.graph)
    at = build(graph, coloring, reduce=False)
    gens = generators(at)
    if gens:
        for gamma in gens:
            print(format_cycles(gamma))
    else:
        print("trivial group")
    print("order %d" % group_order(at))
    return 0


def cmd_orbits(args):
    graph, coloring = _load(args, args.graph)
    at = build(graph, coloring, reduce=False)
    partition = orbits(generators(at), graph.n)
    if partition:
        print(" | ".join(" ".join(str(v) for v in orbit)
                         for orbit in partition))
    print("order %d" % group_order(at))
    return 0


def cmd_ssm(args):
    graph, coloring = _load(args, args.graph)
    query = _load_query(args.query)
    at = build(graph, coloring, reduce=False)
    if args.mappings:
        witnesses = ssm_with_witnesses(graph, query, at, generators(at))
        for image in sorted(witnesses, key=sorted):
            ids = " ".join(str(v) for v in sorted(image))
            print("%s\t%s" % (ids, format_cycles(witnesses[image])))
    else:
        for image in sorted(ssm(graph, query, at), key=sorted):
            print(" ".join(str(v) for v in sorted(image)))
    return 0


def cmd_tree_stats(args):
    graph, coloring = _load(args, args.graph)
    at = build(graph, coloring, reduce=not args.no_reduce)
    stats = tree_stats(at)
    for key in ("nodes", "singleton_leaves", "non_singleton_leaves",
                "avg_leaf_size", "depth"):
        print("%s=%s" % (key, stats[key]))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(at))
    return 0


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("el", "dimacs"), default=None,
                        help="input format; default picks by file extension")
    common.add_argument("--no-reduce", action="store_true",
                        help="disable structural-equivalence reduction")
    common.add_argument("--stats", action="store_true",
                        help="print wall time and peak memory to stderr")

    parser = argparse.ArgumentParser(
        prog="autotree",
        description="Canonical labeling and automorphism queries on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", parents=[common],
                       help="print the canonical certificate")
    p.add_argument("graph")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", parents=[common],
                       help="compare two graphs for isomorphism")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("auto", parents=[common],
                       help="print automorphism generators and group order; "
                            "always builds without reduction")
    p.add_argument("graph")
    p.set_defaults(func=cmd_auto)

    p = sub.add_parser("orbits", parents=[common],
                       help="print the vertex orbit partition and group "
                            "order; always builds without reduction")
    p.add_argument("graph")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("ssm", parents=[common],
                       help="list all images of a query vertex set; always "
                            "builds without reduction")
    p.add_argument("graph")
    p.add_argument("query", help="file with one line of vertex ids")
    p.add_argument("--mappings", action="store_true",
                   help="also print one witness permutation per image")
    p.set_defaults(func=cmd_ssm)

    p = sub.add_parser("tree-stats", parents=[common],
                       help="print tree structure counts")
    p.add_argument("graph")
    p.add_argument("--dot", metavar="FILE",
                   help="also write the tree as GraphViz text")
    p.set_defaults(func=cmd_tree_stats)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return 3
    if args.stats:
        elapsed_ms = (time.monotonic() - start) * 1000.0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print("time_ms=%.1f maxrss_kb=%d" % (elapsed_ms, peak_kb),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
