"""Tests for the command line front end: output formats, exit codes, and
byte-for-byte determinism."""

import random

import pytest

from autotree.cli import main
from autotree.graphs import apply_permutation
from oracle import random_permutation

DATA = "tests/data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_edges(path, edges):
    path.write_text("".join("%d %d\n" % e for e in edges))
    return str(path)


def test_canon_is_deterministic(capsys):
    code, first, _ = run(capsys, "canon", DATA + "/hub.el")
    assert code == 0
    code, second, _ = run(capsys, "canon", DATA + "/hub.el")
    assert code == 0
    assert first == second
    assert first.startswith("8 14\n")


def test_canon_invariant_under_relabeling(capsys, tmp_path, hub_graph):
    rng = random.Random(12)
    gamma = random_permutation(rng, 8)
    shuffled = write_edges(tmp_path / "shuffled.el",
                           apply_permutation(hub_graph, gamma).edges())
    _, original, _ = run(capsys, "canon", DATA + "/hub.el")
    _, relabeled, _ = run(capsys, "canon", shuffled)
    assert original == relabeled


def test_iso_verdicts(capsys, tmp_path):
    code, out, _ = run(capsys, "iso", DATA + "/hub.el", DATA + "/hub.el")
    assert (code, out) == (0, "ISOMORPHIC\n")
    c6 = write_edges(tmp_path / "c6.el",
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    kk = write_edges(tmp_path / "kk.el",
                     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    code, out, _ = run(capsys, "iso", c6, kk)
    assert (code, out) == (1, "NON-ISOMORPHIC\n")


def test_iso_empty_graphs(capsys, tmp_path):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    a.write_text("")
    b.write_text("# no edges\n")
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert (code, out) == (0, "ISOMORPHIC\n")


def test_iso_verdict_agrees_across_reduction(capsys, tmp_path, hub_graph):
    rng = random.Random(34)
    gamma = random_permutation(rng, 8)
    shuffled = write_edges(tmp_path / "shuffled.el",
                           apply_permutation(hub_graph, gamma).edges())
    for extra in ((), ("--no-reduce",)):
        code, out, _ = run(capsys, "iso", *extra, DATA + "/hub.el", shuffled)
        assert (code, out) == (0, "ISOMORPHIC\n")


def test_auto_output(capsys, tmp_path):
    code, out, _ = run(capsys, "auto", DATA + "/hub.el")
    assert code == 0
    assert out.endswith("order 48\n")
    assert "(" in out
    triangle = write_edges(tmp_path / "k3.el", [(0, 1), (1, 2), (0, 2)])
    code, out, _ = run(capsys, "auto", triangle)
    assert code == 0
    assert out.endswith("order 6\n")


def test_auto_trivial_group(capsys, tmp_path):
    lopsided = write_edges(
        tmp_path / "lop.el",
        [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
    code, out, _ = run(capsys, "auto", lopsided)
    assert code == 0
    assert out == "trivial group\norder 1\n"


def test_orbits_output(capsys):
    code, out, _ = run(capsys, "orbits", DATA + "/hub.el")
    assert code == 0
    assert out == "0 1 2 3 | 4 5 6 | 7\norder 48\n"


def test_ssm_output(capsys, tmp_path):
    query = tmp_path / "q.txt"
    query.write_text("4 5\n")
    code, out, _ = run(capsys, "ssm", DATA + "/hub.el", str(query))
    assert code == 0
    assert out == "4 5\n4 6\n5 6\n"


def test_ssm_mappings_output(capsys, tmp_path):
    query = tmp_path / "q.txt"
    query.write_text("4 5\n")
    code, out, _ = run(capsys, "ssm", "--mappings", DATA + "/hub.el",
                       str(query))
    assert code == 0
    lines = out.splitlines()
    assert [line.split("\t")[0] for line in lines] == ["4 5", "4 6", "5 6"]
    assert lines[0].split("\t")[1] == "()"


def test_tree_stats_output(capsys, tmp_path):
    code, out, _ = run(capsys, "tree-stats", "--no-reduce", DATA + "/hub.el")
    assert code == 0
    assert out == ("nodes=7\nsingleton_leaves=4\nnon_singleton_leaves=1\n"
                   "avg_leaf_size=4.0\ndepth=2\n")
    dot = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "tree-stats", "--dot", str(dot),
                     DATA + "/hub.el")
    assert code == 0
    assert dot.read_text().startswith("digraph autotree {")


def test_tree_stats_empty_graph(capsys, tmp_path):
    empty = tmp_path / "empty.el"
    empty.write_text("")
    code, out, _ = run(capsys, "tree-stats", str(empty))
    assert code == 0
    assert out == ("nodes=0\nsingleton_leaves=0\nnon_singleton_leaves=0\n"
                   "avg_leaf_size=0.0\ndepth=0\n")


def test_dimacs_input_by_extension(capsys):
    code, out, _ = run(capsys, "canon", DATA + "/diamond.dimacs")
    assert code == 0
    assert out.startswith("4 5\n")


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "canon", "no_such_file.el")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bad_query_exits_2(capsys, tmp_path):
    bad = tmp_path / "q.txt"
    bad.write_text("not numbers\n")
    code, _, err = run(capsys, "ssm", DATA + "/hub.el", str(bad))
    assert code == 2
    assert "error:" in err
    empty = tmp_path / "q2.txt"
    empty.write_text("\n")
    code, _, _ = run(capsys, "ssm", DATA + "/hub.el", str(empty))
    assert code == 2
    out_of_range = tmp_path / "q3.txt"
    out_of_range.write_text("0 99\n")
    code, _, _ = run(capsys, "ssm", DATA + "/hub.el", str(out_of_range))
    assert code == 2


def test_malformed_dimacs_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.dimacs"
    bad.write_text("e 1 2\n")
    code, _, err = run(capsys, "canon", str(bad))
    assert code == 2
    assert "error:" in err


def test_orbits_on_a_deep_search(capsys, tmp_path, twin_cycle_60,
                                 shallow_recursion):
    path = write_edges(tmp_path / "twins.el", twin_cycle_60.edges())
    code, out, err = run(capsys, "orbits", path)
    assert code == 0, err
    assert out == "%s\norder %d\n" % (" ".join(map(str, range(120))),
                                       2 ** 60 * 120)


def test_stats_line_goes_to_stderr(capsys):
    code, out, err = run(capsys, "canon", "--stats", DATA + "/hub.el")
    assert code == 0
    assert "time_ms=" in err and "maxrss_kb=" in err
    assert "time_ms" not in out
