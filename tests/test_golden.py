"""Byte-for-byte CLI output on the bundled data files.

tests/data/golden/cli.json holds the stdout and exit code of every
subcommand on every file in tests/data, with and without --no-reduce, plus
ssm and ssm --mappings on three fixed queries. The file pins generator
lines and witness cycles, which no other test compares exactly, and every
`auto` case's generator lines must generate a group of its `order` line.
Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from autotree.cli import main
from oracle import closure_order

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden", "cli.json")
FILES = sorted(f for f in os.listdir(DATA)
               if os.path.isfile(os.path.join(DATA, f)))
QUERIES = ("0 4", "1 2 5", "4 5")


def cases():
    """Case name -> (argv with bare file names, query or None)."""
    out = {}
    for flags in ((), ("--no-reduce",)):
        for f in FILES:
            for command in ("canon", "auto", "orbits", "tree-stats"):
                out[" ".join((command, *flags, f))] = (
                    [command, *flags, f], None)
            for other in FILES:
                out[" ".join(("iso", *flags, f, other))] = (
                    ["iso", *flags, f, other], None)
            for query in QUERIES:
                for extra in ((), ("--mappings",)):
                    argv = ["ssm", *flags, *extra, f]
                    out["%s [%s]" % (" ".join(argv), query)] = (argv, query)
    return out


def run_case(argv, query, query_dir):
    args = [os.path.join(DATA, a) if a in FILES else a for a in argv]
    if query is not None:
        path = os.path.join(query_dir, query.replace(" ", "_") + ".txt")
        with open(path, "w") as fh:
            fh.write(query + "\n")
        args.append(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return {"code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(cases()))
def test_cli_output_matches_golden(name, golden, tmp_path):
    argv, query = cases()[name]
    assert run_case(argv, query, str(tmp_path)) == golden[name]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(cases())


def _parse_cycles(line):
    """The permutation dict of a line in cycle notation, e.g. "(0,2)(4,5)"."""
    perm = {}
    for cycle in line[1:-1].split(")("):
        if cycle:
            points = [int(v) for v in cycle.split(",")]
            perm.update(zip(points, points[1:] + points[:1]))
    return perm


@pytest.mark.parametrize("name", sorted(n for n in cases()
                                        if n.startswith("auto ")))
def test_golden_generators_generate_the_golden_order(name, golden):
    *lines, last = golden[name]["stdout"].splitlines()
    assert last.startswith("order ")
    gens = [_parse_cycles(line) for line in lines]
    n = 1 + max((v for g in gens for v in g), default=0)
    assert closure_order(n, gens) == int(last.split()[1])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = {name: run_case(argv, query, tmp)
                  for name, (argv, query) in sorted(cases().items())}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(result), GOLDEN), file=sys.stderr)
