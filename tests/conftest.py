import sys

import pytest

from autotree.graphs import Graph


def hub_edges():
    # 4-cycle 0-1-2-3, triangle 4-5-6, hub vertex 7 adjacent to all of 0..6
    return [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)] + [(v, 7) for v in range(7)]


def mirror_edges():
    # axis vertex 0 joining two mirrored branches; each branch is a triangle
    # with a pendant vertex hanging off each corner
    edges = []
    for base in (1, 7):
        clique = [base, base + 2, base + 4]
        edges += [(clique[0], clique[1]), (clique[0], clique[2]), (clique[1], clique[2])]
        edges += [(c, c + 1) for c in clique]
        edges += [(0, c) for c in clique]
    return edges


@pytest.fixture
def hub_graph():
    return Graph(8, hub_edges())


@pytest.fixture
def mirror_graph():
    return Graph(13, mirror_edges())


class _Unwalkable:
    def __iter__(self):
        raise AssertionError("walked a container the caller must not scan")


@pytest.fixture
def unwalkable():
    """Stands in for a parent's vertex or cell list, to show that code which
    should cost only what it produces never iterates it."""
    return _Unwalkable()


@pytest.fixture
def twin_cycle_60():
    """C_60[2K1]: the cycle C_60 with each vertex doubled into two
    non-adjacent open twins. Its IR search individualizes 60 times on one
    path, and its group has order 2^60 * 120."""
    m = 60
    return Graph(2 * m, [(2 * i + a, 2 * ((i + 1) % m) + b)
                         for i in range(m) for a in (0, 1) for b in (0, 1)])


@pytest.fixture
def shallow_recursion():
    """Lower the recursion limit to 30 frames above the caller's depth,
    fewer than a search that recurses once per individualization needs on
    twin_cycle_60."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    yield
    sys.setrecursionlimit(saved)
