"""Tests for group.order, the Schreier–Sims group order of a leaf's
generators: closed-form orders of symmetric graph families, independence
from how redundant or how ordered the generating set is, and both accepted
permutation forms. The closed-form tests also bound the labeler's
generating set by log2 of the group order."""

import functools
import math
import random

import pytest

from autotree.graphs import Graph
from autotree.group import order
from autotree.tree import NON_SINGLETON_LEAF, build
from oracle import closure_order


def cocktail_party(k):
    n = 2 * k
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)
               if v != u + k]


def hypercube(d):
    n = 1 << d
    return n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d)
               if u < u ^ (1 << b)]


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    return p, [(u, v) for u in range(p) for v in range(u + 1, p)
               if (v - u) % p in squares]


def relabeled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


@functools.lru_cache(maxsize=None)
def leaf(family, size, seed=None):
    """The generators and vertices of the one non-singleton leaf of the
    family's tree; these graphs are vertex-transitive and irreducible."""
    n, edges = family(size)
    if seed is not None:
        edges = relabeled(n, edges, seed)
    leaves = [node for node in build(Graph(n, edges), reduce=False).nodes()
              if node.kind == NON_SINGLETON_LEAF]
    assert len(leaves) == 1
    return leaves[0].leaf_generators, leaves[0].vertices


@pytest.mark.parametrize("k", range(2, 11))
def test_cocktail_party_order(k):
    gens, vertices = leaf(cocktail_party, k)
    assert order(gens, vertices) == 2 ** k * math.factorial(k)
    assert len(gens) <= math.log2(2 ** k * math.factorial(k))


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("d", range(2, 8))
def test_hypercube_order(d, seed):
    gens, vertices = leaf(hypercube, d, seed)
    assert order(gens, vertices) == 2 ** d * math.factorial(d)
    assert len(gens) <= math.log2(2 ** d * math.factorial(d))


@pytest.mark.parametrize("p", [13, 29, 61])
def test_paley_order(p):
    gens, vertices = leaf(paley, p)
    assert order(gens, vertices) == p * (p - 1) // 2
    assert len(gens) <= math.log2(p * (p - 1) // 2)


def _product(g, h):
    """g, then h."""
    return {v: h[g[v]] for v in g}


@pytest.mark.parametrize("family, size, expected", [
    (cocktail_party, 6, 2 ** 6 * math.factorial(6)),
    (hypercube, 5, 2 ** 5 * math.factorial(5)),
    (paley, 29, 29 * 14),
])
def test_order_ignores_generator_order_and_redundancy(family, size,
                                                      expected):
    gens, vertices = leaf(family, size, 1)
    rng = random.Random(size)
    for _ in range(3):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert order(shuffled, vertices) == expected
    padded = list(gens)
    padded += gens[:3]
    padded.append({v: v for v in vertices})
    padded += [{image: v for v, image in g.items()} for g in gens[:3]]
    for _ in range(10):
        padded.append(_product(rng.choice(gens), rng.choice(gens)))
    rng.shuffle(padded)
    assert order(padded, vertices) == expected


def test_dict_form_on_a_sparse_carrier_matches_list_form():
    rng = random.Random(7)
    carrier = [3, 8, 11, 20, 21, 40, 57]
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(carrier, rng.choice([2, 3, len(carrier)]))
            images = moved[1:] + moved[:1]
            g = {v: v for v in carrier}
            g.update(zip(moved, images))
            gens.append(g)
        as_lists = []
        for g in gens:
            whole = list(range(60))
            for v, image in g.items():
                whole[v] = image
            as_lists.append(whole)
        expected = closure_order(60, gens)
        assert order(gens, carrier) == expected
        assert order(as_lists, carrier) == expected
        assert order(as_lists, range(60)) == expected


def test_small_random_groups_match_their_closure():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 4)):
            perm = list(range(k))
            if rng.random() < 0.5:
                rng.shuffle(perm)
            else:
                i, j = rng.randrange(k), rng.randrange(k)
                perm[i], perm[j] = perm[j], perm[i]
            gens.append(perm)
        assert order(gens, range(k)) == closure_order(
            k, [dict(enumerate(perm)) for perm in gens])


def test_trivial_inputs_give_one():
    assert order([], range(5)) == 1
    assert order([], []) == 1
    assert order([[0, 1, 2], [0, 1, 2]], range(3)) == 1
    assert order([{4: 4, 9: 9}], [4, 9]) == 1
    assert order([[1, 0]], []) == 1
