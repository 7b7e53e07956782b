"""Seeded random test graphs shared by the test modules."""

import random

from indcert.graphs import make_graph
from indcert.verify import random_graph


def random_test_graph(rng, max_n):
    """A random graph with some looped and some isolated vertices."""
    g = random_graph(rng, max_n)
    names = list(g.vertices) + [f"iso{k}" for k in range(rng.randrange(3))]
    loops = rng.sample(names, rng.randrange(min(3, len(names)) + 1))
    return make_graph(names, sorted(g.edges), loops)


def random_test_graphs(seed, count, max_n, union_max_n):
    """`count` random test graphs; every third is a disjoint union of two."""
    rng = random.Random(seed)
    for i in range(count):
        g = random_test_graph(rng, max_n)
        if i % 3 == 0:
            g = g.disjoint_union(random_test_graph(rng, union_max_n), suffix="_r")
        yield g


def dense_random_graph(n, p, seed):
    """G(n, p) on v0..v(n-1): each pair i < j an edge when the seeded draw is
    below p, the pairs drawn in lexicographic order."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(names, edges)
