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
