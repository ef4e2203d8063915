import random

import pytest

from revpeg.model import Configuration, Graph


def random_connected_graph(rng: random.Random, n: int, extra: int = 2) -> Graph:
    """Random tree (random attachment) plus up to `extra` chords."""
    edges = set()
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        edges.add((u, v))
    non_edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    for e in non_edges[: rng.randint(0, extra)]:
        edges.add(e)
    return Graph(n, sorted(edges))


def relabeled(rng, g):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def subdivided_graph(rng, k):
    """A random connected graph on k vertices with every edge replaced by a
    3-edge path and a few pendant paths hung on original vertices,
    relabeled at random. Every path between degree-3 vertices, and every
    cycle, has length divisible by 3, so the doubly-free predicate is False."""
    while True:
        base = random_connected_graph(rng, k, extra=rng.randint(0, 3))
        if base.max_degree() >= 3:
            break
    edges = []
    nxt = k + 1
    for u, v in base.edges:
        edges += [(u, nxt), (nxt, nxt + 1), (nxt + 1, v)]
        nxt += 2
    for _ in range(rng.randint(0, 2)):
        prev = rng.randint(1, k)
        for _ in range(rng.randint(1, 4)):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return relabeled(rng, Graph(nxt - 1, edges))


def random_configuration(rng: random.Random, n: int) -> Configuration:
    return Configuration(n, rng.randrange(1 << n))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
