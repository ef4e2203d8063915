import random

import pytest

from revpeg.model import Configuration, Graph
from revpeg.oracle import _image, _members


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


def to_half(states: int, parity: int) -> int:
    """The states of peg-count parity `parity` in the set `states` (bit s
    for state s), at the oracle's half width: state s at index s >> 1."""
    return sum(1 << (s >> 1) for s in _members(states) if s.bit_count() % 2 == parity)


def from_half(half: int, parity: int) -> int:
    """The set (bit s for state s) of the states of parity `parity` that the
    half-width set `half` holds: index h is the state whose bits above bit 0
    are h and whose peg count has that parity."""
    return sum(1 << (h << 1 | (parity ^ h.bit_count() % 2)) for h in _members(half))


def image_of(states: int, g: Graph) -> int:
    """The oracle's ``_image`` of a set of states of either parity: each
    parity's states at half width, their images translated back."""
    return sum(from_half(_image(to_half(states, p), p, g), 1 - p) for p in (0, 1))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
