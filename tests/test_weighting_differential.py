"""Differential test: the BFS mod-3 weighting against the simple-path searches it replaced.

The reference functions below are the earlier ``binary_weighting`` and
``doubly_free_predicate``, which enumerate every simple path from each
degree-3 vertex. They keep the earlier code apart from names, so the BFS
versions in ``revpeg.invariants`` must return the same predicate, and from
every base of degree >= 3 the same weights or the same ``IllDefined``
refusal. Only the refusal's message may differ: it names the first failing
3-path under the weights each version computed.

``PYTHONPATH=src python tests/test_weighting_differential.py N`` runs the
check on every labeled connected graph with at most N vertices.
"""

import random
import sys

import pytest

from conftest import random_connected_graph, subdivided_graph
from revpeg.census import labeled_connected_graphs
from revpeg.errors import IllDefined, PreconditionFailed
from revpeg.invariants import binary_weighting, doubly_free_predicate
from revpeg.model import is_connected, path_triples

# ---------------------------------------------------------------------------
# Reference: exhaustive simple-path searches
# ---------------------------------------------------------------------------


def ref_simple_path_residues(g, start):
    residues = {v: set() for v in g.vertices()}
    residues[start].add(0)
    on_path = [False] * (g.n + 1)
    on_path[start] = True

    def walk(u, depth):
        for w in g.adj[u]:
            if not on_path[w]:
                on_path[w] = True
                residues[w].add((depth + 1) % 3)
                walk(w, depth + 1)
                on_path[w] = False

    walk(start, 0)
    return residues


def ref_binary_weighting(g, v):
    if g.degree(v) < 3:
        raise PreconditionFailed(f"base vertex {v} must have degree >= 3")
    residues = ref_simple_path_residues(g, v)
    weight = {w: 0 if 0 in residues[w] else 1 for w in g.vertices()}
    for x, y, z, *_ in path_triples(g):
        if x < z and weight[x] + weight[y] + weight[z] != 2:
            raise IllDefined(f"3-path {x}-{y}-{z}")
    return weight


def ref_doubly_free_predicate(g):
    if not is_connected(g):
        raise PreconditionFailed("predicate requires a connected graph")
    if g.max_degree() < 3:
        raise PreconditionFailed("predicate requires a vertex of degree >= 3")
    if len(g.edges) == g.n - 1 and g.max_degree() == g.n - 1:
        raise PreconditionFailed("predicate does not apply to stars")
    high = [v for v in g.vertices() if g.degree(v) >= 3]
    high_set = set(high)

    found = False

    def walk(start, u, depth, on_path):
        nonlocal found
        if found:
            return
        for w in g.adj[u]:
            if w == start and depth >= 2:
                if (depth + 1) % 3 != 0:
                    found = True
                    return
                continue
            if not on_path[w]:
                if w in high_set and (depth + 1) % 3 != 0:
                    found = True
                    return
                on_path[w] = True
                walk(start, w, depth + 1, on_path)
                on_path[w] = False
                if found:
                    return

    for s in high:
        on_path = [False] * (g.n + 1)
        on_path[s] = True
        walk(s, s, 0, on_path)
        if found:
            return True
    return False


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """What fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the refusal type is what gets compared
        return type(exc)


def assert_weightings_agree(g):
    """Compare the predicate, and the weighting from every degree-3 base."""
    assert outcome(doubly_free_predicate, g) == outcome(ref_doubly_free_predicate, g), g
    for v in g.vertices():
        if g.degree(v) >= 3:
            new = outcome(lambda: binary_weighting(g, v).weight)
            assert new == outcome(ref_binary_weighting, g, v), (g, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_labeled_graphs(n):
    for g in labeled_connected_graphs(n):
        assert_weightings_agree(g)


def test_seeded_n6():
    rng = random.Random(606)
    for _ in range(300):
        assert_weightings_agree(random_connected_graph(rng, 6, extra=rng.randint(0, 6)))


@pytest.mark.parametrize("n", range(7, 13))
def test_seeded_graphs(n):
    rng = random.Random(1200 + n)
    for _ in range(100):
        assert_weightings_agree(random_connected_graph(rng, n, extra=rng.randint(0, 6)))


def test_seeded_subdivided_graphs():
    rng = random.Random(333)
    for _ in range(60):
        g = subdivided_graph(rng, rng.randint(4, 6))
        assert doubly_free_predicate(g) is False, g
        assert_weightings_agree(g)


if __name__ == "__main__":
    top = int(sys.argv[1])
    count = 0
    for n in range(1, top + 1):
        for graph in labeled_connected_graphs(n):
            assert_weightings_agree(graph)
            count += 1
    print(f"n<={top}: weightings agree on all {count} labeled connected graphs")
