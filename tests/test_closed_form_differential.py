"""Differential test: ``invariants.closed_form`` against the exact oracle.

The closed form must return the oracle's ``Classification``, keyed by the
graph's own vertices: its verdict and its whole start-hole -> end-peg
matrix, the admissible starts and every end set, for stars, paths, cycles
and solver graphs alike, under any labeling. The comparison here is written
out independently of ``census.closed_form_mismatches``.
The constructive solver must also land on the closed form's end pegs:
routed to each of them on doubly free graphs, and inside the end set from
every hole on subdivided ones.

``PYTHONPATH=src python tests/test_closed_form_differential.py N`` compares
every labeled connected graph with at most N vertices and prints the graph
count, the mismatches and the time taken.
"""

import random
import sys
import time

import pytest

from conftest import random_connected_graph, relabeled, subdivided_graph
from revpeg.census import labeled_connected_graphs, sample_solver_graph
from revpeg.construct import solve_constructive, solve_constructive_to
from revpeg.errors import DisconnectedGraph, PreconditionFailed
from revpeg.families import cycle_graph, double_star, path_graph, star_graph
from revpeg.invariants import closed_form, doubly_free_predicate
from revpeg.model import Graph, replay
from revpeg.oracle import Verdict, classify


def assert_agrees(g):
    shape, closed = closed_form(g)
    assert sorted(closed.matrix) == list(g.vertices()), (g, closed.matrix)
    cls = classify(g)
    assert closed.verdict is cls.verdict, (g, shape, closed.verdict, cls.verdict)
    assert closed.matrix == cls.matrix, (g, shape)
    return shape


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_all_labeled_graphs(n):
    shapes = {assert_agrees(g) for g in labeled_connected_graphs(n)}
    assert shapes == ({"path", "cycle", "star", "solver"} if n >= 4 else
                      {"path", "cycle"} if n == 3 else {"path"})


@pytest.mark.parametrize("n", range(6, 15))
def test_seeded_graphs(n):
    rng = random.Random(1400 + n)
    for _ in range(100):
        assert_agrees(random_connected_graph(rng, n, extra=rng.randint(0, 6)))
        assert assert_agrees(sample_solver_graph(rng, n, n)) == "solver"


@pytest.mark.parametrize("n", range(2, 15))
def test_relabeled_lines(n):
    rng = random.Random(2800 + n)
    assert assert_agrees(relabeled(rng, path_graph(n))) == "path"
    if n >= 3:
        assert assert_agrees(relabeled(rng, cycle_graph(n))) == "cycle"
    if n >= 4:
        assert assert_agrees(relabeled(rng, star_graph(n))) == "star"


def small_subdivided_graphs(rng, count, max_n=16):
    """Seeded relabeled subdivided graphs small enough for the oracle."""
    out = []
    while len(out) < count:
        g = subdivided_graph(rng, 4)
        if g.n <= max_n:
            out.append(g)
    return out


def test_seeded_subdivided_graphs():
    # not doubly free, so the end sets split by weight parity
    for g in small_subdivided_graphs(random.Random(4242), 100):
        assert closed_form(g)[1].verdict is Verdict.FREELY_SOLVABLE, g
        assert assert_agrees(g) == "solver"


def test_refusals():
    with pytest.raises(DisconnectedGraph):
        closed_form(Graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)]))
    with pytest.raises(DisconnectedGraph):
        closed_form(Graph(5, [(1, 2), (2, 3), (4, 5)]))
    with pytest.raises(PreconditionFailed):
        closed_form(Graph(1, []))


def test_parity_end_sets_on_h():
    # H = claw 1,2,4 around 3 with 4-5: weights 1,1,0,1,1 from vertex 3
    shape, closed = closed_form(Graph(5, [(1, 3), (2, 3), (3, 4), (4, 5)]))
    assert (shape, closed.verdict) == ("solver", Verdict.FREELY_SOLVABLE)
    assert closed.matrix[3] == frozenset({3})
    assert all(closed.matrix[h] == frozenset({1, 2, 4, 5}) for h in (1, 2, 4, 5))


@pytest.mark.parametrize("g", [double_star(2, 2), sample_solver_graph(random.Random(77), 10, 12)],
                         ids=["doublestar:2,2", "seeded"])
def test_constructive_routes_to_every_predicted_end_peg(g):
    closed = closed_form(g)[1]
    assert closed.verdict is Verdict.DOUBLY_FREELY_SOLVABLE and doubly_free_predicate(g), g
    for hole in g.vertices():
        for target in sorted(closed.matrix[hole]):
            seq = solve_constructive_to(g, hole, target)
            assert replay(g, seq).peg_vertices() == (target,), (g, hole, target)


def test_constructive_ends_inside_the_closed_form_on_subdivided_graphs():
    rng = random.Random(5151)
    for g in (subdivided_graph(rng, 5), subdivided_graph(rng, 6)):
        closed = closed_form(g)[1]
        assert closed.verdict is Verdict.FREELY_SOLVABLE, g
        for hole in g.vertices():
            end = replay(g, solve_constructive(g, hole)).peg_vertices()
            assert len(end) == 1 and end[0] in closed.matrix[hole], (g, hole, end)


if __name__ == "__main__":
    top = int(sys.argv[1])
    started = time.perf_counter()
    count = mismatches = 0
    for n in range(2, top + 1):
        for graph in labeled_connected_graphs(n):
            count += 1
            try:
                assert_agrees(graph)
            except AssertionError:
                mismatches += 1
                print(f"mismatch: {graph.sorted_edges()}")
    print(
        f"n<={top}: {count} labeled connected graphs, {mismatches} mismatches, "
        f"{time.perf_counter() - started:.1f} s"
    )
