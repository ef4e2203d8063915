"""``families.graph_shape`` against the case split it replaced.

The reference decides the shape the way ``closed_form`` did before the
split had one home: connectivity first, then ``path_order``, then
``cycle_order``, then the star test, and every other connected graph is a
solver graph.
"""

import random

import pytest

import revpeg.families as families
from conftest import relabeled
from revpeg.census import sample_solver_graph
from revpeg.families import (
    cycle_graph,
    cycle_order,
    graph_shape,
    h_graph,
    is_star_shape,
    path_graph,
    path_order,
    star_graph,
)
from revpeg.model import Graph, is_connected


def ref_graph_shape(g):
    labels = list(g.vertices())
    if not is_connected(g):
        return None, labels
    order = path_order(g)
    if order is not None:
        return "path", order
    order = cycle_order(g)
    if order is not None:
        return "cycle", order
    return ("star" if is_star_shape(g) else "solver"), labels


def labeled_graphs(n):
    """Every labeled graph on 1..n, connected or not."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_every_labeled_graph_up_to_six_vertices():
    seen = set()
    for n in range(1, 7):
        for g in labeled_graphs(n):
            got = graph_shape(g)
            assert got == ref_graph_shape(g), sorted(g.edges)
            seen.add(got[0])
    assert seen == {None, "path", "cycle", "star", "solver"}


def test_relabeled_lines_and_stars_up_to_64_vertices():
    rng = random.Random(2323)
    for n in range(1, 65):
        graphs = [(path_graph(n), "path")]
        if n >= 3:
            graphs.append((cycle_graph(n), "cycle"))
        if n >= 2:
            graphs.append((star_graph(n), "star" if n >= 4 else "path"))
        for g, shape in graphs:
            g = relabeled(rng, g)
            got = graph_shape(g)
            assert got == ref_graph_shape(g)
            assert got[0] == shape


def test_sampled_solver_graphs():
    rng = random.Random(2424)
    for _ in range(300):
        g = relabeled(rng, sample_solver_graph(rng, 4, 64))
        assert graph_shape(g) == ref_graph_shape(g) == ("solver", list(g.vertices()))


@pytest.mark.parametrize("g, shape", [
    (star_graph(6), "star"),
    (h_graph(), "solver"),
    (Graph(7, [(1, 2), (1, 3), (1, 4), (5, 6)]), None),
], ids=["star", "solver", "disconnected"])
def test_degree_three_graphs_skip_the_line_orders(monkeypatch, g, shape):
    def refuse(g):
        raise AssertionError("a graph with a degree-3 vertex is not a line")

    monkeypatch.setattr(families, "path_order", refuse)
    monkeypatch.setattr(families, "cycle_order", refuse)
    assert graph_shape(g) == (shape, list(g.vertices()))
