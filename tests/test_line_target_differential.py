"""Differential test: line targets served by ``solve_constructive_to``
against the closed-form end sets.

On every path and cycle with n <= 64, on the identity labeling and on a
seeded relabeling, ``solve_constructive_to`` is asked from every hole. It
must refuse an inadmissible hole with ``NotSolvableStart``. From an
admissible hole it must serve each of the hole's end pegs in
``closed_form`` with a witness that starts from the hole and replays to
the target, and refuse every other target with ``NotDoublyFree``, naming
the end pegs. Up to n = 20 every target is asked; above that, three
seeded end pegs and three seeded other targets per hole, since each
served target costs a full solve.

A refused target is decided from the closed form alone: up to n = 16 the
refusal text must be the one a BFS over the lone-peg hops from the plain
solve's last peg gives, and no line solve or hop table is built for it.

``PYTHONPATH=src python tests/test_line_target_differential.py`` asks
every target of every hole for every n <= 64.
"""

import random

import pytest

from conftest import relabeled
from revpeg import construct
from revpeg.construct import solve_constructive, solve_constructive_to
from revpeg.errors import NotDoublyFree, NotSolvableStart
from revpeg.families import cycle_graph, graph_shape, path_graph
from revpeg.invariants import closed_form
from revpeg.model import Configuration, bfs, replay

EVERY_TARGET_UP_TO = 20
MAX_N = 64
REFUSALS_UP_TO = 16


def check_line(g, rng, every_target):
    shape, closed = closed_form(g)
    for hole in g.vertices():
        if not closed.matrix[hole]:
            with pytest.raises(NotSolvableStart):
                solve_constructive_to(g, hole, hole)
            continue
        ends = sorted(closed.matrix[hole])
        refusal = f"{shape} on {g.n} vertices from hole {hole} ends only on {ends}"
        others = sorted(set(g.vertices()) - set(ends))
        if not every_target:
            ends = rng.sample(ends, min(3, len(ends)))
            others = rng.sample(others, min(3, len(others)))
        for target in ends:
            seq = solve_constructive_to(g, hole, target)
            assert seq.start == Configuration.with_hole(g.n, hole)
            assert replay(g, seq).peg_vertices() == (target,)
        for target in others:
            with pytest.raises(NotDoublyFree) as exc:
                solve_constructive_to(g, hole, target)
            assert str(exc.value) == refusal


def check_lines(n, every_target):
    rng = random.Random(6400 + n)
    for line in (path_graph, cycle_graph)[: 1 + (n >= 3)]:
        check_line(line(n), rng, every_target)
        check_line(relabeled(rng, line(n)), rng, every_target)


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_line_targets_are_the_closed_form_end_sets(n):
    check_lines(n, n <= EVERY_TARGET_UP_TO)


def routed_refusal(g, hole):
    """(end pegs, refusal) as the lone-peg routing finds them: the vertices a
    BFS over the hops reaches from the plain solve's last peg, or no end pegs
    and the solve's own refusal for an inadmissible hole."""
    try:
        seq = solve_constructive(g, hole)
    except NotSolvableStart as exc:
        return [], exc
    (peg,) = replay(g, seq).peg_vertices()
    ends = sorted(bfs(construct._lone_peg_hops(g), (peg,))[2])
    shape = graph_shape(g)[0]
    return ends, NotDoublyFree(f"{shape} on {g.n} vertices from hole {hole} ends only on {ends}")


def no_solve(*args):
    raise AssertionError("a refused line target ran a solve or built the hops")


@pytest.mark.parametrize("n", range(2, REFUSALS_UP_TO + 1))
def test_refused_line_targets_keep_their_text_and_run_no_solve(n, monkeypatch):
    rng = random.Random(1600 + n)
    for line in (path_graph, cycle_graph)[: 1 + (n >= 3)]:
        for g in (line(n), relabeled(rng, line(n))):
            refusals = {hole: routed_refusal(g, hole) for hole in g.vertices()}
            with monkeypatch.context() as m:
                m.setattr(construct, "_solve_line", no_solve)
                m.setattr(construct, "_lone_peg_hops", no_solve)
                for hole, (ends, refusal) in refusals.items():
                    for target in sorted(set(g.vertices()) - set(ends)):
                        with pytest.raises(type(refusal)) as exc:
                            solve_constructive_to(g, hole, target)
                        assert str(exc.value) == str(refusal), (g.sorted_edges(), hole, target)


if __name__ == "__main__":
    for n in range(2, MAX_N + 1):
        check_lines(n, every_target=True)
    print(f"every target from every hole agrees on every path and cycle with n <= {MAX_N}")
