"""The absorption preconditions that the fixed absorption order rests on.

The solver absorbs the non-H vertices in a precomputed (distance to H,
vertex) order. That order is the "closest outside peg first" order only
while every absorption finds the chosen peg's path to H empty and the H
restriction inside class A or B, so both checks must refuse when they fail.
"""

import pytest

from revpeg.construct import (
    HEmbedding,
    WorkingTree,
    _absorb,
    _build_frame,
    absorb_nearest_peg,
)
from revpeg.errors import PreconditionFailed
from revpeg.families import h_graph
from revpeg.hclasses import HClass, h_class_of, letter_mask
from revpeg.model import Configuration, Graph, MoveSequence, replay

EMB = HEmbedding(1, 2, 3, 4, 5)


def tail_graph(length: int) -> Graph:
    """H (vertices 1..5 = a..e) plus a path 6, 7, ... hanging off a."""
    edges = list(h_graph().edges)
    prev = 1
    for v in range(6, 6 + length):
        edges.append((prev, v))
        prev = v
    return Graph(5 + length, edges)


def h_pegs(letters: str) -> list[int]:
    return [EMB.vertex(ch) for ch in letters]


def test_closer_peg_on_the_chosen_pegs_path_is_refused():
    g = tail_graph(4)  # 6, 7, 8, 9 at distances 1..4 from a
    frame = _build_frame(WorkingTree(g, 3), EMB)
    c = Configuration.from_vertices(g.n, h_pegs("e") + [7, 9])
    with pytest.raises(PreconditionFailed, match="closer peg"):
        _absorb(frame, c.pegs, 9, [])
    # The nearest peg, 7, has an empty path, and is what the wrapper picks.
    out, seq = absorb_nearest_peg(WorkingTree(g, 3), EMB, c)
    assert replay(g, MoveSequence(c, seq.moves)) == out
    assert not out.has_peg(7) and out.has_peg(9)


@pytest.mark.parametrize(
    "letters, cls",
    [
        ("abd", HClass.ISOLATED),
        ("ce", HClass.ISOLATED),
        ("", HClass.EMPTY_OR_FULL),
        ("abcde", HClass.EMPTY_OR_FULL),
    ],
)
def test_h_restriction_outside_classes_a_and_b_is_refused(letters, cls):
    assert h_class_of(letter_mask(letters)) is cls
    g = tail_graph(2)
    c = Configuration.from_vertices(g.n, h_pegs(letters) + [7])
    with pytest.raises(PreconditionFailed, match=cls.value):
        absorb_nearest_peg(WorkingTree(g, 3), EMB, c)
