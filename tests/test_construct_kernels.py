"""The absorption preconditions that the fixed absorption order rests on,
the per-vertex absorption plans of the frame, and the checks that stand in
for per-absorption ones.

The solver absorbs the non-H vertices in a precomputed (distance to H,
vertex) order. That order is the "closest outside peg first" order only
while every absorption finds the chosen peg's path to H empty and the H
restriction inside class A or B, so both checks must refuse when they fail.
Each absorption plays its vertex's plan, which must hold what a walk along
``toward`` derives: the vertices between the peg and H, the march 4-paths
and, per H class, the staging mask and the entry 4-path. An absorption does
not re-check its result: the frame refuses an ``_ABSORB`` entry whose
staging plus landing letter leaves classes A and B, and the solve refuses
pegs left outside H once the absorptions are done.

The macro moves and within-H walks come from shared caches, so the peg/hole
checks must still run on every play: a corrupted route or a peg mask that
matches neither macro case raises as it did when each move was built on
the spot.
"""

import dataclasses
import random

import pytest

from conftest import random_connected_graph, relabeled
import revpeg.construct as construct
from revpeg.construct import (
    _ABSORB,
    HEmbedding,
    WorkingTree,
    _absorb,
    _build_frame,
    _frame,
    _p4,
    _path_toward_h,
    absorb_nearest_peg,
    p4_move,
    solve_constructive,
    transform_within_h,
)
from revpeg.errors import IllegalMove, InvariantViolation, PatternMismatch, PreconditionFailed
from revpeg.families import h_graph, is_star_shape
from revpeg.hclasses import HClass, h_class_of, letter_mask
from revpeg.model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    replay,
)

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


@pytest.fixture
def fresh_frames():
    """Clear the frame caches around a test that corrupts ``_ABSORB`` or
    ``_frame``, so no frame built from the corruption outlives it."""
    _build_frame.cache_clear()
    _frame.cache_clear()
    yield
    _build_frame.cache_clear()
    _frame.cache_clear()


def test_every_absorb_entry_passes_the_frame_check(fresh_frames):
    # A tail of three vertices off every letter puts a vertex at distances
    # 1..3 from each, so building the frame reads all 30 entries.
    edges = list(h_graph().edges)
    for i, letter in enumerate("abcde"):
        first = 6 + 3 * i
        edges += [(EMB.vertex(letter), first), (first, first + 1), (first + 1, first + 2)]
    frame = _build_frame(WorkingTree(Graph(20, edges), 3), EMB)
    read = {(EMB.letter(_path_toward_h(frame.toward, v, frame.dist[v])[-1]), frame.dist[v])
            for v in frame.order}
    assert read == {(letter, k) for letter in "abcde" for k in (1, 2, 3)}
    entries = [entry for by_distance in _ABSORB.values() for entry in by_distance.values()]
    assert len(entries) == 30
    for stage, entry in entries:
        assert h_class_of(letter_mask(stage) | letter_mask(entry[-1])) in (HClass.A, HClass.B)


def test_frozen_absorb_entry_is_refused_by_the_frame(monkeypatch, fresh_frames):
    # Staging bd plus landing letter a is abd, an isolated class.
    monkeypatch.setitem(_ABSORB[("a", HClass.A)], 3, ("bd", "a"))
    with pytest.raises(
        InvariantViolation,
        match=r"^_ABSORB\[\('a', A\)\]\[3\] = \('bd', 'a'\) leaves H in Isolated; "
        r"expected class A or B$",
    ):
        _build_frame(WorkingTree(tail_graph(3), 3), EMB)  # 8 is 3 steps from a


def test_pegs_left_outside_h_are_refused(monkeypatch, fresh_frames):
    g = tail_graph(4)
    frame = _frame(g)
    # A frame whose order skips the farthest vertex leaves its peg outside.
    monkeypatch.setattr(
        construct, "_frame", lambda g: dataclasses.replace(frame, order=frame.order[:-1])
    )
    with pytest.raises(
        InvariantViolation, match="^pegs are left outside H after the absorptions$"
    ):
        solve_constructive(g, 7)


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


def walked_plan(frame, v, cls):
    """The plan of v for H class ``cls``, derived by walking ``toward``:
    (between mask, march 4-paths, staging mask, entry 4-path)."""
    emb, toward = frame.emb, frame.toward
    k = frame.dist[v]
    between = sum(1 << (u - 1) for u in _path_toward_h(toward, v, k - 1)[1:])
    marches = []
    while k > 3:
        path = _path_toward_h(toward, v, 3)
        marches.append(tuple(path))
        v = path[3]
        k -= 3
    stage, entry = _ABSORB[(emb.letter(_path_toward_h(toward, v, k)[k]), cls)][k]
    path = _path_toward_h(toward, v, k - 1) + [emb.vertex(ch) for ch in entry]
    return between, tuple(marches), letter_mask(stage), tuple(path)


@pytest.mark.parametrize("n", [6, 8, 12, 16, 24, 32, 48, 64])
def test_plans_match_the_walk_toward_h(n):
    rng = random.Random(4200 + n)
    checked = 0
    for extra in (0, 1, 3):
        g = relabeled(rng, random_connected_graph(rng, n, extra=extra))
        if g.max_degree() < 3 or is_star_shape(g):
            continue
        frame = _frame(g)
        assert frame.plans[0] is None
        assert all(frame.plans[v] is None for v in frame.emb.vertices)
        for v in frame.order:
            assert_plan_matches_the_walk(frame, v)
            checked += 1
    assert checked


def assert_plan_matches_the_walk(frame, v):
    """Follow v's march chain through the plans and compare it, the between
    mask and the final staging and entry with ``walked_plan``."""
    between, march, stage_a, entry_a, stage_b, entry_b = frame.plans[v]
    marches = []
    while march:
        marches.append(march)
        march = frame.plans[march[3]][1]
    assert (between, tuple(marches), stage_a, entry_a) == walked_plan(frame, v, HClass.A)
    assert (between, tuple(marches), stage_b, entry_b) == walked_plan(frame, v, HClass.B)


def test_plans_on_a_long_tail():
    # Vertices 6..15 sit at distances 1..10 from a: up to three marches.
    frame = _build_frame(WorkingTree(tail_graph(10), 3), EMB)
    marching = [v for v in range(6, 16) if frame.plans[v][1]]
    assert marching == list(range(9, 16))
    for v in frame.order:
        assert_plan_matches_the_walk(frame, v)


@pytest.fixture
def fresh_walks():
    """Clear the shared within-H walks around a test that corrupts
    ``h_route``, so no corrupted walk is served before or after it."""
    construct._h_walk.cache_clear()
    yield
    construct._h_walk.cache_clear()


def test_corrupted_route_fails_its_pattern_check(monkeypatch, fresh_walks):
    # A lone peg on a cannot jump, so the route's first move must fail.
    monkeypatch.setattr(construct, "h_route", lambda src, dst: (Move(JUMP, 1, 3, 4),))
    with pytest.raises(IllegalMove, match=r"^jump\(1,3,4\): peg/hole pattern does not match$"):
        transform_within_h(EMB, Configuration.from_vertices(5, h_pegs("a")), h_pegs("b"))


def test_corrupted_route_fails_inside_a_solve(monkeypatch, fresh_walks):
    g = tail_graph(4)
    a, _, c, d, _ = _frame(g).emb.vertices
    # After the hole shift H holds one hole, and an unjump needs two.
    monkeypatch.setattr(construct, "h_route", lambda src, dst: (Move(UNJUMP, 1, 3, 4),))
    with pytest.raises(
        IllegalMove, match=rf"^unjump\({a},{c},{d}\): peg/hole pattern does not match$"
    ):
        solve_constructive(g, 7)


def test_shared_macros_check_every_play():
    g = tail_graph(10)
    for hole in g.vertices():
        solve_constructive(g, hole)  # caches every march, entry and shift macro
    frame = _frame(g)
    paths = {frame.plans[v][i] for v in frame.order for i in (1, 3, 5)} - {None}
    full = (1 << g.n) - 1
    for path in paths:
        v0, v1, v2, v3 = path
        bits = [1 << (v - 1) for v in path]
        # The case the solve never played gets its own moves.
        moves = []
        assert _p4(full ^ bits[0], path, moves) == full ^ bits[3]
        assert moves == [Move(JUMP, v2, v1, v0), Move(UNJUMP, v1, v2, v3)]
        for pegs in (full, bits[0] | bits[1], 0):
            states = tuple(bool(pegs & b) for b in bits)
            with pytest.raises(PatternMismatch) as err:
                _p4(pegs, path, [])
            assert str(err.value) == (
                f"path {path} holds pegs {states}; need peg+3 holes or hole+3 pegs"
            )
            with pytest.raises(PatternMismatch, match="need peg\\+3 holes or hole\\+3 pegs"):
                p4_move(g, Configuration(g.n, pegs), list(path))
