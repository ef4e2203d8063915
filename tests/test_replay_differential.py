"""Differential test: replay on the int peg mask against the replay it replaced.

The reference functions below are the earlier verifier: a ``Configuration``
built after every move, the geometry checked as three distinct vertices and
two ``has_edge`` lookups, and the peg/hole pattern checked per move. They
keep the earlier code apart from names, so ``replay`` and ``trace`` in
``revpeg.model`` must return the same final configuration and the same
trace, and raise ``IllegalMoveAt`` with the same index and message where
they refuse. Witnesses come from the constructive solver (routed ones
included), the line solver and the oracle; each is checked as it is and
under mutants: a flipped move kind, x = z, x = y, a non-edge, a vertex 0
or n + 1, and a start on another vertex count.

``PYTHONPATH=src python tests/test_replay_differential.py N`` runs the
check on the witnesses and mutants from every hole of every labeled
connected graph on N vertices.
"""

import random
import sys

import pytest

from conftest import random_connected_graph, relabeled, subdivided_graph
from revpeg.census import labeled_connected_graphs
from revpeg.construct import line_solver_witness, solve_constructive, solve_constructive_to
from revpeg.errors import IllegalMoveAt, NotDoublyFree, NotSolvableStart, PreconditionFailed
from revpeg.families import cycle_graph, is_star_shape, path_graph
from revpeg.invariants import doubly_free_predicate
from revpeg.model import (
    JUMP,
    UNJUMP,
    Configuration,
    Move,
    MoveSequence,
    replay,
    trace,
)
from revpeg.oracle import solve_from

# ---------------------------------------------------------------------------
# Reference verifier
# ---------------------------------------------------------------------------


def ref_geometry_ok(g, m):
    return len({m.x, m.y, m.z}) == 3 and g.has_edge(m.x, m.y) and g.has_edge(m.y, m.z)


def ref_pattern_ok(pegs, m):
    bx, by, bz = 1 << (m.x - 1), 1 << (m.y - 1), 1 << (m.z - 1)
    return pegs & (bx | by | bz) == (bx | by if m.kind is JUMP else bz)


def ref_replay_steps(g, seq):
    c = seq.start
    if c.n != g.n:
        raise IllegalMoveAt(0, f"start configuration is on {c.n} vertices, graph on {g.n}")
    for i, m in enumerate(seq.moves):
        if not ref_geometry_ok(g, m):
            raise IllegalMoveAt(i, f"{m}: x-y-z is not a 3-path in the graph")
        if not ref_pattern_ok(c.pegs, m):
            raise IllegalMoveAt(i, f"{m}: peg/hole pattern does not match")
        c = Configuration(c.n, c.pegs ^ m.mask())
        yield c


def ref_replay(g, seq):
    c = seq.start
    for c in ref_replay_steps(g, seq):
        pass
    return c


def ref_trace(g, seq):
    return list(ref_replay_steps(g, seq))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(fn, g, seq):
    """What fn returns, or the index and message of the IllegalMoveAt it raises."""
    try:
        return fn(g, seq)
    except IllegalMoveAt as exc:
        return ("IllegalMoveAt", exc.index, str(exc))


def assert_replays_agree(g, seq):
    assert outcome(replay, g, seq) == outcome(ref_replay, g, seq)
    assert outcome(trace, g, seq) == outcome(ref_trace, g, seq)


def mutants(g, seq, rng):
    """The witness with one move, or the start, broken in each listed way."""
    n = g.n
    other_n = n - 1 if n > 1 else n + 1
    yield MoveSequence(Configuration(other_n, seq.start.pegs & ((1 << other_n) - 1)), seq.moves)
    if not seq.moves:
        return
    i = rng.randrange(len(seq.moves))
    m = seq.moves[i]
    flipped = UNJUMP if m.kind is JUMP else JUMP
    non_adjacent = [v for v in g.vertices() if v != m.y and not g.has_edge(v, m.y)]
    broken = [
        Move(flipped, m.x, m.y, m.z),
        Move(m.kind, m.z, m.y, m.z),
        Move(m.kind, m.y, m.y, m.z),
        Move(m.kind, 0, m.y, m.z),
        Move(m.kind, m.x, m.y, n + 1),
    ]
    if non_adjacent:
        broken.append(Move(m.kind, rng.choice(non_adjacent), m.y, m.z))
    for b in broken:
        yield MoveSequence(seq.start, seq.moves[:i] + (b,) + seq.moves[i + 1 :])


def witnesses(g, hole, targets=(), oracle=True):
    """Every witness the solvers give from ``hole``: the constructive one,
    routed ones to ``targets``, the line solver's and the oracle's."""
    solvers = [lambda: solve_constructive(g, hole), lambda: line_solver_witness(g, hole)]
    solvers += [lambda t=t: solve_constructive_to(g, hole, t) for t in targets]
    if oracle:
        solvers.append(lambda: getattr(solve_from(g, hole), "witness", None))
    for solve in solvers:
        try:
            seq = solve()
        except (PreconditionFailed, NotDoublyFree, NotSolvableStart):
            # A refusal has no witness to replay.
            continue
        if seq is not None:
            yield seq


def check_graph(g, rng, holes=None, targets=(), oracle=True):
    count = 0
    for hole in holes or g.vertices():
        for seq in witnesses(g, hole, targets, oracle):
            assert_replays_agree(g, seq)
            for bad in mutants(g, seq, rng):
                assert_replays_agree(g, bad)
            count += 1
    return count


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_labeled_graphs(n):
    rng = random.Random(500 + n)
    for g in labeled_connected_graphs(n):
        check_graph(g, rng)


@pytest.mark.parametrize("n", [6, 8, 10, 12, 16, 24, 32, 48, 64])
def test_seeded_graphs(n):
    rng = random.Random(600 + n)
    g = relabeled(rng, random_connected_graph(rng, n, extra=rng.randint(0, 4)))
    holes = rng.sample(range(1, n + 1), min(n, 6))
    targets = rng.sample(range(1, n + 1), min(n, 3)) if doubly_free_predicate(g) else ()
    assert check_graph(g, rng, holes, targets, oracle=n <= 12) > 0


@pytest.mark.parametrize("k", [4, 8, 16])
def test_seeded_subdivided_graphs(k):
    rng = random.Random(700 + k)
    g = subdivided_graph(rng, k)
    assert g.n <= 64
    assert check_graph(g, rng, rng.sample(range(1, g.n + 1), 6), oracle=g.n <= 12) > 0


@pytest.mark.parametrize("n", [9, 12, 60, 64])
def test_paths_and_cycles(n):
    rng = random.Random(800 + n)
    for g in (path_graph(n), relabeled(rng, cycle_graph(n))):
        assert check_graph(g, rng, oracle=n <= 12) > 0


def test_routed_witnesses_on_a_sparse_doubly_free_graph():
    # Sparse doubly free graphs route the lone peg through H teleports as
    # well as 4-paths, so routed witnesses carry within-H moves.
    rng = random.Random(900)
    g = random_connected_graph(rng, 20, extra=2)
    while not doubly_free_predicate(g) or g.max_degree() < 3 or is_star_shape(g):
        g = random_connected_graph(rng, 20, extra=2)
    assert check_graph(g, rng, [1, 7, 20], targets=g.vertices(), oracle=False) > 0


if __name__ == "__main__":
    n = int(sys.argv[1])
    rng = random.Random(500 + n)
    graphs = witnessed = 0
    for graph in labeled_connected_graphs(n):
        witnessed += check_graph(graph, rng)
        graphs += 1
    print(f"n={n}: replay and trace agree with the reference on {witnessed} witnesses "
          f"(constructive, line solver, oracle) and their mutants from every hole of "
          f"all {graphs} labeled connected graphs")
