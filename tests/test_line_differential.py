"""Differential test: the one line kernel against the path/cycle solvers it replaced.

The reference functions below are the earlier line solvers: a canonical
path solution on the identity labeling, mirrored for the other residue
class, a cycle solution rotated from the path one, and a relabeling pass
that carries either onto a path- or cycle-shaped graph through its line
order, found for a path by walking from its smaller end. They keep the
earlier code apart from names, so ``solve_path``, ``solve_cycle`` and
``line_solver_witness`` in ``revpeg.construct`` must reproduce their move
lists exactly, and raise the same exception types with the same text where
they refuse; ``path_order`` must return the same line order or None.

``PYTHONPATH=src python tests/test_line_differential.py N`` runs the check
from every hole 0..N+1 of every labeled connected graph on N vertices.
"""

import random
import sys

import pytest

from conftest import random_connected_graph, relabeled
from revpeg.census import labeled_connected_graphs
from revpeg.construct import (
    _even_sweep,
    _p4,
    line_solver_witness,
    solve_cycle,
    solve_path,
)
from revpeg.errors import IllegalMove, NotSolvableStart, PreconditionFailed, SolitaireError
from revpeg.families import cycle_graph, cycle_order, path_graph, path_order
from revpeg.invariants import classify_cycle, classify_path
from revpeg.model import JUMP, Configuration, Graph, Move, MoveSequence

# ---------------------------------------------------------------------------
# Reference solvers
# ---------------------------------------------------------------------------


def ref_hole_shift_line(pegs, hole, to, moves):
    d = 1 if to > hole else -1
    while hole != to:
        pegs = _p4(pegs, (hole, hole + d, hole + 2 * d, hole + 3 * d), moves)
        hole += 3 * d
    return pegs


def ref_solve_path_canonical(n, hole):
    pegs = Configuration.with_hole(n, hole).pegs
    moves = []
    if n % 2 == 0:
        ref_hole_shift_line(pegs, hole, 2, moves)
        moves += _even_sweep(list(range(1, n + 1)))
        return moves
    pegs = ref_hole_shift_line(pegs, hole, 3, moves)
    first = Move(JUMP, 1, 2, 3)
    if pegs & first.mask() != 0b011:
        raise IllegalMove(f"{first}: peg/hole pattern does not match")
    moves.append(first)
    ref_hole_shift_line(pegs ^ first.mask(), 2, n - 1, moves)
    moves += _even_sweep(list(range(n, 1, -1)))
    return moves


def ref_solve_path(n, hole):
    verdict = classify_path(n)
    if hole not in verdict.admissible_starts:
        raise NotSolvableStart(f"path on {n} vertices is not solvable from hole {hole}")
    start = Configuration.with_hole(n, hole)
    if n == 2:
        return MoveSequence(start, ())
    canonical = hole % 3 == (2 if n % 2 == 0 else 0)
    if canonical:
        moves = ref_solve_path_canonical(n, hole)
    else:
        mirrored = ref_solve_path_canonical(n, n + 1 - hole)
        moves = [Move(m.kind, n + 1 - m.x, n + 1 - m.y, n + 1 - m.z) for m in mirrored]
    return MoveSequence(start, tuple(moves))


def ref_solve_cycle(n, hole):
    verdict = classify_cycle(n)
    if hole not in verdict.admissible_starts:
        raise NotSolvableStart(f"cycle on {n} vertices is not solvable from hole {hole}")
    entry = 2 if n % 2 == 0 or n % 3 != 0 else 3
    rot = (entry - hole) % n

    def unrotate(v):
        return (v - 1 - rot) % n + 1

    path_seq = ref_solve_path(n, entry)
    moves = tuple(
        Move(m.kind, unrotate(m.x), unrotate(m.y), unrotate(m.z))
        for m in path_seq.moves
    )
    return MoveSequence(Configuration.with_hole(n, hole), moves)


def ref_line_witness(g, shape, order, hole):
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    solve = ref_solve_path if shape == "path" else ref_solve_cycle
    try:
        seq = solve(g.n, order.index(hole) + 1)
    except NotSolvableStart:
        raise NotSolvableStart(
            f"{shape} on {g.n} vertices is not solvable from hole {hole}"
        ) from None
    moves = tuple(
        Move(m.kind, order[m.x - 1], order[m.y - 1], order[m.z - 1]) for m in seq.moves
    )
    return MoveSequence(Configuration.with_hole(g.n, hole), moves)


def ref_path_order(g):
    if g.n == 1:
        return [1] if not g.edges else None
    if len(g.edges) != g.n - 1:
        return None
    ends = [v for v in g.vertices() if g.degree(v) == 1]
    if len(ends) != 2 or any(g.degree(v) != 2 for v in g.vertices() if v not in ends):
        return None
    order = [min(ends)]
    prev = 0
    while len(order) < g.n:
        nxt = [w for w in g.neighbors(order[-1]) if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order if len(set(order)) == g.n else None


def ref_line_solver_witness(g, hole):
    order = ref_path_order(g)
    if order is not None:
        return ref_line_witness(g, "path", order, hole)
    order = cycle_order(g)
    if order is not None:
        return ref_line_witness(g, "cycle", order, hole)
    return None


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(solve, *args):
    """The witness, or the exception type and text of the refusal."""
    try:
        return solve(*args)
    except SolitaireError as exc:
        return type(exc), str(exc)


def assert_agree(new, ref, *args):
    got, want = outcome(new, *args), outcome(ref, *args)
    assert got == want, f"{new.__name__}{args}: {got!r} != {want!r}"


def assert_graph_agrees(g):
    assert path_order(g) == ref_path_order(g)
    for hole in range(g.n + 2):
        assert_agree(line_solver_witness, ref_line_solver_witness, g, hole)


@pytest.mark.parametrize("n", range(1, 65))
def test_identity_lines_every_hole(n):
    for hole in range(n + 2):
        assert_agree(solve_path, ref_solve_path, n, hole)
        assert_agree(solve_cycle, ref_solve_cycle, n, hole)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_labeled_graphs(n):
    for g in labeled_connected_graphs(n):
        assert_graph_agrees(g)


def test_seeded_relabeled_lines():
    rng = random.Random(6464)
    for n in range(1, 65):
        assert_graph_agrees(relabeled(rng, path_graph(n)))
        if n >= 3:
            assert_graph_agrees(relabeled(rng, cycle_graph(n)))


def test_seeded_relabeled_path_orders():
    # Sparse trees are sometimes paths; a path plus a disjoint cycle has
    # n - 1 edges and two ends but is no path.
    rng = random.Random(6565)
    for n in range(1, 65):
        for extra in (0, 1):
            g = relabeled(rng, random_connected_graph(rng, n, extra=extra))
            assert path_order(g) == ref_path_order(g)
    for n in range(6, 65):
        k = rng.randint(3, n - 3)
        line = [(i, i + 1) for i in range(1, n - k)]
        ring = [(i, i + 1) for i in range(n - k + 1, n)] + [(n, n - k + 1)]
        g = relabeled(rng, Graph(n, line + ring))
        assert path_order(g) is None and ref_path_order(g) is None


if __name__ == "__main__":
    n = int(sys.argv[1])
    count = 0
    for graph in labeled_connected_graphs(n):
        assert_graph_agrees(graph)
        count += 1
    print(f"n={n}: line solvers agree from every hole of all {count} labeled connected graphs")
