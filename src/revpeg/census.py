"""Desk-scale census: enumerate or sample graphs and check the trichotomy.

Every connected graph is a star, a path, a cycle, or has a vertex of degree
at least 3, and in the last case it must be freely solvable, with the
doubly-free predicate deciding whether the end peg can be placed anywhere.
Each censused graph is checked against the exact oracle, the constructive
solver (witnesses replayed from every start hole), and the closed-form
classifiers where they apply.
"""

from __future__ import annotations

import random

from .construct import solve_constructive, solve_path, solve_cycle
from .errors import PreconditionFailed, SolitaireError
from .families import cycle_order, is_star_shape, path_order
from .graphio import serialize_graph
from .invariants import (
    PathCycleVerdict,
    classify_cycle,
    classify_path,
    doubly_free_predicate,
    star_certificate,
)
from .model import Configuration, Graph, Move, MoveSequence, is_connected, replay
from .oracle import Classification, Verdict, classify


def labeled_connected_graphs(n: int):
    """All labeled connected graphs on vertices 1..n, by edge subset."""
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for bits in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        g = Graph(n, edges)
        if is_connected(g):
            yield g


def sample_solver_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """Seeded random connected non-star graph with a degree-3 vertex:
    random attachment tree plus a few chords. Sizes are drawn from
    n_lo..n_hi, which must include some n >= 4."""
    if not 1 <= n_lo <= n_hi or n_hi < 4:
        raise PreconditionFailed(
            f"sampled sizes {n_lo}..{n_hi} hold no connected non-star graph "
            "with a degree-3 vertex (need 1 <= LO <= HI and HI >= 4)"
        )
    while True:
        n = rng.randint(n_lo, n_hi)
        edges = set()
        for v in range(2, n + 1):
            edges.add((rng.randrange(1, v), v))
        non_edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in edges
        ]
        rng.shuffle(non_edges)
        for e in non_edges[: rng.randint(1, 3)]:
            edges.add(e)
        g = Graph(n, sorted(edges))
        if g.max_degree() >= 3 and not is_star_shape(g):
            return g


def line_shape(g: Graph):
    """("path" | "cycle", line labeling, closed-form verdict) for a path- or
    cycle-shaped graph, else None."""
    order = path_order(g)
    if order is not None:
        return "path", order, classify_path(g.n)
    order = cycle_order(g)
    if order is not None:
        return "cycle", order, classify_cycle(g.n)
    return None


def closed_form_mismatches(
    cls: Classification, order: list[int], closed_form: PathCycleVerdict
) -> list[str]:
    """Every disagreement between an oracle classification and a closed-form
    path/cycle verdict, translated through the line labeling `order`
    (position p on the line is vertex order[p - 1]); empty when they agree."""
    failures = []
    pos_of = {v: i + 1 for i, v in enumerate(order)}
    oracle_starts = frozenset(h for h in cls.matrix if cls.matrix[h])
    want_starts = frozenset(order[p - 1] for p in closed_form.admissible_starts)
    if oracle_starts != want_starts:
        failures.append(
            f"starts mismatch: oracle {sorted(oracle_starts)} closed-form {sorted(want_starts)}"
        )
    if cls.verdict is not closed_form.level:
        failures.append(
            f"verdict mismatch: oracle {cls.verdict.value} closed-form {closed_form.level.value}"
        )
    for h in oracle_starts & want_starts:
        want_ends = frozenset(order[p - 1] for p in closed_form.end_pegs[pos_of[h]])
        if cls.matrix[h] != want_ends:
            failures.append(
                f"ends mismatch at hole {h}: oracle {sorted(cls.matrix[h])} "
                f"closed-form {sorted(want_ends)}"
            )
    return failures


def _check_solver_shape(g: Graph, cls) -> list[str]:
    failures = []
    if cls.verdict not in (Verdict.FREELY_SOLVABLE, Verdict.DOUBLY_FREELY_SOLVABLE):
        failures.append(f"expected freely solvable, oracle says {cls.verdict.value}")
    for hole in g.vertices():
        try:
            seq = solve_constructive(g, hole)
            end = replay(g, seq)
        except SolitaireError as exc:
            failures.append(f"constructive solve failed from hole {hole}: {exc}")
            continue
        if end.peg_count() != 1:
            failures.append(f"witness from hole {hole} left {end.peg_count()} pegs")
        elif end.peg_vertices()[0] not in cls.matrix[hole]:
            failures.append(
                f"witness from hole {hole} ended on {end.peg_vertices()[0]}, "
                f"outside the oracle end set"
            )
    predicate = doubly_free_predicate(g)
    oracle_doubly = cls.verdict is Verdict.DOUBLY_FREELY_SOLVABLE
    if predicate != oracle_doubly:
        failures.append(
            f"doubly-free predicate {predicate} but oracle "
            f"full-matrix test {oracle_doubly}"
        )
    return failures


def check_graph(g: Graph) -> dict:
    """One census record: shape, verdict, and any trichotomy violations."""
    cls = classify(g)
    if g.n >= 4 and is_star_shape(g):
        shape = "star"
        failures = []
        if cls.verdict is not Verdict.NOT_SOLVABLE:
            failures.append(f"star classified {cls.verdict.value}")
        if not star_certificate(g.n).verify().proves_not_solvable:
            failures.append("star certificate failed to verify")
    elif (line := line_shape(g)) is not None:
        shape, order, closed_form = line
        failures = closed_form_mismatches(cls, order, closed_form)
    else:
        shape = "solver"
        failures = _check_solver_shape(g, cls)
    return {
        "graph": serialize_graph(g).replace("\n", ";"),
        "n": g.n,
        "shape": shape,
        "verdict": cls.verdict.value,
        "failures": failures,
    }


def check_graph_edges(args: tuple[int, tuple[tuple[int, int], ...]]) -> dict:
    """Pool-friendly wrapper taking (n, edges)."""
    n, edges = args
    return check_graph(Graph(n, edges))


def line_solver_witness(g: Graph, hole: int) -> MoveSequence | None:
    """Constructive witness for a path- or cycle-shaped graph under any
    labeling, or None if this shape has no routine."""
    order = path_order(g)
    if order is not None:
        pos_of = {v: i + 1 for i, v in enumerate(order)}
        seq = solve_path(g.n, pos_of[hole])
        return _map_line_sequence(g, order, seq)
    cyc = cycle_order(g)
    if cyc is not None:
        pos_of = {v: i + 1 for i, v in enumerate(cyc)}
        seq = solve_cycle(g.n, pos_of[hole])
        return _map_line_sequence(g, cyc, seq)
    return None


def _map_line_sequence(g: Graph, order: list[int], seq: MoveSequence) -> MoveSequence:
    start_holes = seq.start.hole_vertices()
    start = Configuration.with_hole(g.n, order[start_holes[0] - 1])
    moves = tuple(
        Move(m.kind, order[m.x - 1], order[m.y - 1], order[m.z - 1]) for m in seq.moves
    )
    return MoveSequence(start, moves)
