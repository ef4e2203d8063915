"""Desk-scale census: enumerate or sample graphs and check the trichotomy.

Every connected graph is a star, a path, a cycle, or has a vertex of degree
at least 3, and in the last case it must be freely solvable, with the
doubly-free predicate deciding whether the end peg can be placed anywhere.
Each censused graph is checked by one comparison of ``invariants.closed_form``
against the exact oracle and by a replayed constructive witness from every
start the oracle admits.
"""

from __future__ import annotations

import random

# line_solver_witness stays importable from here: tests and the benchmark
# call census.line_solver_witness.
from .construct import line_solver_witness, solve_constructive
from .errors import PreconditionFailed, SolitaireError
from .families import graph_shape
from .graphio import serialize_graph
from .invariants import closed_form, star_certificate
from .model import Graph, is_connected, replay
from .oracle import Classification, classify


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
        if graph_shape(g)[0] == "solver":
            return g


def closed_form_mismatches(cls: Classification, closed: Classification) -> list[str]:
    """Every disagreement between an oracle classification and the closed
    form's; empty when they agree."""
    failures = []
    oracle_starts = frozenset(h for h in cls.matrix if cls.matrix[h])
    want_starts = frozenset(h for h in closed.matrix if closed.matrix[h])
    if oracle_starts != want_starts:
        failures.append(
            f"starts mismatch: oracle {sorted(oracle_starts)} closed-form {sorted(want_starts)}"
        )
    if cls.verdict is not closed.verdict:
        failures.append(
            f"verdict mismatch: oracle {cls.verdict.value} closed-form {closed.verdict.value}"
        )
    for h in oracle_starts & want_starts:
        if cls.matrix[h] != closed.matrix[h]:
            failures.append(
                f"ends mismatch at hole {h}: oracle {sorted(cls.matrix[h])} "
                f"closed-form {sorted(closed.matrix[h])}"
            )
    return failures


def check_graph(g: Graph) -> dict:
    """One census record: shape, verdict, and any trichotomy violations.
    ``graph_shape`` keeps the shape ``closed_form`` decided, so the
    constructive solves reuse its line order instead of finding it again."""
    cls = classify(g)
    shape, closed = closed_form(g)
    failures = closed_form_mismatches(cls, closed)
    if shape == "star" and not star_certificate(g.n).verify().proves_not_solvable:
        failures.append("star certificate failed to verify")
    for hole in g.vertices():
        ends = cls.matrix[hole]
        if not ends:
            continue
        try:
            end = replay(g, solve_constructive(g, hole))
        except SolitaireError as exc:
            failures.append(f"constructive solve failed from hole {hole}: {exc}")
            continue
        if end.peg_count() != 1:
            failures.append(f"witness from hole {hole} left {end.peg_count()} pegs")
        elif end.peg_vertices()[0] not in ends:
            failures.append(
                f"witness from hole {hole} ended on {end.peg_vertices()[0]}, "
                f"outside the oracle end set"
            )
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

