"""Differential test: the local star check against the per-configuration loop it replaced.

The reference below is the earlier body of ``StarCertificate.verify()``,
taking the graph as a parameter: it builds every configuration, lists its
legal moves and applies each one. ``_centre_leaf_check`` reads only the
graph's 3-paths, and must count the same moves and return the same two
flags, with vertex 1 as the centre and every other vertex a leaf, on stars,
where both flags hold, and on other graphs, where at least one is False
once some move exists.

``PYTHONPATH=src python tests/test_star_certificate_differential.py N``
compares the check on every labeled connected graph with at most
min(N, 6) vertices (n = 7 alone has 1.87M of them), the full reports for
the stars with 4..N vertices, and a few seeded graphs for each n = 9..14.
"""

import random
import sys
import time

import pytest

from conftest import random_connected_graph
from revpeg.census import labeled_connected_graphs
from revpeg.families import cycle_graph, double_star, h_graph, path_graph, star_graph
from revpeg.invariants import (
    StarCertificateReport,
    _centre_leaf_check,
    star_certificate,
)
from revpeg.model import Configuration, Graph, apply_move, legal_moves

# ---------------------------------------------------------------------------
# Reference: one Configuration and two apply_move results per legal move
# ---------------------------------------------------------------------------


def ref_leaf_peg_count(c):
    return c.peg_count() - (1 if c.has_peg(1) else 0)


def ref_centre_leaf_check(g):
    checked = 0
    leaves_ok = True
    center_ok = True
    for mask in range(1 << g.n):
        c = Configuration(g.n, mask)
        for m in legal_moves(g, c):
            checked += 1
            leaves_ok &= ref_leaf_peg_count(apply_move(c, m)) == ref_leaf_peg_count(c)
            center_ok &= apply_move(c, m).has_peg(1) != c.has_peg(1)
    return checked, leaves_ok, center_ok


def ref_star_report(n):
    checked, leaves_ok, center_ok = ref_centre_leaf_check(star_graph(n))
    starts = frozenset(
        ref_leaf_peg_count(Configuration.with_hole(n, h)) for h in range(1, n + 1)
    )
    singles = frozenset(
        ref_leaf_peg_count(Configuration.single_peg(n, p)) for p in range(1, n + 1)
    )
    return StarCertificateReport(checked, leaves_ok, center_ok, starts, singles)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 13))
def test_star_report_matches_reference(n):
    report = star_certificate(n).verify()
    assert report == ref_star_report(n)
    assert report.proves_not_solvable


NON_STARS = {
    **{f"path:{n}": path_graph(n) for n in range(6, 10)},
    **{f"cycle:{n}": cycle_graph(n) for n in range(5, 9)},
    "H": h_graph(),
    "doublestar:2,3": double_star(2, 3),
    # On a connected non-star some 3-path runs from vertex 1 through
    # another vertex, and that alone clears the leaf flag; here only the
    # 3-path 5-6-7, away from vertex 1, clears it.
    "star:4+path:3": Graph(7, [(1, 2), (1, 3), (1, 4), (5, 6), (6, 7)]),
}


@pytest.mark.parametrize("g", NON_STARS.values(), ids=NON_STARS.keys())
def test_flags_false_off_the_star(g):
    got = _centre_leaf_check(g)
    assert got == ref_centre_leaf_check(g)
    assert got[0] > 0 and not (got[1] and got[2])


def test_seeded_connected_graphs():
    rng = random.Random(8080)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(3, 8), extra=rng.randint(0, 4))
        assert _centre_leaf_check(g) == ref_centre_leaf_check(g), g.sorted_edges()


@pytest.mark.parametrize("n", range(1, 6))
def test_every_labeled_connected_graph(n):
    for g in labeled_connected_graphs(n):
        assert _centre_leaf_check(g) == ref_centre_leaf_check(g), g.sorted_edges()


def sweep(top):
    """Compare on every labeled connected graph with n <= min(top, 6), on
    stars 4..top and on five seeded graphs per n = 9..14; print timings."""
    for n in range(1, min(top, 6) + 1):
        started = time.perf_counter()
        graphs = list(labeled_connected_graphs(n))
        bad = [g for g in graphs if _centre_leaf_check(g) != ref_centre_leaf_check(g)]
        print(
            f"labeled n={n}: {len(graphs)} graphs, {len(bad)} mismatches, "
            f"{time.perf_counter() - started:.2f} s"
        )
    for n in range(4, top + 1):
        started = time.perf_counter()
        report = star_certificate(n).verify()
        new_s = time.perf_counter() - started
        started = time.perf_counter()
        ok = report == ref_star_report(n)
        ref_s = time.perf_counter() - started
        print(
            f"star:{n}: {report.moves_checked} moves checked, "
            f"{'agree' if ok else 'MISMATCH'}, local {new_s:.4f} s, "
            f"reference {ref_s:.2f} s"
        )
    rng = random.Random(1414)
    for n in range(9, 15):
        graphs = [random_connected_graph(rng, n, extra=rng.randint(0, 4)) for _ in range(5)]
        bad = [g for g in graphs if _centre_leaf_check(g) != ref_centre_leaf_check(g)]
        print(f"seeded n={n}: {len(graphs)} graphs, {len(bad)} mismatches")


if __name__ == "__main__":
    sweep(int(sys.argv[1]))
