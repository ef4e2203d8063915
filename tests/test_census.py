import json
import random
from types import SimpleNamespace

import pytest

from revpeg.census import (
    check_graph,
    labeled_connected_graphs,
    line_solver_witness,
    sample_solver_graph,
)
from conftest import relabeled
from revpeg.cli import main
from revpeg.errors import InvariantViolation
from revpeg.families import cycle_graph, is_star_shape, path_graph, paw_graph, star_graph
from revpeg.invariants import closed_form
from revpeg.model import Configuration, Graph, replay


# Known counts of labeled connected graphs (OEIS A001187).
KNOWN_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728}


def test_enumeration_counts():
    for n, want in KNOWN_COUNTS.items():
        assert sum(1 for _ in labeled_connected_graphs(n)) == want


def test_census_n4_no_counterexamples():
    for g in labeled_connected_graphs(4):
        rec = check_graph(g)
        assert rec["failures"] == [], rec


def test_star_record():
    rec = check_graph(star_graph(5))
    assert rec["shape"] == "star"
    assert rec["verdict"] == "NotSolvable"
    assert rec["failures"] == []


def test_paw_record():
    rec = check_graph(paw_graph())
    assert rec["shape"] == "solver"
    assert rec["verdict"] in ("FreelySolvable", "DoublyFreelySolvable")
    assert rec["failures"] == []


def test_scrambled_path_uses_closed_form():
    g = Graph(4, [(1, 3), (3, 2), (2, 4)])  # path 1-3-2-4
    rec = check_graph(g)
    assert rec["shape"] == "path"
    assert rec["failures"] == []


def test_line_solver_witness_on_scrambled_path():
    g = Graph(4, [(1, 3), (3, 2), (2, 4)])  # line order 1,3,2,4
    seq = line_solver_witness(g, 3)  # position 2 on the line
    assert seq is not None
    assert replay(g, seq).peg_count() == 1


def test_line_solver_witness_rejects_other_shapes():
    assert line_solver_witness(paw_graph(), 1) is None


def test_sampler_constraints():
    rng = random.Random(7)
    for _ in range(50):
        g = sample_solver_graph(rng, 7, 10)
        assert 7 <= g.n <= 10
        assert g.max_degree() >= 3
        assert not is_star_shape(g)


def test_sampler_deterministic():
    a = [sample_solver_graph(random.Random(42), 7, 9).sorted_edges() for _ in range(1)]
    b = [sample_solver_graph(random.Random(42), 7, 9).sorted_edges() for _ in range(1)]
    assert a == b


def test_sampler_refuses_ranges_without_solver_graphs():
    import pytest

    from revpeg.errors import PreconditionFailed

    for lo, hi in ((10, 7), (2, 3), (0, 5)):
        with pytest.raises(PreconditionFailed):
            sample_solver_graph(random.Random(0), lo, hi)


def test_closed_form_mismatches_through_labeling():
    from revpeg.census import closed_form_mismatches
    from revpeg.oracle import Classification, Verdict, classify

    g = Graph(4, [(1, 3), (3, 2), (2, 4)])  # path 1-3-2-4
    closed = closed_form(g)[1]
    assert closed.matrix == {1: frozenset(), 3: frozenset({2}), 2: frozenset({3}), 4: frozenset()}
    assert closed_form_mismatches(classify(g), closed) == []
    lying = Classification(Verdict.FREELY_SOLVABLE, {h: frozenset({1}) for h in range(1, 5)})
    got = closed_form_mismatches(classify(g), lying)
    assert got[0].startswith("starts mismatch: oracle ")
    assert got[1] == "verdict mismatch: oracle Solvable closed-form FreelySolvable"
    assert all(m.startswith("ends mismatch at hole ") for m in got[2:]) and got[2:]


def test_check_graph_compares_the_closed_form_for_every_shape(monkeypatch):
    import revpeg.census as census
    from revpeg.oracle import Classification, Verdict

    def lying(g):  # every hole admissible, each ending on itself
        ends = {h: frozenset({h}) for h in g.vertices()}
        return "solver", Classification(Verdict.FREELY_SOLVABLE, ends)

    monkeypatch.setattr(census, "closed_form", lying)
    for g in (star_graph(5), paw_graph(), Graph(4, [(1, 3), (3, 2), (2, 4)])):
        assert any("mismatch" in f for f in check_graph(g)["failures"]), g


def replayed_witnesses(monkeypatch, g):
    """Run check_graph on g and return the witnesses it replays, by hole."""
    import revpeg.census as census

    seen = {}

    def recording(graph, seq):
        seen[seq.start.hole_vertices()[0]] = seq
        return replay(graph, seq)

    monkeypatch.setattr(census, "replay", recording)
    assert check_graph(g)["failures"] == []
    return seen


def test_check_graph_line_witnesses_are_the_line_solvers(monkeypatch):
    rng = random.Random(4141)
    graphs = [g for n in range(2, 6) for g in labeled_connected_graphs(n)]
    graphs += [relabeled(rng, line(n)) for n in range(3, 21) for line in (path_graph, cycle_graph)]
    lines = 0
    for g in graphs:
        if closed_form(g)[0] in ("path", "cycle"):
            witnesses = replayed_witnesses(monkeypatch, g)
            assert all(seq == line_solver_witness(g, h) for h, seq in witnesses.items())
            lines += bool(witnesses)
    assert lines > 40


def test_check_graph_finds_the_line_order_once_per_graph(monkeypatch):
    import revpeg.families as families

    calls = []
    for name in ("path_order", "cycle_order"):
        real = getattr(families, name)
        monkeypatch.setattr(families, name, lambda g, f=real: calls.append(f.__name__) or f(g))
    rng = random.Random(4242)
    for line, want in ((path_graph, ["path_order"]), (cycle_graph, ["path_order", "cycle_order"])):
        calls.clear()
        assert len(replayed_witnesses(monkeypatch, relabeled(rng, line(8)))) > 1
        assert calls == want


def lying_certificate(n):
    return SimpleNamespace(verify=lambda: SimpleNamespace(proves_not_solvable=False))


def failing_solve(g, hole):
    raise InvariantViolation("injected")


# path:4 admits holes 2 and 3, ending on 3 and 2
@pytest.mark.parametrize("name, fake, g, failures", [
    ("star_certificate", lying_certificate, star_graph(4), ["star certificate failed to verify"]),
    ("solve_constructive", failing_solve, path_graph(4),
     [f"constructive solve failed from hole {h}: injected" for h in (2, 3)]),
    ("replay", lambda g, seq: Configuration(g.n, 0b11), path_graph(4),
     [f"witness from hole {h} left 2 pegs" for h in (2, 3)]),
    ("replay", lambda g, seq: Configuration.single_peg(g.n, 1), path_graph(4),
     [f"witness from hole {h} ended on 1, outside the oracle end set" for h in (2, 3)]),
], ids=["star-certificate", "constructive-solve", "end-count", "end-peg"])
def test_check_graph_reports_each_failed_cross_check(monkeypatch, name, fake, g, failures):
    import revpeg.census as census

    monkeypatch.setattr(census, name, fake)
    assert check_graph(g)["failures"] == failures


def test_census_command_exits_2_with_the_counterexample(monkeypatch, capsys):
    import revpeg.census as census

    monkeypatch.setattr(census, "star_certificate", lying_certificate)
    assert main(["census", "--max-n", "4"]) == 2
    bad = json.loads(capsys.readouterr().out)["results"]["counterexamples"]
    assert [(r["n"], r["shape"], r["failures"]) for r in bad] == [
        (4, "star", ["star certificate failed to verify"])] * 4  # the 4 labeled K_{1,3}
