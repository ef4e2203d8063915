import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from revpeg.cli import load_graph_spec, main
from revpeg.construct import solve_constructive, solve_constructive_to
from revpeg.graphio import witness_from_json, witness_to_json
from revpeg.model import Configuration, MoveSequence, jump, replay

DATA = Path(__file__).parent / "data"

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestClassify:
    def test_path7_both_methods_not_solvable(self, capsys):
        code, rep = run_cli(capsys, "classify", "path:7")
        assert code == 0
        assert rep["results"]["closed_form"]["verdict"] == "NotSolvable"
        assert rep["results"]["oracle"]["verdict"] == "NotSolvable"
        assert all(c["match"] for c in rep["cross_checks"])

    def test_star6(self, capsys):
        code, rep = run_cli(capsys, "classify", "star:6")
        assert code == 0
        assert rep["results"]["oracle"]["verdict"] == "NotSolvable"
        assert rep["results"]["closed_form"]["shape"] == "star"

    @pytest.mark.parametrize("spec", ["star:15", "star:40"])
    def test_star_certificate_at_every_size(self, capsys, spec):
        # the oracle runs on star:15 and is refused on budget for star:40
        code, rep = run_cli(capsys, "classify", spec)
        assert code == 0
        assert rep["results"]["closed_form"]["certificate"] == {
            "center_toggled": True,
            "leaf_count_preserved": True,
            "proves_not_solvable": True,
        }

    def test_cycle8_doubly(self, capsys):
        code, rep = run_cli(capsys, "classify", "cycle:8")
        assert code == 0
        assert rep["results"]["oracle"]["verdict"] == "DoublyFreelySolvable"

    def test_capacity_fallback_path(self, capsys):
        code, rep = run_cli(
            capsys, "--memory-budget", "1K", "classify", "path:20"
        )
        assert code == 0  # closed form still available
        assert rep["results"]["oracle"] is None
        assert rep["results"]["closed_form"]["verdict"] == "Solvable"

    def test_capacity_exceeded_general_graph(self, capsys, tmp_path):
        # a 20-vertex non-path graph with a tiny budget has no fallback
        spec = tmp_path / "g.txt"
        edges = [(i, i + 1) for i in range(1, 20)] + [(1, 3)]
        spec.write_text("20 20\n" + "\n".join(f"{u} {v}" for u, v in edges))
        code, rep = run_cli(capsys, "--memory-budget", "1K", "classify", str(spec))
        assert code == 3

    @pytest.mark.parametrize("text", [
        "6 4\n1 2\n1 3\n1 4\n5 6\n",  # a claw plus an edge: degree 3
        "5 3\n1 2\n2 3\n4 5\n",  # a path plus an edge: no degree 3
    ], ids=["with-degree-3", "without-degree-3"])
    def test_disconnected_graph_refused(self, capsys, tmp_path, text):
        spec = tmp_path / "g.txt"
        spec.write_text(text)
        code, rep = run_cli(capsys, "classify", str(spec))
        assert code == 2
        assert rep["error"] == "DisconnectedGraph: classify requires a connected graph"

    def test_file_input(self, capsys, tmp_path):
        spec = tmp_path / "h.txt"
        spec.write_text("5 4\n1 3\n2 3\n3 4\n4 5\n")
        code, rep = run_cli(capsys, "classify", str(spec))
        assert code == 0
        assert rep["results"]["oracle"]["verdict"] == "FreelySolvable"

    @pytest.mark.parametrize("spec", [
        "path:3000000", "cycle:3000000", "star:3000000", "doublestar:1500000,1500000",
    ])
    def test_huge_family_refused_before_its_edges(self, capsys, spec):
        t0 = time.monotonic()
        assert main(["classify", spec]) == 3
        assert time.monotonic() - t0 < 1
        assert "capped at 64 vertices" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        assert main(["classify", "no-such-file.txt"]) == 1

    @pytest.mark.parametrize("argv", [["classify", "-"], ["solve", "-", "--hole", "2"]],
                             ids=["classify", "solve"])
    def test_dash_reads_the_edge_list_from_stdin(self, capsys, monkeypatch, argv):
        graph = DATA / "graph.txt"
        code, from_file = run_cli(capsys, *[str(graph) if a == "-" else a for a in argv])
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph.read_text()))
        stdin_code, from_stdin = run_cli(capsys, *argv)
        assert from_file["input"].pop("spec") == str(graph)
        assert from_stdin["input"].pop("spec") == "-"
        assert (stdin_code, from_stdin) == (code, from_file)


class TestSolve:
    def test_constructive_path(self, capsys):
        code, rep = run_cli(
            capsys, "solve", "path:9", "--hole", "3", "--method", "constructive"
        )
        assert code == 0
        first = rep["results"]["witness"]["moves"][0]
        assert first == {"kind": "jump", "x": 1, "y": 2, "z": 3}

    def test_min_unjumps_p4(self, capsys):
        code, rep = run_cli(
            capsys, "solve", "path:4", "--hole", "2", "--method", "min-unjumps"
        )
        assert code == 0
        assert rep["results"]["min_unjumps"] == 0
        assert rep["results"]["unjumps"] == 0

    def test_star_not_solvable(self, capsys):
        code, rep = run_cli(capsys, "solve", "star:5", "--hole", "2")
        assert code == 0
        assert rep["results"]["solvable"] is False

    @pytest.mark.parametrize(
        "spec, hole, n", [("path:5", 9, 5), ("cycle:6", 0, 6), ("star:5", 9, 5)]
    )
    def test_hole_outside_a_line_refused(self, capsys, spec, hole, n):
        code, rep = run_cli(capsys, "solve", spec, "--hole", str(hole))
        assert code == 2
        assert rep["error"] == f"PreconditionFailed: hole {hole} outside 1..{n}"

    def test_hole_outside_refused_before_doubly_free_check(self, capsys):
        # H is not doubly free, but hole 9 does not exist
        code, rep = run_cli(capsys, "solve", "H", "--hole", "9", "--target", "2")
        assert code == 2
        assert rep["error"] == "PreconditionFailed: hole 9 outside 1..5"

    @pytest.mark.parametrize("spec, target, n, method", [
        pytest.param("star:5", 9, 5, "constructive", id="star:5-9-5"),
        pytest.param("path:6", 99, 6, "constructive", id="path:6-99-6"),
        pytest.param("star:5", 9, 5, "oracle", id="star:5-9-5-oracle"),
        pytest.param("path:6", 99, 6, "oracle", id="path:6-99-6-oracle"),
    ])
    def test_target_outside_refused_before_shape_checks(
        self, capsys, spec, target, n, method
    ):
        # a star would report "not solvable", a path the degree-3 usage error
        code, rep = run_cli(
            capsys, "solve", spec, "--hole", "1", "--target", str(target),
            "--method", method,
        )
        assert code == 2
        assert rep["error"] == f"PreconditionFailed: target {target} outside 1..{n}"

    def test_min_unjumps_target_usage_error_before_range_check(self, capsys):
        code = main(["solve", "path:6", "--hole", "1", "--target", "99",
                     "--method", "min-unjumps"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--target is not supported" in captured.err

    @pytest.mark.parametrize("method", ["oracle", "min-unjumps"])
    def test_hole_outside_refused_by_every_method(self, capsys, method):
        code, rep = run_cli(
            capsys, "solve", "path:6", "--hole", "9", "--method", method
        )
        assert code == 2
        assert rep["error"] == "PreconditionFailed: hole 9 outside 1..6"

    def test_relabeled_line_refusal_names_the_vertex(self, capsys):
        # star:3 is the path 2-1-3, so vertex 1 sits at line position 2
        code, rep = run_cli(capsys, "solve", "star:3", "--hole", "1")
        assert code == 0
        assert rep["results"] == {
            "reason": "path on 3 vertices is not solvable from hole 1",
            "solvable": False,
        }

    def test_oracle_with_target(self, capsys):
        code, rep = run_cli(
            capsys,
            "solve", "cycle:8", "--hole", "1", "--target", "5",
            "--method", "oracle",
        )
        assert code == 0
        assert rep["results"]["final_pegs"] == [5]

    def test_constructive_with_target(self, capsys):
        code, rep = run_cli(
            capsys,
            "solve", "doublestar:2,2", "--hole", "3", "--target", "6",
            "--method", "constructive", "--cross-check",
        )
        assert code == 0
        assert rep["results"]["final_pegs"] == [6]
        assert all(c["match"] for c in rep["cross_checks"])

    @pytest.mark.parametrize("method", ["oracle", "constructive"])
    def test_cross_check_solves_from_the_hole_once(self, capsys, monkeypatch, method):
        import revpeg.cli as cli_mod

        calls = []
        real = cli_mod.solve_from
        monkeypatch.setattr(cli_mod, "solve_from", lambda *a: calls.append(a) or real(*a))
        code, rep = run_cli(
            capsys, "solve", str(DATA / "graph.txt"), "--hole", "5",
            "--method", method, "--cross-check",
        )
        assert code == 0
        assert rep["cross_checks"] == [{"kind": "oracle-replay", "match": True}]
        assert len(calls) == 1

    def test_trace_lengths(self, capsys):
        code, rep = run_cli(
            capsys, "solve", "path:6", "--hole", "2", "--trace"
        )
        assert code == 0
        assert len(rep["results"]["trace"]) == rep["results"]["moves"]
        assert rep["results"]["trace"][-1] == rep["results"]["final_pegs"]

    def test_target_on_non_doubly_graph(self, capsys):
        code, rep = run_cli(
            capsys,
            "solve", "doublestar:3,1", "--hole", "1", "--target", "2",
            "--method", "constructive",
        )
        assert code == 0
        assert rep["results"]["solvable"] is False
        assert "doubly" in rep["results"]["reason"]

    @pytest.mark.parametrize("spec", ["path:6", "cycle:6"])
    def test_constructive_target_without_degree_3_vertex(self, capsys, spec):
        # 5 is in hole 2's end set on both lines, so the lone peg is routed
        code, rep = run_cli(capsys, "solve", spec, "--hole", "2", "--target", "5")
        assert code == 0
        assert rep["results"]["solvable"] is True
        assert rep["results"]["final_pegs"] == [5]
        seq = witness_from_json(rep["results"]["witness"])
        assert seq == solve_constructive_to(load_graph_spec(spec), 2, 5)

    @pytest.mark.parametrize("spec", ["path:6", "cycle:8"])
    def test_constructive_line_target_cross_checks(self, capsys, spec):
        code, rep = run_cli(capsys, "solve", spec, "--hole", "2", "--target", "5",
                            "--cross-check")
        assert code == 0
        assert rep["results"]["final_pegs"] == [5]
        assert rep["cross_checks"] == [{"kind": "oracle-replay", "match": True}]

    def test_constructive_line_target_outside_the_end_set(self, capsys):
        # path:6 from hole 2 ends only on 2 or 5, as the oracle says too
        code, rep = run_cli(capsys, "solve", "path:6", "--hole", "2", "--target", "4")
        assert code == 0
        assert rep["results"]["solvable"] is False
        assert rep["results"]["reason"] == (
            "not doubly freely solvable: path on 6 vertices from hole 2 ends only on [2, 5]"
        )
        code, rep = run_cli(capsys, "solve", "path:6", "--hole", "2", "--target", "4",
                            "--method", "oracle")
        assert code == 0 and rep["results"]["solvable"] is False

    def test_constructive_target_on_disconnected_graph(self, capsys, tmp_path):
        gf = tmp_path / "g.txt"
        gf.write_text("5 3\n1 2\n2 3\n4 5\n")
        for extra in ([], ["--target", "3"]):
            code, rep = run_cli(capsys, "solve", str(gf), "--hole", "1", *extra)
            assert code == 2
            assert rep["error"] == "PreconditionFailed: graph must be connected"


class TestVerify:
    def test_valid_witness(self, capsys, tmp_path):
        seq = MoveSequence(Configuration.with_hole(3, 3), (jump(1, 2, 3),))
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(seq)))
        code, rep = run_cli(capsys, "verify", str(wf), "path:3")
        assert code == 0
        assert rep["results"] == {
            "final_pegs": [3], "legal": True, "moves": 1, "unjumps": 0
        }

    def test_empty_witness(self, capsys, tmp_path):
        seq = MoveSequence(Configuration.with_hole(3, 1), ())
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(seq)))
        code, rep = run_cli(capsys, "verify", str(wf), "path:3")
        assert code == 0
        assert rep["results"]["final_pegs"] == [2, 3]

    def test_tampered_witness(self, capsys, tmp_path):
        seq = MoveSequence(Configuration.with_hole(3, 3), (jump(3, 2, 1),))
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(seq)))
        code, rep = run_cli(capsys, "verify", str(wf), "path:3")
        assert code == 2
        assert rep["results"]["legal"] is False
        assert rep["results"]["illegal_move_index"] == 0

    @pytest.mark.parametrize("start, why", [
        ({"n": 3, "pegs": [1, 99]}, "configuration pegs: peg vertex 99 outside 1..3"),
        ({"n": 0, "pegs": []}, "configuration n: vertex count must be >= 1, got n=0"),
        ({"n": 3, "pegs": [1.5]}, "configuration peg must be an integer, got 1.5"),
    ], ids=["peg-out-of-range", "n-zero", "float-peg"])
    def test_bad_start_is_a_parse_error(self, capsys, tmp_path, start, why):
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps({"start": start, "moves": []}))
        assert main(["verify", str(wf), "path:3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert why in captured.err

    def test_witness_for_wrong_graph_size(self, capsys, tmp_path):
        seq = MoveSequence(Configuration.with_hole(3, 3), (jump(1, 2, 3),))
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(witness_to_json(seq)))
        code, rep = run_cli(capsys, "verify", str(wf), "path:4")
        assert code == 2
        assert rep["results"]["legal"] is False


class TestTable:
    def test_paths_to_12(self, capsys):
        code, rep = run_cli(capsys, "table", "--family", "path", "--max-n", "12")
        assert code == 0
        rows = {r["n"]: r for r in rep["results"]["rows"]}
        assert rows[7]["verdict"] == "NotSolvable"
        assert rows[6]["starts"] == [2, 5]
        assert all(r["match"] for r in rep["results"]["rows"])

    def test_cycles_to_12(self, capsys):
        code, rep = run_cli(capsys, "table", "--family", "cycle", "--max-n", "12")
        assert code == 0
        rows = {r["n"]: r for r in rep["results"]["rows"]}
        for n in (5, 7, 11):
            assert rows[n]["verdict"] == "NotSolvable"
        assert rows[8]["verdict"] == "DoublyFreelySolvable"

    def test_rows_past_the_vertex_cap(self, capsys):
        # the closed forms need no graph, so rows past 64 vertices report
        # only the oracle as unavailable
        code, rep = run_cli(
            capsys, "--memory-budget", "1M", "table", "--family", "path", "--max-n", "66"
        )
        assert code == 0
        rows = rep["results"]["rows"]
        assert [r["n"] for r in rows] == list(range(2, 67))
        assert rows[-1]["oracle_verdict"] is None and rows[-1]["match"] is None
        assert rows[-1]["verdict"] == "Solvable"

    @pytest.mark.parametrize("argv, top", [
        (["table", "--family", "path", "--max-n", "100"], "path:26"),
        (["--memory-budget", "48M", "table", "--family", "cycle", "--max-n", "21"], "cycle:21"),
    ], ids=["default-budget", "budget-admits-21"])
    def test_table_refuses_up_front(self, capsys, argv, top):
        # every oracle row costs about 2.5x the one before, so a table that
        # would classify past n = 20 is refused before its first row
        t0 = time.monotonic()
        assert main(argv) == 3
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exact oracle on {top}" in captured.err
        assert "--max-n <= 20" in captured.err and "under 48MiB" in captured.err

    def test_table_refuses_max_n_past_the_report_bound(self, capsys):
        # row n lists up to n^2 end pegs, so the closed-form rows alone are
        # refused past --max-n 128 whatever the memory budget
        t0 = time.monotonic()
        argv = ["--memory-budget", "1K", "table", "--family", "cycle", "--max-n", "1000000"]
        assert main(argv) == 3
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-n <= 128" in captured.err

    def test_table_below_the_refusal(self, capsys):
        code, rep = run_cli(
            capsys, "--memory-budget", "47M", "table", "--family", "cycle", "--max-n", "22"
        )
        assert code == 0
        rows = {r["n"]: r for r in rep["results"]["rows"]}
        assert rows[20]["match"] is True and rows[10]["oracle_verdict"] == "DoublyFreelySolvable"
        assert rows[21]["oracle_verdict"] is None and rows[22]["match"] is None


class TestMismatchContracts:
    def test_table_row_mismatch_forces_exit_2(self, capsys, monkeypatch):
        import revpeg.cli as cli_mod
        from revpeg.invariants import PathCycleVerdict
        from revpeg.oracle import Verdict

        real = cli_mod.classify_path

        def lying(n):
            v = real(n)
            if n == 6:  # claim P6 admits every start
                return PathCycleVerdict(
                    True,
                    frozenset(range(1, 7)),
                    {h: frozenset({2, 5}) for h in range(1, 7)},
                    Verdict.FREELY_SOLVABLE,
                )
            return v

        monkeypatch.setattr(cli_mod, "classify_path", lying)
        code, rep = run_cli(capsys, "table", "--family", "path", "--max-n", "8")
        assert code == 2
        rows = {r["n"]: r for r in rep["results"]["rows"]}
        assert rows[6]["match"] is False

    def test_census_counterexample_forces_exit_2(self, capsys, monkeypatch):
        import revpeg.cli as cli_mod

        def broken(args):
            n, edges = args
            return {
                "graph": "stub",
                "n": n,
                "shape": "solver",
                "verdict": "FreelySolvable",
                "failures": ["injected counterexample"],
            }

        monkeypatch.setattr(cli_mod.census_mod, "check_graph_edges", broken)
        code, rep = run_cli(capsys, "census", "--max-n", "2")
        assert code == 2
        assert rep["results"]["counterexamples"][0]["failures"] == [
            "injected counterexample"
        ]

    @pytest.mark.parametrize("spec", ["path:6", "H"])
    def test_classify_disagreement_forces_exit_2(self, capsys, monkeypatch, spec):
        import revpeg.cli as cli_mod

        real = cli_mod.classify

        def lying(g, budget):
            cls = real(g, budget)
            hole = min(h for h in cls.matrix if cls.matrix[h])
            wrong = cls.matrix[hole] - {max(cls.matrix[hole])}
            return dataclasses.replace(cls, matrix={**cls.matrix, hole: wrong})

        monkeypatch.setattr(cli_mod, "classify", lying)
        code, rep = run_cli(capsys, "classify", spec)
        assert code == 2
        assert [c["match"] for c in rep["cross_checks"]] == [False]

    @pytest.mark.parametrize("method", ["oracle", "constructive"])
    def test_solve_cross_check_disagreement_forces_exit_2(self, capsys, monkeypatch, method):
        import revpeg.cli as cli_mod

        g, real = load_graph_spec("H"), cli_mod.solve_from
        seq = solve_constructive(g, 3) if method == "constructive" else real(g, 3).witness
        end = replay(g, seq).peg_vertices()[0]

        def lying(*args):
            res = real(*args)
            return dataclasses.replace(res, end_pegs=res.end_pegs - {end})

        monkeypatch.setattr(cli_mod, "solve_from", lying)
        code, rep = run_cli(
            capsys, "solve", "H", "--hole", "3", "--method", method, "--cross-check"
        )
        assert code == 2
        assert rep["results"]["final_pegs"] == [end]
        assert rep["cross_checks"] == [{"kind": "oracle-replay", "match": False}]


class TestCensus:
    def test_small_census(self, capsys):
        code, rep = run_cli(capsys, "census", "--max-n", "4")
        assert code == 0
        assert rep["results"]["graphs_checked"] == 43  # 1 + 4 + 38
        assert rep["results"]["counterexamples"] == []

    def test_census_with_samples(self, capsys):
        code, rep = run_cli(
            capsys,
            "--seed", "11",
            "census", "--max-n", "2", "--samples", "5", "--n-range", "7:9",
        )
        assert code == 0
        assert rep["results"]["graphs_checked"] == 6

    @pytest.mark.parametrize("argv, why", [
        (["--memory-budget", "512", "census", "--max-n", "5"], "2^5 states need ~768 bytes"),
        (["census", "--max-n", "8"], "--max-n must be at most 7, got 8"),
        (["census", "--max-n", "40"], "--max-n must be at most 7, got 40"),
        (["--memory-budget", "512", "census", "--max-n", "2", "--samples", "1",
          "--n-range", "4:5"], "2^5 states need ~768 bytes"),
    ], ids=["budget-max-n", "max-n-8", "max-n-40", "budget-n-range"])
    def test_census_refuses_up_front(self, capsys, monkeypatch, argv, why):
        import revpeg.cli as cli_mod

        def never(args):
            raise AssertionError("a refused census checked a graph")

        monkeypatch.setattr(cli_mod.census_mod, "check_graph_edges", never)
        monkeypatch.setattr(cli_mod.census_mod, "labeled_connected_graphs", never)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert why in captured.err

    def test_census_budget_covers_only_sizes_it_classifies(self, capsys):
        # n-range HI counts only when sampling, and n = 4 fits 512 bytes
        code, rep = run_cli(capsys, "--memory-budget", "512", "census", "--max-n", "4",
                            "--n-range", "7:30")
        assert code == 0 and rep["results"]["graphs_checked"] == 43

    def test_census_threads_match_sequential(self, capsys):
        code1, rep1 = run_cli(capsys, "census", "--max-n", "4")
        code2, rep2 = run_cli(capsys, "--threads", "2", "census", "--max-n", "4")
        assert (code1, rep1["results"]) == (code2, rep2["results"])


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        main(["classify", "cycle:6"])
        first = capsys.readouterr().out
        main(["classify", "cycle:6"])
        second = capsys.readouterr().out
        assert first == second

    def test_solve_reports_byte_identical(self, capsys):
        argv = ["solve", "doublestar:2,2", "--hole", "1", "--method", "oracle"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["classify", "cycle:6"],
        ["solve", "doublestar:2,2", "--hole", "1", "--method", "oracle"],
        ["census", "--max-n", "3"],
    ], ids=["classify", "solve", "census"])
    def test_timing_adds_only_timing_ms(self, capsys, argv):
        code, plain = run_cli(capsys, *argv)
        assert "timing_ms" not in plain
        # the flag is global, so it may come before or after the command
        for timed_argv in (["--timing", *argv], [*argv, "--timing"]):
            timed_code, timed = run_cli(capsys, *timed_argv)
            assert timed_code == code
            assert isinstance(timed.pop("timing_ms"), float)
            assert timed == plain

    def test_text_format_renders(self, capsys):
        code = main(["--format", "text", "classify", "path:4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict" in out and "{" not in out.splitlines()[0]


class TestBadInputs:
    """Malformed or out-of-range inputs exit 1 with a message, no traceback."""

    def test_infinite_memory_budget(self, capsys):
        assert main(["--memory-budget", "inf", "classify", "path:4"]) == 1
        assert "byte size" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_memory_budget(self, capsys, budget):
        assert main(["--memory-budget", budget, "classify", "H"]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_verify_missing_witness_file(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json"), "path:3"]) == 1
        assert "cannot read witness" in capsys.readouterr().err

    def test_verify_non_json_witness_file(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text("not json {")
        assert main(["verify", str(wf), "path:3"]) == 1
        assert "cannot read witness" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    def test_unreadable_graph_file(self, capsys, tmp_path, unreadable):
        spec = tmp_path
        if unreadable == "not-utf8":
            spec = tmp_path / "g.txt"
            spec.write_bytes(b"\xff\xfe 3 2\n1 2\n2 3\n")
        assert main(["classify", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot read graph")
        assert "Traceback" not in err

    def test_census_reversed_n_range(self, capsys):
        assert main(["census", "--max-n", "2", "--samples", "1", "--n-range", "10:7"]) == 1
        assert "--n-range" in capsys.readouterr().err

    def test_census_n_range_without_solver_graphs(self, capsys):
        # no graph below 4 vertices qualifies, so sampling would never end
        assert main(["census", "--max-n", "2", "--samples", "1", "--n-range", "2:3"]) == 1
        assert "--n-range" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, why", [
        ("path:0", "path needs n >= 1, got 0"),
        ("star:1", "star needs n >= 2, got 1"),
        ("self-loop", "self-loop at vertex 1"),
    ], ids=["path:0", "star:1", "self-loop"])
    def test_invalid_graph_is_a_parse_error(self, capsys, tmp_path, spec, why):
        if spec == "self-loop":
            spec = str(tmp_path / "loop.txt")
            (tmp_path / "loop.txt").write_text("3 2\n1 1\n2 3\n")
        assert main(["classify", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: invalid graph {spec!r}: {why}\n"

    def test_zero_threads(self, capsys):
        assert main(["--threads", "0", "census", "--max-n", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["census", "--max-n", "1"],
        ["census", "--max-n", "-3"],
        ["table", "--family", "cycle", "--max-n", "2"],
        ["table", "--family", "path", "--max-n", "1"],
    ], ids=["census-1", "census-negative", "table-cycle-2", "table-path-1"])
    def test_max_n_that_checks_nothing(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --max-n must be at least ")

    def test_census_of_samples_alone(self, capsys):
        code, rep = run_cli(capsys, "census", "--max-n", "1", "--samples", "2",
                            "--n-range", "5:6")
        assert code == 0 and rep["results"]["graphs_checked"] == 2

    def test_negative_samples(self, capsys):
        assert main(["census", "--max-n", "3", "--samples", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err


def test_census_workers_capped_by_cores_and_tasks(capsys, monkeypatch):
    import concurrent.futures

    import revpeg.cli as cli_mod

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # cli imports the pool inside the multi-worker branch, so patch its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 4)
    code, rep = run_cli(capsys, "--threads", "100000", "census", "--max-n", "3")
    assert code == 0 and rep["results"]["graphs_checked"] == 5
    assert started == [4]  # min(threads, cores, 5 tasks)
    code, rep = run_cli(capsys, "--threads", "100000", "census", "--max-n", "2")
    assert code == 0 and rep["results"]["graphs_checked"] == 1
    assert started == [4]  # one task runs in-process, no pool


def test_usage_error_exit_code():
    assert main(["solve", "path:4"]) == 1  # missing --hole
    assert main(["nonsense"]) == 1


def test_import_leaves_the_process_pool_unloaded():
    # only census with more than one worker needs the pool
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, revpeg.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_python_m_revpeg_matches_main(capsys):
    code = main(["classify", "path:6"])
    want = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "revpeg", "classify", "path:6"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (code, want)
