import json
import re

import pytest

from revpeg.errors import CapacityExceeded, ParseError, ValidationError
from revpeg.families import double_star, h_graph, path_graph, star_graph
from revpeg.graphio import (
    parse_graph,
    serialize_graph,
    witness_from_json,
    witness_to_json,
)
from revpeg.model import Configuration, MoveSequence, jump, unjump


class TestFamilies:
    def test_path5(self):
        g = parse_graph("path:5")
        assert g == path_graph(5)
        assert g.edges == frozenset([(1, 2), (2, 3), (3, 4), (4, 5)])

    def test_star4(self):
        g = parse_graph("star:4")
        assert g == star_graph(4)
        assert g.degree(1) == 3

    def test_doublestar(self):
        g = parse_graph("doublestar:2,3")
        assert g == double_star(2, 3)

    def test_h(self):
        assert parse_graph("H") == h_graph()


class TestEdgeList:
    def test_h_by_edges(self):
        text = "5 4\n1 3\n2 3\n3 4\n4 5"
        assert parse_graph(text) == h_graph()

    def test_roundtrip(self):
        g = double_star(3, 2)
        assert parse_graph(serialize_graph(g)) == g

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("five four\n1 2")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2")

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 2\n1 2\n2 x")
        assert exc.value.line == 3

    def test_loops_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("3 1\n2 2")

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("3 2\n1 2\n2 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            parse_graph("3 1\n1 9")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# graph\n\n3 2\n1 2\n\n2 3\n")
        assert g == path_graph(3)


class TestClassificationJson:
    def test_documented_shape(self):
        from revpeg.graphio import classification_to_json
        from revpeg.oracle import classify

        obj = classification_to_json(classify(path_graph(4)))
        assert obj == {
            "verdict": "Solvable",
            "matrix": {"1": [], "2": [3], "3": [2], "4": []},
        }


class TestWitnessJson:
    def test_roundtrip(self):
        seq = MoveSequence(
            Configuration.with_hole(4, 2), (jump(4, 3, 2), unjump(2, 3, 4))
        )
        blob = json.dumps(witness_to_json(seq))
        assert witness_from_json(json.loads(blob)) == seq

    def test_shape(self):
        seq = MoveSequence(Configuration.with_hole(3, 3), (jump(1, 2, 3),))
        obj = witness_to_json(seq)
        assert obj["start"] == {"n": 3, "pegs": [1, 2]}
        assert obj["moves"] == [{"kind": "jump", "x": 1, "y": 2, "z": 3}]

    def test_bad_witness(self):
        with pytest.raises(ParseError):
            witness_from_json({"start": {"n": 3, "pegs": [1]}, "moves": [{"kind": "hop"}]})

    def test_repeated_peg_refused(self):
        obj = {"start": {"n": 3, "pegs": [1, 1, 2]}, "moves": []}
        with pytest.raises(ParseError, match="configuration peg 1 is repeated"):
            witness_from_json(obj)

    @pytest.mark.parametrize("start, why", [
        ({"n": 3, "pegs": [1, 99]}, "configuration pegs: peg vertex 99 outside 1..3"),
        ({"n": 0, "pegs": []}, "configuration n: vertex count must be >= 1, got n=0"),
        ({"n": -2, "pegs": [1]}, "configuration n: peg vertex 1 outside 1..-2"),
    ])
    def test_invalid_start_is_a_parse_error(self, start, why):
        with pytest.raises(ParseError, match=re.escape(why)):
            witness_from_json({"start": start, "moves": []})

    def test_oversize_start_stays_a_capacity_error(self):
        with pytest.raises(CapacityExceeded):
            witness_from_json({"start": {"n": 65, "pegs": []}, "moves": []})

    @pytest.mark.parametrize("field, value", [
        ("n", 6.5), ("n", True), ("peg", 4.9), ("peg", True), ("peg", "2"),
        ("x", 4.9), ("y", True), ("z", False), ("z", "3"), ("z", None),
    ])
    def test_non_integer_refused(self, field, value):
        obj = witness_to_json(
            MoveSequence(Configuration.with_hole(4, 2), (jump(4, 3, 2), unjump(2, 3, 4)))
        )
        if field == "n":
            obj["start"]["n"] = value
        elif field == "peg":
            obj["start"]["pegs"][1] = value
        else:
            obj["moves"][1][field] = value
        with pytest.raises(ParseError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            witness_from_json(obj)
