import pytest

import revpeg.hclasses as hclasses
import revpeg.oracle as oracle
from revpeg.errors import NotSameClass
from revpeg.families import h_graph
from revpeg.hclasses import (
    HClass,
    class_table,
    h_class_of,
    h_route,
    letter_mask,
    mask_letters,
)
from revpeg.model import Configuration, MoveSequence, replay
from revpeg.oracle import equivalence_partition

CLASS_A = "a b d e ac bc cd abe ade bde abcd abce acde bcde".split()
CLASS_B = "c ab ad ae bd be de abc acd ace bcd bce cde abde".split()

# Known single-move chains; every adjacent pair differs by one move.
CHAIN_A = "e cd a bc d ac ade bcde abe acde bde abce".split()
CHAIN_B = "c de bce ae acd ab bcd be ace".split()


def test_class_table_matches_known_partition():
    for s in CLASS_A:
        assert h_class_of(letter_mask(s)) is HClass.A
    for s in CLASS_B:
        assert h_class_of(letter_mask(s)) is HClass.B
    assert h_class_of(letter_mask("abd")) is HClass.ISOLATED
    assert h_class_of(letter_mask("ce")) is HClass.ISOLATED
    assert h_class_of(letter_mask("")) is HClass.EMPTY_OR_FULL
    assert h_class_of(letter_mask("abcde")) is HClass.EMPTY_OR_FULL


def test_closed_form_table_is_the_oracle_partition():
    part = equivalence_partition(h_graph())
    block_a = part.block_of(Configuration(5, letter_mask("a")))
    block_b = part.block_of(Configuration(5, letter_mask("c")))
    for mask in range(32):
        block = part.block_of(Configuration(5, mask))
        want = (
            HClass.A if block == block_a
            else HClass.B if block == block_b
            else HClass.EMPTY_OR_FULL if mask in (0, 31)
            else HClass.ISOLATED
        )
        assert class_table()[mask] is want, mask_letters(mask)
        if want in (HClass.A, HClass.B):
            assert len(block) == 14
        else:
            assert block == frozenset((mask,))


def test_class_table_makes_no_oracle_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class_table called the oracle")

    patched = [name for name, obj in vars(hclasses).items()
               if callable(obj) and getattr(obj, "__module__", None) == oracle.__name__]
    assert patched  # h_route still searches with the oracle
    for name in patched:
        monkeypatch.setattr(hclasses, name, refuse)
    for name in ("equivalence_partition", "reachable_set", "classify", "shortest_route"):
        monkeypatch.setattr(oracle, name, refuse)
    # The table is built at import; rebuild it from the closed form here.
    assert tuple(hclasses._closed_class(m) for m in range(32)) == hclasses.CLASS_BY_MASK
    table = class_table()
    assert sorted(table) == list(range(32))
    assert table[letter_mask("a")] is HClass.A and table[letter_mask("c")] is HClass.B


def test_classes_have_fourteen_members():
    a = [m for m in range(32) if h_class_of(m) is HClass.A]
    b = [m for m in range(32) if h_class_of(m) is HClass.B]
    assert len(a) == len(b) == 14


@pytest.mark.parametrize("chain", [CHAIN_A, CHAIN_B])
def test_known_chains_are_single_moves(chain):
    for s, t in zip(chain, chain[1:]):
        assert len(h_route(letter_mask(s), letter_mask(t))) == 1


def test_extra_chain_links():
    for s, t in [("b", "cd"), ("abcd", "abe"), ("ad", "abc"), ("abc", "bd"),
                 ("bd", "acd"), ("cde", "ae"), ("abde", "abc")]:
        assert len(h_route(letter_mask(s), letter_mask(t))) == 1


def test_routes_replay_on_h():
    g = h_graph()
    for s in CLASS_A:
        for t in CLASS_A[::3]:
            route = h_route(letter_mask(s), letter_mask(t))
            start = Configuration(5, letter_mask(s))
            end = replay(g, MoveSequence(start, route))
            assert end.pegs == letter_mask(t)


def test_cross_class_route_raises():
    with pytest.raises(NotSameClass):
        h_route(letter_mask("e"), letter_mask("c"))


def test_mask_letters_roundtrip():
    for s in CLASS_A + CLASS_B + ["", "abcde"]:
        assert mask_letters(letter_mask(s)) == "".join(sorted(s, key="abcde".index))
