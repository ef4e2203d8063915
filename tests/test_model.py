import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revpeg.errors import (
    CapacityExceeded,
    IllegalMove,
    IllegalMoveAt,
    ValidationError,
)
from revpeg.families import cycle_graph, double_star, h_graph, path_graph, star_graph
from revpeg.model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    apply_move,
    is_connected,
    is_legal,
    jump,
    legal_moves,
    replay,
    unjump,
)

from conftest import random_connected_graph, random_configuration


def letters_config(letters: str) -> Configuration:
    """Config on H using the a..e = 1..5 letter notation."""
    return Configuration.from_vertices(5, ["abcde".index(ch) + 1 for ch in letters])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 4)])

    def test_rejects_oversize(self):
        with pytest.raises(CapacityExceeded):
            Graph(65, [])

    @pytest.mark.parametrize("build", [
        lambda: path_graph(10**6),
        lambda: cycle_graph(10**6),
        lambda: star_graph(10**6),
        lambda: double_star(500_000, 500_000),
    ], ids=["path", "cycle", "star", "doublestar"])
    def test_families_refuse_oversize_before_building_edges(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 1), (1, 3), (3, 2)])
        assert g.neighbors(1) == (2, 3)
        assert g.neighbors(2) == (1, 3)
        assert g.neighbors(3) == (1, 2)
        assert g.neighbors(4) == ()
        for u in g.vertices():
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @pytest.mark.parametrize("v", [-1, 0, 6])
    def test_degree_and_neighbors_refuse_vertices_outside_the_graph(self, v):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        with pytest.raises(ValidationError):
            g.degree(v)
        with pytest.raises(ValidationError):
            g.neighbors(v)

    def test_equality_and_hash(self):
        a = Graph(3, [(1, 2), (2, 3)])
        b = Graph(3, [(2, 3), (1, 2)])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Graph(n=3, m=2)"

    def test_is_connected_against_reference(self, rng):
        # reference: transitive closure by edge relaxation
        for _ in range(60):
            n = rng.randint(1, 8)
            edges = set()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.3:
                        edges.add((u, v))
            g = Graph(n, sorted(edges))
            reach = {1}
            changed = True
            while changed:
                changed = False
                for u, v in edges:
                    if u in reach and v not in reach:
                        reach.add(v)
                        changed = True
                    if v in reach and u not in reach:
                        reach.add(u)
                        changed = True
            assert is_connected(g) == (len(reach) == n)


class TestConfiguration:
    def test_with_hole(self):
        c = Configuration.with_hole(5, 3)
        assert c.peg_vertices() == (1, 2, 4, 5)
        assert c.hole_vertices() == (3,)

    def test_bits_above_n_rejected(self):
        with pytest.raises(ValidationError):
            Configuration(3, 0b1000)

    def test_capacity_is_hard_error(self):
        with pytest.raises(CapacityExceeded):
            Configuration(65, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_vertex_range_is_invalid(self, n):
        # like Graph: an empty vertex range is bad data, not a capacity limit
        with pytest.raises(ValidationError, match=f"vertex count must be >= 1, got n={n}"):
            Configuration(n, 0)

    def test_peg_count(self):
        assert Configuration.from_vertices(6, [1, 4, 6]).peg_count() == 3
        assert Configuration(6, 0).peg_count() == 0


@pytest.mark.parametrize("call, why", [
    (lambda: Configuration.with_hole(3, 4), "hole 4 outside 1..3"),
    (lambda: Configuration.single_peg(3, 0), "peg 0 outside 1..3"),
    (lambda: legal_moves(path_graph(3), Configuration(4, 1)),
     "configuration is on 4 vertices, graph on 3"),
    (lambda: double_star(-1, 2), "pendant counts must be non-negative"),
], ids=["with_hole", "single_peg", "legal_moves", "double_star"])
def test_arguments_outside_their_range_refused(call, why):
    with pytest.raises(ValidationError, match=f"^{re.escape(why)}$"):
        call()


class TestLegalMoves:
    def test_p3_forced_jump(self):
        g = path_graph(3)
        c = Configuration.from_vertices(3, [1, 2])
        assert legal_moves(g, c) == [jump(1, 2, 3)]

    def test_h_ce_is_frozen(self):
        # pegs on c and e admit nothing inside H
        assert legal_moves(h_graph(), letters_config("ce")) == []

    def test_h_single_peg_e_unjumps_to_cd(self):
        g = h_graph()
        c = letters_config("e")
        moves = legal_moves(g, c)
        assert unjump(3, 4, 5) in moves  # peg e travels to c, creating d
        after = apply_move(c, unjump(3, 4, 5))
        assert after == letters_config("cd")

    def test_sorted_by_y_x_z_kind(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            c = random_configuration(rng, g.n)
            moves = legal_moves(g, c)
            assert moves == sorted(moves, key=lambda m: m.sort_key())

    def test_all_returned_moves_apply(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 7))
            c = random_configuration(rng, g.n)
            for m in legal_moves(g, c):
                apply_move(c, m, g)  # must not raise


class TestApplyMove:
    def test_jump_example(self):
        c = Configuration.from_vertices(3, [1, 2])
        assert apply_move(c, jump(1, 2, 3)) == Configuration.from_vertices(3, [3])

    def test_unjump_is_exact_inverse(self):
        c = Configuration.from_vertices(3, [3])
        assert apply_move(c, unjump(1, 2, 3)) == Configuration.from_vertices(3, [1, 2])

    def test_h_cd_jump_to_e(self):
        c = letters_config("cd")
        assert apply_move(c, jump(3, 4, 5)) == letters_config("e")

    def test_illegal_pattern_raises(self):
        c = Configuration.from_vertices(3, [1, 2])
        with pytest.raises(IllegalMove):
            apply_move(c, jump(3, 2, 1))

    def test_bad_geometry_raises_with_graph(self):
        g = star_graph(4)  # leaves are pairwise non-adjacent
        c = Configuration.with_hole(4, 2)
        with pytest.raises(IllegalMove):
            apply_move(c, jump(3, 4, 2), g)

    def test_value_semantics(self):
        c = Configuration.from_vertices(3, [1, 2])
        apply_move(c, jump(1, 2, 3))
        assert c == Configuration.from_vertices(3, [1, 2])

    def test_changes_exactly_three_bits(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 7))
            c = random_configuration(rng, g.n)
            for m in legal_moves(g, c):
                after = apply_move(c, m)
                assert bin(after.pegs ^ c.pegs).count("1") == 3

    def test_peg_count_delta(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 7))
            c = random_configuration(rng, g.n)
            for m in legal_moves(g, c):
                delta = apply_move(c, m).peg_count() - c.peg_count()
                assert delta == (-1 if m.kind is JUMP else 1)

    def test_inverse_pairs(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 7))
            c = random_configuration(rng, g.n)
            for m in legal_moves(g, c):
                assert apply_move(apply_move(c, m), m.inverse()) == c


class TestReplay:
    def test_empty_sequence(self):
        g = path_graph(3)
        c = Configuration.with_hole(3, 3)
        assert replay(g, MoveSequence(c, ())) == c

    def test_single_jump(self):
        g = path_graph(3)
        seq = MoveSequence(Configuration.from_vertices(3, [1, 2]), (jump(1, 2, 3),))
        assert replay(g, seq) == Configuration.from_vertices(3, [3])
        assert list(seq) == [jump(1, 2, 3)] and len(seq) == 1

    def test_illegal_move_at_zero(self):
        g = path_graph(3)
        seq = MoveSequence(Configuration.from_vertices(3, [1, 2]), (jump(3, 2, 1),))
        with pytest.raises(IllegalMoveAt) as exc:
            replay(g, seq)
        assert exc.value.index == 0

    def test_reports_first_bad_index(self):
        g = path_graph(4)
        seq = MoveSequence(
            Configuration.with_hole(4, 2),
            (jump(4, 3, 2), jump(4, 3, 2)),  # second repeat is illegal
        )
        with pytest.raises(IllegalMoveAt) as exc:
            replay(g, seq)
        assert exc.value.index == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_walk_legality(data):
    n = data.draw(st.integers(2, 7))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_connected_graph(rng, n)
    c = random_configuration(rng, n)
    moves = []
    start = c
    for _ in range(12):
        options = legal_moves(g, c)
        if not options:
            break
        m = rng.choice(options)
        assert is_legal(g, c, m)
        moves.append(m)
        c = apply_move(c, m)
    assert replay(g, MoveSequence(start, tuple(moves))) == c
