import random

import pytest

from revpeg.construct import (
    HEmbedding,
    WorkingTree,
    _build_frame,
    _lone_peg_hops,
    absorb_nearest_peg,
    find_h_embedding,
    find_spanning_tree,
    line_solver_witness,
    p4_move,
    shift_hole_onto_h,
    solve_constructive,
    solve_constructive_to,
    solve_cycle,
    solve_path,
    transform_within_h,
)
import revpeg.construct as construct
from revpeg.errors import (
    InvariantViolation,
    NotDoublyFree,
    NotSameClass,
    NotSolvableStart,
    PatternMismatch,
    PreconditionFailed,
)
from revpeg.families import (
    cycle_graph,
    double_star,
    h_graph,
    is_star_shape,
    path_graph,
    paw_graph,
    star_graph,
)
from revpeg.hclasses import HClass, h_class_of
from revpeg.invariants import classify_cycle, classify_path
from revpeg.model import Configuration, Graph, MoveSequence, replay
from revpeg.oracle import classify, solve_from

from conftest import random_connected_graph


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestP4Move:
    def test_peg_case(self):
        g = path_graph(4)
        c = Configuration.from_vertices(4, [1])
        out, moves = p4_move(g, c, (1, 2, 3, 4))
        assert out == Configuration.from_vertices(4, [4])
        assert [str(m) for m in moves] == ["unjump(3,2,1)", "jump(2,3,4)"]

    def test_hole_case(self):
        g = path_graph(4)
        c = Configuration.from_vertices(4, [2, 3, 4])
        out, moves = p4_move(g, c, (1, 2, 3, 4))
        assert out == Configuration.from_vertices(4, [1, 2, 3])
        assert [str(m) for m in moves] == ["jump(3,2,1)", "unjump(2,3,4)"]

    def test_pattern_mismatch(self):
        g = path_graph(4)
        with pytest.raises(PatternMismatch):
            p4_move(g, Configuration.from_vertices(4, [1, 2]), (1, 2, 3, 4))

    def test_non_path_rejected(self):
        g = star_graph(5)
        with pytest.raises(PatternMismatch):
            p4_move(g, Configuration.from_vertices(5, [2]), (2, 3, 4, 5))

    @pytest.mark.parametrize("path", [(1, 2, 3), (1, 2, 3, 4, 5)], ids=["3", "5"])
    def test_path_of_wrong_length_rejected(self, path):
        g = path_graph(5)
        with pytest.raises(PatternMismatch, match=f"has {len(path)} vertices, not 4"):
            p4_move(g, Configuration.from_vertices(5, [1]), path)

    def test_configuration_of_another_size_rejected(self):
        with pytest.raises(PreconditionFailed, match="configuration and graph sizes differ"):
            p4_move(path_graph(4), Configuration(9, 1), (1, 2, 3, 4))

    def test_moves_replay(self):
        g = path_graph(7)
        c = Configuration.from_vertices(7, [3, 5, 6, 7])
        out, moves = p4_move(g, c, (4, 5, 6, 7))  # hole case along 4..7
        assert replay(g, MoveSequence(c, moves)) == out


class TestFindSpanningTree:
    def test_tree_returned_as_is(self):
        g = h_graph()
        t = find_spanning_tree(g)
        assert t.tree.edges == g.edges
        assert t.root == 3

    def test_complete_graph_star_swap(self):
        for n in (5, 6, 7):
            t = find_spanning_tree(complete_graph(n))
            tree = t.tree
            assert len(tree.edges) == n - 1
            assert tree.degree(t.root) >= 3
            degrees = sorted(tree.degree(v) for v in tree.vertices())
            assert degrees[-1] < n - 1  # not a star
            from revpeg.model import is_connected

            assert is_connected(tree)

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionFailed):
            find_spanning_tree(cycle_graph(5))

    def test_small_graph_rejected(self):
        with pytest.raises(PreconditionFailed):
            find_spanning_tree(complete_graph(4))

    def test_star_rejected(self):
        with pytest.raises(PreconditionFailed):
            find_spanning_tree(star_graph(6))

    def test_random_graphs_satisfy_invariants(self, rng):
        from revpeg.model import is_connected

        count = 0
        while count < 25:
            g = random_connected_graph(rng, rng.randint(5, 10), extra=3)
            if is_star_shape(g) or g.max_degree() < 3:
                continue
            count += 1
            t = find_spanning_tree(g)
            assert len(t.tree.edges) == g.n - 1
            assert is_connected(t.tree)
            assert t.tree.edges <= g.edges
            assert t.tree.degree(t.root) >= 3
            assert not is_star_shape(t.tree)


class TestFindHEmbedding:
    def test_identity_on_h(self):
        t = WorkingTree(h_graph(), 3)
        emb = find_h_embedding(t)
        assert emb == HEmbedding(1, 2, 3, 4, 5)

    def test_spider_with_one_long_leg(self):
        # center 1; leaves 2, 3; leg 4-5-6
        tree = Graph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
        emb = find_h_embedding(WorkingTree(tree, 1))
        assert (emb.c, emb.d, emb.e) == (1, 4, 5)
        assert {emb.a, emb.b} == {2, 3}

    def test_double_star_22(self):
        t = WorkingTree(double_star(2, 2), 1)
        emb = find_h_embedding(t)
        assert emb.c == 1 and emb.d == 2
        assert {emb.a, emb.b} == {3, 4}
        assert emb.e == 5


def h_config(letters: str) -> Configuration:
    return Configuration.from_vertices(5, ["abcde".index(ch) + 1 for ch in letters])


class TestTransformWithinH:
    def test_e_to_cd_single_move(self):
        emb = HEmbedding(1, 2, 3, 4, 5)
        out, seq = transform_within_h(emb, h_config("e"), {3, 4})
        assert out == h_config("cd")
        assert len(seq.moves) == 1

    def test_c_to_de_single_move(self):
        emb = HEmbedding(1, 2, 3, 4, 5)
        out, seq = transform_within_h(emb, h_config("c"), {4, 5})
        assert out == h_config("de")
        assert len(seq.moves) == 1

    def test_cross_class_rejected(self):
        emb = HEmbedding(1, 2, 3, 4, 5)
        with pytest.raises(NotSameClass):
            transform_within_h(emb, h_config("e"), {3})

    @pytest.mark.parametrize("target", [{3}, {4, 5}])
    def test_embedding_outside_the_configuration_refused(self, target):
        # H on 1..5 cannot act on a 3-vertex configuration, whatever the target
        emb = HEmbedding(1, 2, 3, 4, 5)
        why = r"embedded H vertices \[4, 5\] are outside 1\.\.3"
        with pytest.raises(PreconditionFailed, match=why):
            transform_within_h(emb, Configuration(3, 0b011), target)

    def test_respects_relabeled_embedding(self):
        # embed H inside a larger graph with scrambled labels
        g = Graph(7, [(6, 2), (7, 2), (2, 4), (4, 1), (2, 3), (3, 5)])
        emb = HEmbedding(6, 7, 2, 4, 1)
        c = Configuration.from_vertices(7, [1, 3])  # peg on e-image and outside
        out, seq = transform_within_h(emb, c, {2, 4})  # target cd-image
        assert replay(g, MoveSequence(c, seq.moves)) == out
        assert out == Configuration.from_vertices(7, [2, 3, 4])


class TestShiftHole:
    def build_tail(self, tail_len):
        """H plus a path of tail_len vertices hanging off c (vertex 3)."""
        edges = list(h_graph().edges)
        prev = 3
        for i in range(tail_len):
            v = 6 + i
            edges.append((prev, v))
            prev = v
        return Graph(5 + tail_len, edges)

    @pytest.mark.parametrize("dist", [1, 2, 3, 4, 5, 6, 7])
    def test_hole_lands_on_h_any_distance(self, dist):
        g = self.build_tail(dist)
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        hole = 5 + dist  # the end of the tail
        c = Configuration.with_hole(g.n, hole)
        out, seq = shift_hole_onto_h(t, emb, c)
        assert replay(g, MoveSequence(c, seq.moves)) == out
        holes = out.hole_vertices()
        assert len(holes) == 1 and holes[0] in emb.vertices
        assert h_class_of(emb.mask_of(out)) in (HClass.A, HClass.B)

    def test_distance_three_lands_on_attachment(self):
        g = self.build_tail(3)
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        c = Configuration.with_hole(g.n, 8)
        out, _ = shift_hole_onto_h(t, emb, c)
        assert out.hole_vertices() == (3,)  # attachment c

    def test_hole_already_on_h_is_noop(self):
        g = self.build_tail(2)
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        c = Configuration.with_hole(g.n, 4)
        out, seq = shift_hole_onto_h(t, emb, c)
        assert out == c and len(seq.moves) == 0


def tail_graph(attach_vertex: int, length: int) -> Graph:
    """H (vertices 1..5 = a..e) plus a path of `length` new vertices hanging
    off `attach_vertex`."""
    edges = list(h_graph().edges)
    prev = attach_vertex
    for i in range(length):
        edges.append((prev, 6 + i))
        prev = 6 + i
    return Graph(5 + length, edges)


@pytest.mark.parametrize(
    "step, c",
    [
        (shift_hole_onto_h, Configuration.with_hole(9, 9)),
        (shift_hole_onto_h, Configuration.with_hole(5, 1)),
        (absorb_nearest_peg, Configuration(9, 1 << 8)),
        (absorb_nearest_peg, Configuration.with_hole(5, 1)),
    ],
    ids=["shift-9", "shift-5", "absorb-9", "absorb-5"],
)
def test_steps_refuse_a_configuration_of_another_size(step, c):
    t = WorkingTree(tail_graph(4, 2), 3)
    with pytest.raises(PreconditionFailed, match="configuration and graph sizes differ"):
        step(t, find_h_embedding(t), c)


class TestAbsorbStaging:
    """Pin the staged H configuration and landing vertex for the three
    documented (attachment, class, distance) cases."""

    def run_absorb(self, g, h_pegs, outside_pegs):
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        assert emb == HEmbedding(1, 2, 3, 4, 5)
        c = Configuration.from_vertices(g.n, sorted(h_pegs | outside_pegs))
        out, seq = absorb_nearest_peg(t, emb, c)
        assert replay(g, MoveSequence(c, seq.moves)) == out
        # config right before the final entry macro = the staged H state
        staged = c
        for m in seq.moves[:-2]:
            staged = Configuration(g.n, staged.pegs ^ m.mask())
        return out, seq, staged

    def test_class_a_peg_next_to_a_stages_b_lands_d(self):
        g = tail_graph(1, 1)  # x1 = vertex 6 adjacent to a
        out, seq, staged = self.run_absorb(g, {5}, {6})  # H config "e" is class A
        assert staged.peg_vertices() == (2, 6)  # staged "b", peg still outside
        assert out.peg_vertices() == (2, 4)  # "bd": landed on d
        assert h_class_of(HEmbedding(1, 2, 3, 4, 5).mask_of(out)) is HClass.B

    def test_class_b_peg_at_distance_2_from_c_stages_be_lands_a(self):
        g = tail_graph(3, 2)  # x2 = vertex 7 at distance 2 from c
        out, seq, staged = self.run_absorb(g, {3}, {7})  # H config "c" is class B
        assert staged.peg_vertices() == (2, 5, 7)  # staged "be"
        assert out.peg_vertices() == (1, 2, 5)  # "abe": landed on a
        assert h_class_of(HEmbedding(1, 2, 3, 4, 5).mask_of(out)) is HClass.A

    def test_class_b_peg_at_distance_2_from_e_stages_c_lands_d(self):
        g = tail_graph(5, 2)  # x2 = vertex 7 at distance 2 from e
        out, seq, staged = self.run_absorb(g, {3}, {7})  # class B
        assert staged.peg_vertices() == (3, 7)  # staged "c"
        assert out.peg_vertices() == (3, 4)  # "cd": landed on d
        assert h_class_of(HEmbedding(1, 2, 3, 4, 5).mask_of(out)) is HClass.A

    def test_far_peg_marches_in_threes(self):
        g = tail_graph(1, 7)  # peg at distance 7 -> two marches, then x1
        out, seq, staged = self.run_absorb(g, {5}, {12})
        assert out.peg_count() == 2
        h_masked = HEmbedding(1, 2, 3, 4, 5).mask_of(out)
        assert h_class_of(h_masked) in (HClass.A, HClass.B)
        assert all(not out.has_peg(v) for v in range(6, 13))


class TestShiftHoleLanding:
    def test_distance_1_from_c_lands_on_e(self):
        g = tail_graph(3, 1)
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        c = Configuration.with_hole(g.n, 6)
        out, seq = shift_hole_onto_h(t, emb, c)
        assert out.hole_vertices() == (5,)  # hole pushed through c-d onto e
        assert replay(g, MoveSequence(c, seq.moves)) == out

    def test_distance_2_from_c_lands_on_a(self):
        g = tail_graph(3, 2)
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        c = Configuration.with_hole(g.n, 7)
        out, _ = shift_hole_onto_h(t, emb, c)
        assert out.hole_vertices() == (1,)  # hole pushed through c into a


class TestAbsorb:
    def test_absorbs_until_h_only(self, rng):
        count = 0
        while count < 30:
            g = random_connected_graph(rng, rng.randint(5, 9), extra=2)
            if is_star_shape(g) or g.max_degree() < 3:
                continue
            count += 1
            t = find_spanning_tree(g)
            emb = find_h_embedding(t)
            hole = rng.randrange(1, g.n + 1)
            c = Configuration.with_hole(g.n, hole)
            c, seq = shift_hole_onto_h(t, emb, c)
            h_set = set(emb.vertices)
            outside = sum(1 for v in c.peg_vertices() if v not in h_set)
            while outside:
                before = outside
                c, seq = absorb_nearest_peg(t, emb, c)
                outside = sum(1 for v in c.peg_vertices() if v not in h_set)
                assert outside == before - 1
                assert h_class_of(emb.mask_of(c)) in (HClass.A, HClass.B)

    def test_requires_outside_peg(self):
        g = h_graph()
        t = WorkingTree(g, 3)
        emb = find_h_embedding(t)
        with pytest.raises(PreconditionFailed):
            absorb_nearest_peg(t, emb, Configuration.with_hole(5, 1))

    def test_frame_built_once_per_tree_and_embedding(self):
        g = Graph(7, [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        t = find_spanning_tree(g)
        emb = find_h_embedding(t)
        c, _ = shift_hole_onto_h(t, emb, Configuration.with_hole(7, 7))
        absorb_nearest_peg(t, emb, c)
        misses = _build_frame.cache_info().misses
        absorb_nearest_peg(t, emb, c)
        shift_hole_onto_h(t, emb, Configuration.with_hole(7, 7))
        assert _build_frame.cache_info().misses == misses


class TestSolveConstructive:
    def test_paw_all_holes(self):
        g = paw_graph()
        for hole in g.vertices():
            seq = solve_constructive(g, hole)
            assert seq.start == Configuration.with_hole(4, hole)
            assert replay(g, seq).peg_count() == 1

    def test_double_star_31_all_holes(self):
        g = double_star(3, 1)
        cls = classify(g)
        for hole in g.vertices():
            seq = solve_constructive(g, hole)
            end = replay(g, seq)
            assert end.peg_count() == 1
            assert end.peg_vertices()[0] in cls.matrix[hole]

    def test_star_rejected(self):
        with pytest.raises(PreconditionFailed):
            solve_constructive(star_graph(5), 2)

    def test_path_rejected(self):
        # despite the name, a path is solved, by the line kernel
        g = path_graph(6)
        seq = solve_constructive(g, 2)
        assert seq == line_solver_witness(g, 2) == solve_path(6, 2)
        assert replay(g, seq).peg_count() == 1

    def test_random_graphs_oracle_crosscheck(self, rng):
        count = 0
        while count < 40:
            g = random_connected_graph(rng, rng.randint(4, 9), extra=2)
            if is_star_shape(g) or g.max_degree() < 3:
                continue
            count += 1
            cls = classify(g)
            for hole in g.vertices():
                seq = solve_constructive(g, hole)
                end = replay(g, seq)
                assert end.peg_count() == 1
                assert end.peg_vertices()[0] in cls.matrix[hole]

    @pytest.mark.parametrize("edges, n", [
        ([(1, 2), (1, 3), (1, 4), (5, 6)], 6),  # a claw plus an edge: degree 3
        ([(1, 2), (2, 3), (4, 5)], 5),  # a path plus an edge: no degree 3
    ], ids=["with-degree-3", "without-degree-3"])
    def test_disconnected_graph_refused(self, edges, n):
        with pytest.raises(PreconditionFailed, match="graph must be connected"):
            solve_constructive(Graph(n, edges), 1)

    def test_unjump_budget(self, rng):
        count = 0
        while count < 20:
            g = random_connected_graph(rng, rng.randint(5, 10), extra=2)
            if is_star_shape(g) or g.max_degree() < 3:
                continue
            count += 1
            for hole in g.vertices():
                seq = solve_constructive(g, hole)
                assert seq.unjump_count() <= 10 * g.n * g.n


class TestSolveConstructiveTo:
    def test_k4_every_pair(self):
        g = complete_graph(4)
        for hole in g.vertices():
            for target in g.vertices():
                seq = solve_constructive_to(g, hole, target)
                end = replay(g, seq)
                assert end.peg_vertices() == (target,)

    def test_adjacent_degree3_graph(self):
        g = double_star(2, 2)
        g = Graph(6, sorted(g.edges))
        cls = classify(g)
        assert all(cls.matrix[h] == frozenset(g.vertices()) for h in cls.matrix)
        for hole in g.vertices():
            for target in g.vertices():
                seq = solve_constructive_to(g, hole, target)
                assert replay(g, seq).peg_vertices() == (target,)

    def test_not_doubly_free(self):
        # spider: single degree-3 vertex, no cycle
        g = Graph(6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)])
        with pytest.raises(NotDoublyFree):
            solve_constructive_to(g, 1, 2)

    def test_star_precondition(self):
        with pytest.raises(PreconditionFailed):
            solve_constructive_to(star_graph(5), 1, 2)

    def test_hole_outside_refused_before_doubly_free_check(self):
        with pytest.raises(PreconditionFailed, match=r"^hole 9 outside 1\.\.5$"):
            solve_constructive_to(h_graph(), 9, 2)

    def test_routing_table_built_once_per_graph(self):
        g = double_star(2, 2)
        _lone_peg_hops.cache_clear()
        for hole in g.vertices():
            for target in g.vertices():
                solve_constructive_to(g, hole, target)
        info = _lone_peg_hops.cache_info()
        assert info.misses == 1 and info.hits > 0

    @staticmethod
    def one_hop_from_the_last_peg(g: Graph) -> tuple[int, int]:
        """The peg the plain solve of cycle:8 from hole 2 ends on, and the
        target three steps on, one 4-path hop away."""
        peg = replay(g, solve_constructive(g, 2)).peg_vertices()[0]
        return peg, (peg + 2) % g.n + 1

    def test_routing_that_misses_the_target_is_refused(self, monkeypatch):
        g = cycle_graph(8)
        peg, target = self.one_hop_from_the_last_peg(g)
        rows = [dict(row) for row in _lone_peg_hops(g)]
        # A real 4-path from the peg, but the other way round the cycle.
        rows[peg][target] = ("p4", tuple((peg - i - 1) % g.n + 1 for i in range(4)))
        monkeypatch.setattr(construct, "_lone_peg_hops", lambda g: tuple(rows))
        with pytest.raises(
            InvariantViolation, match="^routing did not end on the requested target$"
        ):
            solve_constructive_to(g, 2, target)

    def test_routing_without_hops_is_refused(self, monkeypatch):
        g = cycle_graph(8)
        _, target = self.one_hop_from_the_last_peg(g)
        monkeypatch.setattr(construct, "_lone_peg_hops", lambda g: ({},) * (g.n + 1))
        with pytest.raises(
            InvariantViolation,
            match="^lone-peg routing failed although the closed form admits the target$",
        ):
            solve_constructive_to(g, 2, target)

    def test_routing_table_rows_are_read_only(self):
        # Every caller shares the cached rows, so none may change them.
        hops = _lone_peg_hops(cycle_graph(8))
        with pytest.raises(TypeError):
            hops[1][5] = ("p4", (1, 2, 3, 4))
        with pytest.raises(TypeError):
            del hops[1][4]

    @pytest.mark.parametrize("n", range(6, 13))
    def test_routing_table_keeps_one_hop_per_target(self, n):
        hops = _lone_peg_hops(complete_graph(n))
        for u in range(1, n + 1):
            assert len(hops[u]) <= n - 1
            assert u not in hops[u]

    def test_complete_graph_every_pair(self):
        g = complete_graph(8)
        for hole in g.vertices():
            for target in g.vertices():
                seq = solve_constructive_to(g, hole, target)
                assert replay(g, seq).peg_vertices() == (target,)

    def test_exhaustive_small_every_hole_target_pair(self):
        from revpeg.census import labeled_connected_graphs
        from revpeg.families import cycle_order, path_order

        from revpeg.errors import NotDoublyFree
        from revpeg.invariants import doubly_free_predicate

        pairs = 0
        for n in range(4, 6):
            for g in labeled_connected_graphs(n):
                if (
                    (g.n >= 4 and is_star_shape(g))
                    or path_order(g)
                    or cycle_order(g)
                    or g.max_degree() < 3
                ):
                    continue
                if doubly_free_predicate(g):
                    for hole in g.vertices():
                        for target in g.vertices():
                            seq = solve_constructive_to(g, hole, target)
                            assert replay(g, seq).peg_vertices() == (target,)
                            pairs += 1
                else:
                    with pytest.raises(NotDoublyFree):
                        solve_constructive_to(g, 1, 2)
        assert pairs == 12262  # frozen: every pair on every doubly-free graph

    def test_oracle_agreement_random(self, rng):
        count = 0
        while count < 12:
            g = random_connected_graph(rng, rng.randint(4, 7), extra=3)
            if is_star_shape(g) or g.max_degree() < 3:
                continue
            count += 1
            cls = classify(g)
            full = frozenset(g.vertices())
            doubly = all(cls.matrix[h] == full for h in cls.matrix)
            hole = rng.randrange(1, g.n + 1)
            target = rng.randrange(1, g.n + 1)
            if doubly:
                seq = solve_constructive_to(g, hole, target)
                assert replay(g, seq).peg_vertices() == (target,)
            else:
                with pytest.raises(NotDoublyFree):
                    solve_constructive_to(g, hole, target)


class TestSolvePath:
    def test_p4_exact(self):
        seq = solve_path(4, 2)
        assert [str(m) for m in seq.moves] == ["jump(4,3,2)", "jump(1,2,3)"]
        assert replay(path_graph(4), seq).peg_vertices() == (3,)

    def test_p9_starts_with_jump123(self):
        seq = solve_path(9, 3)
        assert str(seq.moves[0]) == "jump(1,2,3)"
        end = replay(path_graph(9), seq)
        assert end.peg_count() == 1

    def test_p7_not_solvable(self):
        for hole in range(1, 8):
            with pytest.raises(NotSolvableStart):
                solve_path(7, hole)

    def test_p2_trivial(self):
        seq = solve_path(2, 1)
        assert len(seq.moves) == 0
        assert replay(path_graph(2), seq).peg_vertices() == (2,)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_every_admissible_start(self, n):
        verdict = classify_path(n)
        g = path_graph(n)
        for hole in range(1, n + 1):
            if hole in verdict.admissible_starts:
                seq = solve_path(n, hole)
                assert seq.start == Configuration.with_hole(n, hole)
                end = replay(g, seq)
                assert end.peg_count() == 1
                assert end.peg_vertices()[0] in verdict.end_pegs[hole]
            else:
                with pytest.raises(NotSolvableStart):
                    solve_path(n, hole)


class TestSolveCycle:
    @pytest.mark.parametrize("n", range(3, 14))
    def test_every_admissible_start(self, n):
        verdict = classify_cycle(n)
        g = cycle_graph(n)
        for hole in range(1, n + 1):
            if hole in verdict.admissible_starts:
                seq = solve_cycle(n, hole)
                assert seq.start == Configuration.with_hole(n, hole)
                end = replay(g, seq)
                assert end.peg_count() == 1
                assert end.peg_vertices()[0] in verdict.end_pegs[hole]
            else:
                with pytest.raises(NotSolvableStart):
                    solve_cycle(n, hole)

    def test_c5_not_solvable(self):
        with pytest.raises(NotSolvableStart):
            solve_cycle(5, 1)
