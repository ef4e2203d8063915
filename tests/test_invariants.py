import random

import pytest

from revpeg.errors import IllDefined, PreconditionFailed
from revpeg.families import (
    cycle_graph,
    double_star,
    h_graph,
    path_graph,
    star_graph,
)
from revpeg.invariants import (
    PathCycleVerdict,
    binary_weighting,
    classify_cycle,
    classify_path,
    doubly_free_predicate,
    lifted_cycle_weight,
    path_weight,
    star_certificate,
    total_binary_weight,
    vertex_weight,
)
from revpeg.model import Configuration, Graph, Move, apply_move, legal_moves
from revpeg.oracle import Verdict, classify
from revpeg.quaternion import I, J, K, MINUS_ONE, ONE


class TestPathWeight:
    def test_p5_known_value(self):
        c = Configuration.from_vertices(5, [1, 3, 4, 5])
        assert path_weight(5, c) == -I

    def test_empty_product(self):
        assert path_weight(9, Configuration(9, 0)) == ONE

    def test_single_pegs(self):
        assert path_weight(3, Configuration.single_peg(3, 1)) == I
        assert path_weight(3, Configuration.single_peg(3, 2)) == J
        assert path_weight(3, Configuration.single_peg(3, 3)) == K

    @pytest.mark.parametrize("weight", [path_weight, lifted_cycle_weight])
    def test_weights_refuse_a_configuration_of_another_size(self, weight):
        why = "^configuration is on 5 vertices, expected 4$"
        with pytest.raises(PreconditionFailed, match=why):
            weight(4, Configuration(5, 1))

    @pytest.mark.parametrize("n", range(3, 16))
    def test_preserved_by_every_move(self, n):
        g = path_graph(n)
        rng = random.Random(n * 7919)
        c = Configuration(n, rng.randrange(1 << n))
        for _ in range(200):
            options = legal_moves(g, c)
            if not options:
                c = Configuration(n, rng.randrange(1 << n))
                continue
            m = rng.choice(options)
            after = apply_move(c, m)
            assert path_weight(n, after) == path_weight(n, c)
            c = after

    def test_six_case_start_weights(self):
        # hole on 1, 2, 3 for each residue of n mod 6
        expected = {
            0: [-I, J, -K],
            1: [ONE, -K, -J],
            2: [J, I, ONE],
            3: [I, -J, K],
            4: [MINUS_ONE, K, J],
            5: [-J, -I, MINUS_ONE],
        }
        for n in range(6, 24):
            want = expected[n % 6]
            for hole, w in zip((1, 2, 3), want):
                c = Configuration.with_hole(n, hole)
                assert path_weight(n, c) == w, (n, hole)


class TestLiftedCycleWeight:
    def test_c5_one_hole_weight(self):
        for hole in range(1, 6):
            c = Configuration.with_hole(5, hole)
            assert lifted_cycle_weight(5, c) == MINUS_ONE

    def test_c7_weights(self):
        for hole in range(1, 8):
            assert lifted_cycle_weight(7, Configuration.with_hole(7, hole)) == ONE
        for peg in range(1, 8):
            assert lifted_cycle_weight(7, Configuration.single_peg(7, peg)) == MINUS_ONE

    @pytest.mark.parametrize("n", [n for n in range(3, 16) if n % 3 != 0])
    def test_preserved_by_every_move_when_n_not_divisible_by_3(self, n):
        # Rotating the triple cycle by n permutes the residue classes only
        # when 3 does not divide n; that cyclic rotation is what cancels the
        # wrap-around move's effect on the ordered product.
        g = cycle_graph(n)
        rng = random.Random(n * 104729)
        c = Configuration(n, rng.randrange(1 << n))
        for _ in range(200):
            options = legal_moves(g, c)
            if not options:
                c = Configuration(n, rng.randrange(1 << n))
                continue
            m = rng.choice(options)
            after = apply_move(c, m)
            assert lifted_cycle_weight(n, after) == lifted_cycle_weight(n, c)
            c = after

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_axis_invariant_but_sign_flips_when_3_divides_n(self, n):
        # For multiples of 3 the three copies carry identical residue
        # patterns, so a move across the label wrap flips the sign of the
        # product while preserving its axis; only the axis is conserved.
        g = cycle_graph(n)
        sign_flip_seen = False
        for mask in range(1 << n):
            c = Configuration(n, mask)
            wb = lifted_cycle_weight(n, c)
            for m in legal_moves(g, c):
                wa = lifted_cycle_weight(n, apply_move(c, m))
                assert wa.axis == wb.axis
                if wa != wb:
                    sign_flip_seen = True
        assert sign_flip_seen

    @pytest.mark.parametrize("n", [12, 15])
    def test_axis_invariant_random_walks_large_multiples_of_3(self, n):
        g = cycle_graph(n)
        rng = random.Random(n)
        c = Configuration(n, rng.randrange(1 << n))
        for _ in range(150):
            options = legal_moves(g, c)
            if not options:
                c = Configuration(n, rng.randrange(1 << n))
                continue
            m = rng.choice(options)
            after = apply_move(c, m)
            assert lifted_cycle_weight(n, after).axis == lifted_cycle_weight(n, c).axis
            c = after

    def test_one_move_becomes_three_synchronized_moves(self):
        # the lift of a moved configuration equals the tripled configuration
        # moved by the three shifted copies of the move on the 3n-cycle;
        # e.g. jump(2,1,5) on the 5-cycle maps to jumps into 15, 5, and 10
        rng = random.Random(5150)
        for n in (5, 7, 8, 9):
            g = cycle_graph(n)
            g3 = cycle_graph(3 * n)

            def lift(c):
                return Configuration.from_vertices(
                    3 * n, [x + t * n for x in c.peg_vertices() for t in range(3)]
                )

            def wrap(v):
                return (v - 1) % (3 * n) + 1

            c = Configuration.with_hole(n, 1)
            for _ in range(60):
                options = legal_moves(g, c)
                if not options:
                    break
                m = rng.choice(options)
                big = lift(c)
                direction = 1 if (m.y - m.x) % n == 1 else -1
                for k in range(3):
                    x = wrap(m.x + k * n)
                    y = wrap(x + direction)
                    z = wrap(y + direction)
                    assert y % n == m.y % n and z % n == m.z % n
                    big = apply_move(big, Move(m.kind, x, y, z), g3)
                c = apply_move(c, m)
                assert big == lift(c)


class TestStarCertificate:
    def test_rejects_small(self):
        with pytest.raises(PreconditionFailed):
            star_certificate(3)

    def test_k13_exhaustive(self):
        report = star_certificate(4).verify()
        assert report.leaf_count_always_preserved
        assert report.center_always_toggled
        assert report.proves_not_solvable
        assert report.moves_checked > 0

    def test_k14_counts(self):
        report = star_certificate(5).verify()
        assert report.start_leaf_counts == frozenset({3, 4})
        assert report.single_peg_leaf_counts == frozenset({0, 1})
        assert report.proves_not_solvable

    def test_leaf_count_refuses_a_configuration_of_another_size(self):
        with pytest.raises(PreconditionFailed, match="configuration is on 9 vertices, expected 5"):
            star_certificate(5).leaf_peg_count(Configuration(9, 511))

    def test_agrees_with_oracle(self):
        for n in range(4, 9):
            assert star_certificate(n).verify().proves_not_solvable
            assert classify(star_graph(n)).verdict is Verdict.NOT_SOLVABLE


def subdivided_k8() -> Graph:
    """K8 on 1..8 with every edge replaced by a 3-edge path: 64 vertices."""
    edges = []
    nxt = 9
    for u in range(1, 9):
        for v in range(u + 1, 9):
            edges += [(u, nxt), (nxt, nxt + 1), (nxt + 1, v)]
            nxt += 2
    return Graph(64, edges)


class TestBinaryWeighting:
    def test_h_weights_from_center(self):
        w = binary_weighting(h_graph(), 3)
        assert [w.weight[v] for v in range(1, 6)] == [1, 1, 0, 1, 1]

    def test_total_weight(self):
        w = binary_weighting(h_graph(), 3)
        assert total_binary_weight(w, Configuration.from_vertices(5, [1, 2])) == 0
        assert total_binary_weight(w, Configuration.from_vertices(5, [1, 3])) == 1

    @pytest.mark.parametrize("c", [Configuration(2, 3), Configuration(9, 511)], ids=["2", "9"])
    def test_total_refuses_a_configuration_of_another_size(self, c):
        w = binary_weighting(Graph(6, list(h_graph().edges) + [(5, 6)]), 3)
        with pytest.raises(PreconditionFailed, match=f"is on {c.n} vertices, expected 6"):
            total_binary_weight(w, c)
        with pytest.raises(PreconditionFailed, match=f"is on {c.n} vertices, expected 6"):
            w.total(c)

    def test_preserved_by_moves_when_defined(self):
        rng = random.Random(33)
        spider_3_3_3 = Graph(
            10,
            [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10)],
        )
        centers_distance_3 = Graph(
            8,
            [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7), (6, 8)],
        )
        graphs = [h_graph(), star_graph(5), spider_3_3_3, centers_distance_3]
        for g in graphs:
            base = min(v for v in g.vertices() if g.degree(v) >= 3)
            w = binary_weighting(g, base)
            c = Configuration.full(g.n)
            for _ in range(300):
                options = legal_moves(g, c)
                if not options:
                    c = Configuration(g.n, rng.randrange(1 << g.n))
                    continue
                m = rng.choice(options)
                after = apply_move(c, m)
                assert w.total(after) == w.total(c)
                c = after

    def test_adjacent_degree3_is_ill_defined(self):
        # two centers joined directly: distance 1 between degree-3 vertices
        g = double_star(2, 2)
        g2 = Graph(g.n + 1, list(g.edges) + [(1, g.n + 1), (2, g.n + 1)])
        # both centers now have degree 4 and an extra 2-path joins them
        with pytest.raises(IllDefined):
            binary_weighting(g2, 1)

    def test_low_degree_base_rejected(self):
        with pytest.raises(PreconditionFailed):
            binary_weighting(path_graph(5), 2)

    def test_base_outside_the_graph_rejected(self):
        with pytest.raises(PreconditionFailed):
            binary_weighting(h_graph(), 6)
        # vertex 5 has degree 3, so adj[-1] would pass the degree check
        g = Graph(5, [(1, 5), (2, 5), (3, 5), (3, 4)])
        with pytest.raises(PreconditionFailed):
            binary_weighting(g, -1)

    def test_subdivided_k8(self):
        g = subdivided_k8()
        for base in (1, 8):
            w = binary_weighting(g, base)
            assert [v for v in g.vertices() if w.weight[v] == 0] == list(range(1, 9))

    def test_json_shape(self):
        w = binary_weighting(h_graph(), 3)
        assert w.to_json() == {
            "base": 3,
            "weights": {"1": 1, "2": 1, "3": 0, "4": 1, "5": 1},
        }


class TestDoublyFreePredicate:
    def test_adjacent_centers(self):
        assert doubly_free_predicate(double_star(2, 2)) is True  # length 1

    def test_spider_single_center(self):
        # one degree-3 vertex, no cycles: no qualifying pair at all
        g = Graph(7, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7)])
        assert doubly_free_predicate(g) is False

    def test_k4(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        assert doubly_free_predicate(g) is True

    def test_centers_at_distance_three(self):
        # two degree-3 vertices joined by one path of length 3 only
        g = Graph(
            8,
            [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7), (6, 8)],
        )
        assert doubly_free_predicate(g) is False

    def test_cycle_through_single_center_counts(self):
        # square with a pendant: the 4-cycle through the degree-3 vertex
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5)])
        assert doubly_free_predicate(g) is True

    def test_divisible_cycle_does_not_count(self):
        # hexagon with a pendant: only closed path has length 6
        g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7)])
        assert doubly_free_predicate(g) is False

    def test_subdivided_k8(self):
        # 64 vertices; every path between the eight centers, and every
        # cycle, has length divisible by 3
        g = subdivided_k8()
        assert doubly_free_predicate(g) is False
        assert doubly_free_predicate(Graph(64, list(g.edges) + [(1, 2)])) is True

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            doubly_free_predicate(path_graph(6))
        with pytest.raises(PreconditionFailed):
            doubly_free_predicate(star_graph(5))

    def test_agrees_with_oracle_small(self, rng):
        from conftest import random_connected_graph

        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(4, 6), extra=3)
            if g.max_degree() < 3:
                continue
            from revpeg.families import is_star_shape

            if is_star_shape(g):
                continue
            cls = classify(g)
            full = frozenset(g.vertices())
            oracle_doubly = all(cls.matrix[h] == full for h in cls.matrix)
            assert doubly_free_predicate(g) == oracle_doubly, g.sorted_edges()


class TestClassifyPath:
    def test_not_solvable_cases(self):
        for n in (5, 7, 11, 13, 17):
            v = classify_path(n)
            assert not v.solvable and v.level is Verdict.NOT_SOLVABLE

    def test_p6(self):
        v = classify_path(6)
        assert v.admissible_starts == frozenset({2, 5})
        assert v.end_pegs[2] == frozenset({2, 5})
        assert v.end_pegs[5] == frozenset({2, 5})

    def test_p4(self):
        v = classify_path(4)
        assert v.admissible_starts == frozenset({2, 3})
        assert v.end_pegs[2] == frozenset({3})
        assert v.end_pegs[3] == frozenset({2})

    def test_p2_special(self):
        v = classify_path(2)
        assert v.level is Verdict.FREELY_SOLVABLE
        assert v.end_pegs == {1: frozenset({2}), 2: frozenset({1})}

    def test_matches_oracle(self):
        for n in range(2, 13):
            v = classify_path(n)
            cls = classify(path_graph(n))
            starts = frozenset(h for h in cls.matrix if cls.matrix[h])
            assert starts == v.admissible_starts, n
            for h in starts:
                assert cls.matrix[h] == v.end_pegs[h], (n, h)
            assert cls.verdict is v.level, n


class TestClassifyCycle:
    def test_not_solvable_cases(self):
        for n in (5, 7, 11, 17):
            assert not classify_cycle(n).solvable

    def test_c6(self):
        v = classify_cycle(6)
        assert v.level is Verdict.FREELY_SOLVABLE
        for h in range(1, 7):
            assert v.end_pegs[h] == frozenset({h, (h - 1 + 3) % 6 + 1})

    def test_c8_doubly(self):
        v = classify_cycle(8)
        assert v.level is Verdict.DOUBLY_FREELY_SOLVABLE
        assert all(v.end_pegs[h] == frozenset(range(1, 9)) for h in range(1, 9))

    def test_matches_oracle(self):
        for n in range(3, 13):
            v = classify_cycle(n)
            cls = classify(cycle_graph(n))
            starts = frozenset(h for h in cls.matrix if cls.matrix[h])
            assert starts == v.admissible_starts, n
            for h in starts:
                assert cls.matrix[h] == v.end_pegs[h], (n, h)
            assert cls.verdict is v.level, n


def test_verdict_dataclass_shape():
    v = classify_path(6)
    assert isinstance(v, PathCycleVerdict)
    assert vertex_weight(1) == I and vertex_weight(2) == J and vertex_weight(3) == K
