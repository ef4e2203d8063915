import itertools
import random
import time
import tracemalloc

import pytest

from revpeg import oracle
from revpeg.errors import CapacityExceeded, DisconnectedGraph, PreconditionFailed
from revpeg.families import (
    cycle_graph,
    h_graph,
    path_graph,
    paw_graph,
    star_graph,
)
from revpeg.model import (
    Configuration,
    Graph,
    MoveSequence,
    is_connected,
    legal_moves,
    replay,
)
from revpeg.oracle import (
    Verdict,
    classify,
    equivalence_partition,
    min_unjumps,
    reachable_set,
    shortest_route,
    solve_from,
    witness_to,
)
from revpeg.oracle import _bit_masks, _centres, _image, _members

from conftest import random_connected_graph

# Frozen equivalence classes of configurations on H (letters a..e = 1..5).
CLASS_A = "a b d e ac bc cd abe ade bde abcd abce acde bcde".split()
CLASS_B = "c ab ad ae bd be de abc acd ace bcd bce cde abde".split()
H_SINGLETONS = ["abcde", "abd", "ce", ""]


def test_classify_reads_complement_rows_without_a_search(monkeypatch):
    # The class of hole 1 on path:16 holds single pegs whose complement
    # class holds the other starts, so two closures cover all 16 rows.
    closures = []
    sweep = oracle._closure
    monkeypatch.setattr(oracle, "_closure", lambda g, s: closures.append(s) or sweep(g, s))
    cls = classify(path_graph(16))
    assert len(closures) == 2
    assert list(cls.matrix) == list(range(1, 17))


def letter_set(letters: str) -> frozenset[int]:
    return frozenset("abcde".index(ch) + 1 for ch in letters)


def config_of(letters: str) -> Configuration:
    return Configuration.from_vertices(5, letter_set(letters))


# ---------------------------------------------------------------------------
# Independent brute-force reference: plain peg-set semantics, no bitmasks.
# ---------------------------------------------------------------------------

def naive_moves(edges, pegs):
    """Successor peg-sets by first principles: flip any 3-path whose
    endpoints hold exactly one peg."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = []
    for y, nb in adj.items():
        for x, z in itertools.combinations(sorted(nb), 2):
            if (x in pegs) != (z in pegs):
                out.append(pegs ^ {x, y, z})
    return out


def naive_class(edges, pegs):
    start = frozenset(pegs)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in naive_moves(edges, set(s)):
                ft = frozenset(t)
                if ft not in seen:
                    seen.add(ft)
                    nxt.append(ft)
        frontier = nxt
    return seen


def naive_partition(n, edges):
    blocks = []
    done = set()
    for r in range(n + 1):
        for pegs in itertools.combinations(range(1, n + 1), r):
            f = frozenset(pegs)
            if f not in done:
                blk = naive_class(edges, set(f))
                done |= blk
                blocks.append(blk)
    return blocks


class TestStateSets:
    """The set-at-a-time primitives against state-by-state brute force."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_masks(self, n):
        want = [sum(1 << s for s in range(1 << n) if s >> b & 1) for b in range(n)]
        assert list(_bit_masks(n)) == want

    def test_members_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            states = sorted(rng.sample(range(1 << 9), rng.randint(0, 40)))
            assert _members(sum(1 << s for s in states)) == states
        assert _members(0) == []
        assert _members((1 << (1 << 12)) - 1) == list(range(1 << 12))
        assert _members(1 << (1 << 16) - 1) == [(1 << 16) - 1]
        dense = [s for s in range((1 << 14) - 1) if rng.random() < 0.99] + [(1 << 14) - 1]
        assert _members(sum(1 << s for s in dense)) == dense

    def test_image_matches_ordered_triple_rule(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 7)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            g = Graph(n, [e for e in pairs if rng.random() < 0.4])
            states = rng.sample(range(1 << n), rng.randint(0, 1 << n))
            # the targets of every legal move, jumps and unjumps alike
            want = {
                s ^ m.mask() for s in states for m in legal_moves(g, Configuration(n, s))
            }
            got = _members(_image(sum(1 << s for s in states), g))
            assert got == sorted(want), (g.sorted_edges(), states)

    def test_centres_follow_a_bfs_order(self):
        # a BFS from vertex 1 of path:6 reaches 6 last, and a BFS from 6
        # meets the centres in the order 5, 4, 3, 2
        assert [(y + 1, y_bit) for y, y_bit, _ in _centres(path_graph(6))] == [
            (5, 16), (4, 8), (3, 4), (2, 2)]
        # the centres of the triangle, which the BFS does not reach, follow
        # by label
        g = Graph(7, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
        assert [y + 1 for y, _, _ in _centres(g)] == [3, 2, 5, 6, 7]
        assert _centres(Graph(3, [(1, 2)])) == ()

    def test_edgeless_partition_is_fast(self):
        t0 = time.perf_counter()
        part = equivalence_partition(Graph(12, []))
        elapsed = time.perf_counter() - t0
        assert part.blocks == tuple(frozenset([s]) for s in range(1 << 12))
        assert elapsed < 1.0


class TestReachableSet:
    def test_p2_is_stuck(self):
        g = path_graph(2)
        c = Configuration.from_vertices(2, [1])
        assert reachable_set(g, c) == frozenset([c])

    def test_h_ce_isolated(self):
        c = config_of("ce")
        assert reachable_set(h_graph(), c) == frozenset([c])

    def test_h_e_reaches_all_of_class_a(self):
        got = reachable_set(h_graph(), config_of("e"))
        assert got == frozenset(config_of(s) for s in CLASS_A)

    def test_symmetry(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 6))
            c = Configuration(g.n, rng.randrange(1 << g.n))
            ball = reachable_set(g, c)
            d = rng.choice(sorted(ball, key=lambda x: x.pegs))
            assert c in reachable_set(g, d)

    @pytest.mark.parametrize("query", [
        lambda g, budget: reachable_set(g, Configuration.full(g.n), budget),
        lambda g, budget: min_unjumps(g, 2, budget),
        lambda g, budget: solve_from(g, 2, budget),
        lambda g, budget: witness_to(g, 2, 5, budget),
        lambda g, budget: classify(g, budget),
    ], ids=["reachable_set", "min_unjumps", "solve_from", "witness_to", "classify"])
    def test_budget_enforced(self, query, monkeypatch):
        def allocate(n):
            raise AssertionError("state sets allocated before the budget check")

        # every search starts by building the per-bit masks
        monkeypatch.setattr(oracle, "_bit_masks", allocate)
        with pytest.raises(CapacityExceeded):
            query(path_graph(10), 1024)


class TestEquivalencePartition:
    def test_h_matches_known_table(self):
        part = equivalence_partition(h_graph())
        blocks = {frozenset(Configuration(5, m).peg_vertices() for m in b) for b in part.blocks}
        expected_a = frozenset(tuple(sorted(letter_set(s))) for s in CLASS_A)
        want = {
            frozenset(tuple(sorted(letter_set(s))) for s in CLASS_A),
            frozenset(tuple(sorted(letter_set(s))) for s in CLASS_B),
        } | {frozenset([tuple(sorted(letter_set(s)))]) for s in H_SINGLETONS}
        got = {frozenset(tuple(sorted(vs)) for vs in b) for b in blocks}
        assert got == want
        assert len(part.blocks) == 6
        assert expected_a  # silence linters; the real assert is above

    def test_p2_all_singletons(self):
        part = equivalence_partition(path_graph(2))
        assert all(len(b) == 1 for b in part.blocks)
        assert len(part.blocks) == 4

    def test_k13_matches_naive_reference(self):
        g = star_graph(4)
        part = equivalence_partition(g)
        got = {
            frozenset(frozenset(Configuration(4, m).peg_vertices()) for m in b)
            for b in part.blocks
        }
        want = {frozenset(b) for b in naive_partition(4, sorted(g.edges))}
        assert got == want

    def test_k13_classes_preserve_leaf_count_and_toggle_center(self):
        g = star_graph(4)
        for block in equivalence_partition(g).blocks:
            configs = [Configuration(4, m) for m in block]
            leaf_counts = {sum(1 for v in c.peg_vertices() if v != 1) for c in configs}
            assert len(leaf_counts) == 1
            if len(configs) > 1:
                # within a class the center state varies only with move parity:
                # center differs from start iff an odd number of moves was made,
                # so both center states must appear with the same leaf count
                centers = {c.has_peg(1) for c in configs}
                assert centers == {True, False}

    def test_blocks_cover_and_are_disjoint(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 6))
            part = equivalence_partition(g)
            all_masks = sorted(m for b in part.blocks for m in b)
            assert all_masks == list(range(1 << g.n))

    def test_block_of_matches_reachable_set(self):
        g = h_graph()
        part = equivalence_partition(g)
        c = config_of("e")
        block = part.block_of(c)
        assert block == frozenset(x.pegs for x in reachable_set(g, c))

    def test_block_of_refuses_another_size(self):
        # mask 5 is a state on 5 vertices too, in path:5's block {5, 23, 25, 30}
        part = equivalence_partition(path_graph(5))
        assert part.block_of(Configuration(5, 5)) == frozenset({5, 23, 25, 30})
        for n in (3, 6):
            with pytest.raises(PreconditionFailed, match="configuration and graph sizes differ"):
                part.block_of(Configuration(n, 5))


class TestSolveFrom:
    def test_star_has_no_solution(self):
        for hole in range(1, 5):
            assert solve_from(star_graph(4), hole) is None

    def test_paw_hole_1(self):
        g = paw_graph()
        res = solve_from(g, 1)
        assert res is not None
        end = replay(g, res.witness)
        assert end.peg_count() == 1
        assert end.peg_vertices()[0] in res.end_pegs

    def test_p6_endpoints(self):
        g = path_graph(6)
        assert solve_from(g, 1) is None
        res = solve_from(g, 2)
        assert res is not None
        assert res.end_pegs == frozenset({2, 5})

    def test_all_witnesses_replay_to_single_peg(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7))
            for hole in g.vertices():
                res = solve_from(g, hole)
                if res is None:
                    continue
                assert res.witness.start == Configuration.with_hole(g.n, hole)
                end = replay(g, res.witness)
                assert end.peg_count() == 1
                assert end.peg_vertices()[0] in res.end_pegs

    def test_peg_count_walk(self, rng):
        g = random_connected_graph(rng, 6)
        res = solve_from(g, 1)
        if res is not None:
            c = res.witness.start
            from revpeg.model import apply_move

            for m in res.witness.moves:
                after = apply_move(c, m, g)
                assert abs(after.peg_count() - c.peg_count()) == 1
                c = after

    def test_disconnected_rejected(self):
        g = Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraph):
            solve_from(g, 1)


class TestClassify:
    def test_star_k15(self):
        assert classify(star_graph(6)).verdict is Verdict.NOT_SOLVABLE

    def test_c8_doubly_free(self):
        assert classify(cycle_graph(8)).verdict is Verdict.DOUBLY_FREELY_SOLVABLE

    def test_c6_matrix(self):
        cls = classify(cycle_graph(6))
        assert cls.verdict is Verdict.FREELY_SOLVABLE
        for h in range(1, 7):
            other = (h - 1 + 3) % 6 + 1
            assert cls.matrix[h] == frozenset({h, other})

    def test_p7_not_solvable(self):
        cls = classify(path_graph(7))
        assert cls.verdict is Verdict.NOT_SOLVABLE
        assert all(not v for v in cls.matrix.values())

    def test_matrix_agrees_with_solve_from(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            cls = classify(g)
            for hole in g.vertices():
                res = solve_from(g, hole)
                got = res.end_pegs if res else frozenset()
                assert cls.matrix[hole] == got

    def test_verdict_matches_matrix_invariants(self, rng):
        full_seen = set()
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6))
            cls = classify(g)
            full = frozenset(g.vertices())
            if cls.verdict is Verdict.NOT_SOLVABLE:
                assert all(not v for v in cls.matrix.values())
            if cls.verdict is Verdict.DOUBLY_FREELY_SOLVABLE:
                assert all(cls.matrix[h] == full for h in cls.matrix)
            if cls.verdict in (Verdict.FREELY_SOLVABLE, Verdict.DOUBLY_FREELY_SOLVABLE):
                assert all(cls.matrix[h] for h in cls.matrix)
            full_seen.add(cls.verdict)

    @pytest.mark.parametrize("g", [
        path_graph(16),
        cycle_graph(16),
        star_graph(16),
        random_connected_graph(random.Random(16), 16, extra=3),
    ], ids=["path", "cycle", "star", "seeded"])
    def test_memory_peak_at_n16(self, g):
        # the per-bit masks and the centre table are cached; warm them so
        # that the trace sees only what one classification holds
        oracle._bit_masks(g.n)
        oracle._centres(g)
        tracemalloc.start()
        try:
            classify(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * (1 << g.n) // 8, f"peak {peak / ((1 << g.n) // 8):.1f} sets"

    def test_rejects_single_vertex(self):
        with pytest.raises(PreconditionFailed):
            classify(Graph(1, []))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            classify(Graph(3, [(1, 2)]))

    def test_connectivity_checked_once_per_graph(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)])
        classify(g)
        misses = is_connected.cache_info().misses
        solve_from(g, 1)
        witness_to(g, 1, 6)
        min_unjumps(g, 1)
        classify(Graph(6, g.sorted_edges()))  # an equal graph shares the entry
        assert is_connected.cache_info().misses == misses


class TestWitnessTo:
    def test_targets_each_end_peg(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 6))
            cls = classify(g)
            for hole in g.vertices():
                for peg in g.vertices():
                    seq = witness_to(g, hole, peg)
                    if peg in cls.matrix[hole]:
                        assert seq is not None
                        assert replay(g, seq).peg_vertices() == (peg,)
                    else:
                        assert seq is None

    @pytest.mark.parametrize("src, dst", [(-1, 1), (1, 99), (16, 1), (1, 16)])
    def test_route_masks_outside_the_state_space_refused(self, src, dst):
        bad = src if not 0 <= src < 16 else dst
        with pytest.raises(PreconditionFailed, match=f"peg mask {bad} is not a state on 4 vertices"):
            shortest_route(path_graph(4), src, dst)

    def test_c6_specific_target(self):
        g = cycle_graph(6)
        seq = witness_to(g, 2, 5)
        assert seq is not None
        assert replay(g, seq).peg_vertices() == (5,)
        assert witness_to(g, 2, 3) is None


def jump_only_solvable(edges, n, hole):
    """Independent jump-only feasibility check (classical peg solitaire)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    start = frozenset(set(range(1, n + 1)) - {hole})
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        if len(s) == 1:
            return True
        for y in adj:
            for x in adj[y]:
                for z in adj[y]:
                    if x != z and x in s and y in s and z not in s:
                        t = s - {x, y} | {z}
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
    return False


class TestMinUnjumps:
    def test_p4_hole2_pure_jumps(self):
        res = min_unjumps(path_graph(4), 2)
        assert res is not None and res.count == 0
        assert jump_only_solvable([(1, 2), (2, 3), (3, 4)], 4, 2)

    def test_star_unsolvable(self):
        for hole in range(1, 5):
            assert min_unjumps(star_graph(4), hole) is None

    def test_frozen_start_is_refused_without_a_search(self, monkeypatch):
        calls = []
        real = oracle._levels
        monkeypatch.setattr(oracle, "_levels", lambda *a: calls.append(a) or real(*a))
        # The star's centre hole leaves no legal move.
        assert min_unjumps(star_graph(14), 1) is None
        assert calls == []
        # path:2 from hole 1 has no legal move either, but is one peg already.
        res = min_unjumps(path_graph(2), 1)
        assert res is not None and res.count == 0 and res.witness.moves == ()
        assert min_unjumps(star_graph(14), 2) is None  # a leaf hole has a move
        assert len(calls) == 2

    @pytest.mark.parametrize("g", [cycle_graph(12), path_graph(14)], ids=["cycle:12", "path:14"])
    def test_every_hole_sweep_shares_one_search(self, monkeypatch, g):
        # A solve's witness has as many moves as its start is levels deep
        # in the search from the single-peg states, and an unreachable
        # start costs one more image: the one that finds the search done.
        calls = []
        real = oracle._image
        monkeypatch.setattr(oracle, "_image", lambda *a: calls.append(a) or real(*a))
        oracle._single_peg_levels.cache_clear()
        results = [min_unjumps(g, hole) for hole in g.vertices()]
        deepest = max(len(res.witness) for res in results if res is not None)
        assert len(calls) <= deepest + results.count(None)

    def test_p3_hole3_witness(self):
        res = min_unjumps(path_graph(3), 3)
        assert res is not None
        assert res.count == 0
        assert [str(m) for m in res.witness.moves] == ["jump(1,2,3)"]

    def test_count_zero_iff_jump_only_solvable(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 6))
            for hole in g.vertices():
                res = min_unjumps(g, hole)
                pure = jump_only_solvable(sorted(g.edges), g.n, hole)
                if pure:
                    assert res is not None and res.count == 0
                elif res is not None:
                    assert res.count > 0

    def test_witness_attains_count_and_replays(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 6))
            for hole in g.vertices():
                res = min_unjumps(g, hole)
                if res is None:
                    continue
                assert res.witness.unjump_count() == res.count
                assert replay(g, res.witness).peg_count() == 1

    def test_agrees_with_solve_from_feasibility(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 6))
            for hole in g.vertices():
                assert (min_unjumps(g, hole) is None) == (solve_from(g, hole) is None)

    def test_optimal_against_reference_dijkstra(self, rng):
        # independent check of minimality: heap Dijkstra over peg-sets with
        # from-scratch move generation, unjumps costing 1
        import heapq

        def reference_min(g, hole):
            adj = {v: set(g.neighbors(v)) for v in g.vertices()}
            start = frozenset(set(g.vertices()) - {hole})
            dist = {start: 0}
            heap = [(0, sorted(start))]
            best = None
            while heap:
                d, pegs_l = heapq.heappop(heap)
                pegs = frozenset(pegs_l)
                if d > dist.get(pegs, 1 << 30):
                    continue
                if len(pegs) == 1:
                    best = d if best is None else min(best, d)
                    continue
                for y in adj:
                    for x in adj[y]:
                        for z in adj[y]:
                            if x == z:
                                continue
                            if x in pegs and y in pegs and z not in pegs:
                                t, cost = (pegs - {x, y}) | {z}, 0
                            elif x not in pegs and y not in pegs and z in pegs:
                                t, cost = (pegs | {x, y}) - {z}, 1
                            else:
                                continue
                            if d + cost < dist.get(t, 1 << 30):
                                dist[t] = d + cost
                                heapq.heappush(heap, (d + cost, sorted(t)))
            singles = [dist.get(frozenset({v})) for v in g.vertices()]
            singles = [s for s in singles if s is not None]
            return min(singles) if singles else None

        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(3, 5))
            for hole in g.vertices():
                res = min_unjumps(g, hole)
                want = reference_min(g, hole)
                assert (res.count if res else None) == want, (g.sorted_edges(), hole)
