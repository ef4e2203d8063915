"""Differential test: the int-mask constructive solver against the one it replaced.

The reference functions below are the earlier constructive solver: the
4-path macro and the within-H walk on validated ``Configuration`` objects,
a BFS from H and a scan for the nearest outside peg on every absorption,
and a spanning tree per solve, built by its own queue loop. They keep the
earlier code apart from names, so ``solve_constructive`` and
``solve_constructive_to`` in ``revpeg.construct`` must reproduce their move
lists exactly, and raise the same exception types where they refuse;
``find_spanning_tree`` must return the same working tree. The reference
routes the lone peg over its own hop table, which lists every 4-path hop
and every H teleport, repeats included. Paths and cycles go to the earlier
line solver of ``test_line_differential``, and a target on them is refused
when the closed form puts it outside the hole's end set; only solver
graphs face the doubly-free gate.

The general solver's moves come from caches shared by every witness
(``_macro_moves``, ``_h_walk``), so the comparison also runs where those
caches pay off: from every hole of the freely but not doubly freely
solvable subdivided graphs with n = 54-63 that the construct-64 benchmark
solves, built here the way ``perfbench/workloads.py`` builds them, with the
public step functions compared one step at a time.

``PYTHONPATH=src python tests/test_construct_differential.py N`` runs the
check from every hole of every labeled connected graph on N vertices, and
for every (hole, target) pair of the doubly freely solvable ones.
"""

import heapq
import random
import sys
from collections import deque

import pytest

from conftest import random_connected_graph, relabeled
from test_line_differential import ref_line_solver_witness
from revpeg.census import labeled_connected_graphs
import revpeg.construct as construct
from revpeg.construct import (
    _lone_peg_hops,
    _solve_paw_four,
    HEmbedding,
    WorkingTree,
    absorb_nearest_peg,
    find_h_embedding,
    find_spanning_tree,
    p4_move,
    shift_hole_onto_h,
    solve_constructive,
    solve_constructive_to,
    transform_within_h,
)
from revpeg.errors import (
    InvariantViolation,
    NotDoublyFree,
    PatternMismatch,
    PreconditionFailed,
)
from revpeg.families import is_star_shape
from revpeg.hclasses import HClass, h_class_of, h_route
from revpeg.invariants import closed_form, doubly_free_predicate
from revpeg.model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    apply_move,
    is_connected,
)

# ---------------------------------------------------------------------------
# Reference solver
# ---------------------------------------------------------------------------

REF_ABSORB = {
    ("a", HClass.A): {1: ("b", "acd"), 2: ("b", "ac"), 3: ("b", "a")},
    ("a", HClass.B): {1: ("de", "acb"), 2: ("de", "ac"), 3: ("de", "a")},
    ("b", HClass.A): {1: ("a", "bcd"), 2: ("a", "bc"), 3: ("a", "b")},
    ("b", HClass.B): {1: ("de", "bca"), 2: ("de", "bc"), 3: ("de", "b")},
    ("c", HClass.A): {1: ("b", "cde"), 2: ("b", "cd"), 3: ("b", "c")},
    ("c", HClass.B): {1: ("ab", "cde"), 2: ("be", "ca"), 3: ("ab", "c")},
    ("d", HClass.A): {1: ("b", "dca"), 2: ("b", "dc"), 3: ("b", "d")},
    ("d", HClass.B): {1: ("be", "dca"), 2: ("be", "dc"), 3: ("be", "d")},
    ("e", HClass.A): {1: ("b", "edc"), 2: ("b", "ed"), 3: ("b", "e")},
    ("e", HClass.B): {1: ("ab", "edc"), 2: ("c", "ed"), 3: ("ab", "e")},
}

REF_HOLE_ENTRY = {
    ("a", 1): "acd",
    ("a", 2): "ac",
    ("b", 1): "bcd",
    ("b", 2): "bc",
    ("c", 1): "cde",
    ("c", 2): "ca",
    ("d", 1): "dca",
    ("d", 2): "dc",
    ("e", 1): "edc",
    ("e", 2): "ed",
}


def ref_p4_move(g, c, path):
    v0, v1, v2, v3 = path
    if len({v0, v1, v2, v3}) != 4:
        raise PatternMismatch(f"path {path} repeats a vertex")
    for u, w in ((v0, v1), (v1, v2), (v2, v3)):
        if not g.has_edge(u, w):
            raise PatternMismatch(f"{u}-{w} is not an edge; {path} is not a 4-path")
    states = tuple(c.has_peg(v) for v in path)
    if states == (True, False, False, False):
        moves = (Move(UNJUMP, v2, v1, v0), Move(JUMP, v1, v2, v3))
    elif states == (False, True, True, True):
        moves = (Move(JUMP, v2, v1, v0), Move(UNJUMP, v1, v2, v3))
    else:
        raise PatternMismatch(f"path {path} holds pegs {states}")
    out = apply_move(apply_move(c, moves[0], g), moves[1], g)
    return out, moves


def ref_transform_within_h(emb, c, target_pegs):
    target = frozenset(target_pegs)
    if target - set(emb.vertices):
        raise PreconditionFailed("target pegs outside H")
    src = emb.mask_of(c)
    dst = 0
    for i, v in enumerate(emb.vertices):
        if v in target:
            dst |= 1 << i
    moves = tuple(
        Move(m.kind, emb.vertices[m.x - 1], emb.vertices[m.y - 1], emb.vertices[m.z - 1])
        for m in h_route(src, dst)
    )
    out = c
    for m in moves:
        out = apply_move(out, m)
    return out, MoveSequence(c, moves)


def ref_find_spanning_tree(g):
    if not is_connected(g):
        raise PreconditionFailed("graph must be connected")
    if g.n < 5:
        raise PreconditionFailed("spanning-tree routine needs n >= 5")
    if is_star_shape(g):
        raise PreconditionFailed("stars have no working tree")
    if g.max_degree() < 3:
        raise PreconditionFailed("need a vertex of degree >= 3")
    root = min(v for v in g.vertices() if g.degree(v) >= 3)
    parent = {root: 0}
    order = deque((root,))
    edges = set()
    while order:
        u = order.popleft()
        for w in g.adj[u]:
            if w not in parent:
                parent[w] = u
                edges.add((min(u, w), max(u, w)))
                order.append(w)
    if len(edges) == g.n - 1 and all(root in e for e in edges):
        u, v = min(e for e in g.sorted_edges() if root not in e)
        edges.remove((min(root, u), max(root, u)))
        edges.add((u, v))
    tree = Graph(g.n, sorted(edges))
    if tree.degree(root) < 3 or is_star_shape(tree):
        raise InvariantViolation("working tree construction failed")
    return WorkingTree(tree, root)


def ref_bfs_to_h(tree, emb):
    dist = [-1] * (tree.n + 1)
    toward = [0] * (tree.n + 1)
    attach = [0] * (tree.n + 1)
    queue = deque()
    for v in emb.vertices:
        dist[v] = 0
        attach[v] = v
        queue.append(v)
    h_set = set(emb.vertices)
    while queue:
        u = queue.popleft()
        for w in tree.adj[u]:
            if dist[w] == -1 and w not in h_set:
                dist[w] = dist[u] + 1
                toward[w] = u
                attach[w] = attach[u]
                queue.append(w)
    return dist, toward, attach


def ref_path_toward_h(toward, v, steps):
    out = [v]
    for _ in range(steps):
        v = toward[v]
        out.append(v)
    return out


def ref_shift_hole_onto_h(t, emb, c):
    holes = c.hole_vertices()
    if len(holes) != 1:
        raise PreconditionFailed("expected exactly one hole")
    hole = holes[0]
    if hole in emb.vertices:
        return c, MoveSequence(c, ())
    tree = t.tree
    dist, toward, attach = ref_bfs_to_h(tree, emb)
    moves = []
    cur = c
    k = dist[hole]
    w = attach[hole]
    while k >= 3:
        path = tuple(ref_path_toward_h(toward, hole, 3))
        cur, pair = ref_p4_move(tree, cur, path)
        moves += pair
        hole = path[3]
        k -= 3
    if k:
        prefix = ref_path_toward_h(toward, hole, k - 1)
        suffix = [emb.vertex(ch) for ch in REF_HOLE_ENTRY[(emb.letter(w), k)]]
        cur, pair = ref_p4_move(tree, cur, tuple(prefix + suffix))
        moves += pair
    if all(v not in emb.vertices for v in cur.hole_vertices()):
        raise InvariantViolation("hole failed to land on H")
    return cur, MoveSequence(c, tuple(moves))


def ref_absorb_nearest_peg(t, emb, c):
    h_set = set(emb.vertices)
    before_class = h_class_of(emb.mask_of(c))
    if before_class not in (HClass.A, HClass.B):
        raise PreconditionFailed(f"H restriction is {before_class.value}, need A or B")
    outside = [v for v in c.peg_vertices() if v not in h_set]
    if not outside:
        raise PreconditionFailed("no pegs outside H")
    tree = t.tree
    dist, toward, attach = ref_bfs_to_h(tree, emb)
    peg = min(outside, key=lambda v: (dist[v], v))
    for v in ref_path_toward_h(toward, peg, dist[peg] - 1)[1:]:
        if c.has_peg(v):
            raise PreconditionFailed("a closer peg sits between the chosen peg and H")
    moves = []
    cur = c
    k = dist[peg]
    while k > 3:
        path = tuple(ref_path_toward_h(toward, peg, 3))
        cur, pair = ref_p4_move(tree, cur, path)
        moves += pair
        peg = path[3]
        k -= 3
    w_letter = emb.letter(attach[peg])
    stage, entry = REF_ABSORB[(w_letter, h_class_of(emb.mask_of(cur)))][k]
    cur, staging = ref_transform_within_h(emb, cur, {emb.vertex(ch) for ch in stage})
    moves += staging.moves
    prefix = ref_path_toward_h(toward, peg, k - 1)
    cur, pair = ref_p4_move(tree, cur, tuple(prefix + [emb.vertex(ch) for ch in entry]))
    moves += pair
    if h_class_of(emb.mask_of(cur)) not in (HClass.A, HClass.B):
        raise InvariantViolation("absorption left H outside classes A and B")
    if sum(1 for v in cur.peg_vertices() if v not in h_set) != len(outside) - 1:
        raise InvariantViolation("absorption did not remove exactly one outside peg")
    return cur, MoveSequence(c, tuple(moves))


def ref_solve_constructive(g, hole):
    if not is_connected(g):
        raise PreconditionFailed("graph must be connected")
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    if is_star_shape(g) and g.n >= 4:
        raise PreconditionFailed("stars are not solvable")
    if g.max_degree() < 3:
        return ref_line_solver_witness(g, hole)
    if g.n == 4:
        return _solve_paw_four(g, hole)
    t = ref_find_spanning_tree(g)
    emb = find_h_embedding(t)
    start = Configuration.with_hole(g.n, hole)
    moves = []
    cur, seq = ref_shift_hole_onto_h(t, emb, start)
    moves += seq.moves
    h_set = set(emb.vertices)
    while any(v not in h_set for v in cur.peg_vertices()):
        cur, seq = ref_absorb_nearest_peg(t, emb, cur)
        moves += seq.moves
    rep = "a" if h_class_of(emb.mask_of(cur)) is HClass.A else "c"
    cur, seq = ref_transform_within_h(emb, cur, {emb.vertex(rep)})
    moves += seq.moves
    if cur.peg_count() != 1:
        raise InvariantViolation("constructive solve did not end at one peg")
    return MoveSequence(start, tuple(moves))


def ref_lone_peg_hops(g):
    hops = [[] for _ in range(g.n + 1)]
    for u in g.vertices():
        for p1 in g.adj[u]:
            for p2 in g.adj[p1]:
                if p2 == u:
                    continue
                for w in g.adj[p2]:
                    if w not in (u, p1):
                        hops[u].append((w, ("p4", (u, p1, p2, w))))
    for c0 in g.vertices():
        if g.degree(c0) < 3:
            continue
        for d0 in g.adj[c0]:
            for e0 in g.adj[d0]:
                if e0 == c0:
                    continue
                rest = [x for x in g.adj[c0] if x not in (d0, e0)]
                if len(rest) < 2:
                    continue
                embs = [HEmbedding(rest[0], rest[1], c0, d0, e0)]
                embs += [HEmbedding(rest[0], x, c0, d0, e0) for x in rest[2:]]
                for emb in embs:
                    singles = (emb.a, emb.b, emb.d, emb.e)
                    for u in singles:
                        for w in singles:
                            if u != w:
                                hops[u].append((w, ("h", emb, w)))
    return hops


def ref_solve_constructive_to(g, hole, target):
    if not 1 <= target <= g.n:
        raise PreconditionFailed(f"target {target} outside 1..{g.n}")
    solver = is_connected(g) and g.max_degree() >= 3 and not is_star_shape(g)
    if solver and not doubly_free_predicate(g):
        raise NotDoublyFree("not doubly free")
    seq = ref_solve_constructive(g, hole)
    if not solver:
        shape, closed = closed_form(g)
        if target not in closed.matrix[hole]:
            raise NotDoublyFree(f"{shape} target outside the end set")
    cur = seq.start
    for m in seq.moves:
        cur = apply_move(cur, m)
    peg = cur.peg_vertices()[0]
    if peg == target:
        return seq
    hops = ref_lone_peg_hops(g)
    parent = {peg: None}
    queue = deque((peg,))
    while queue and target not in parent:
        u = queue.popleft()
        for w, label in hops[u]:
            if w not in parent:
                parent[w] = (u, label)
                queue.append(w)
    if target not in parent:
        raise InvariantViolation("lone-peg routing failed")
    chain = []
    v = target
    while v != peg:
        u, label = parent[v]
        chain.append(label)
        v = u
    chain.reverse()
    moves = list(seq.moves)
    for label in chain:
        if label[0] == "p4":
            cur, pair = ref_p4_move(g, cur, label[1])
            moves += pair
        else:
            _, emb, w = label
            cur, sub = ref_transform_within_h(emb, cur, {w})
            moves += sub.moves
    if cur.peg_vertices() != (target,):
        raise InvariantViolation("routing did not end on the requested target")
    return MoveSequence(seq.start, tuple(moves))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """The move sequence fn returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the refusal type is what gets compared
        return type(exc)


def assert_solvers_agree(g, holes=None, targets=()):
    """Compare the working tree, solve_constructive from every hole in
    `holes` (default: all), and solve_constructive_to for each (hole,
    target) pair in `targets`."""
    assert outcome(find_spanning_tree, g) == outcome(ref_find_spanning_tree, g)
    for hole in holes or g.vertices():
        assert outcome(solve_constructive, g, hole) == outcome(ref_solve_constructive, g, hole)
    for hole, target in targets:
        assert outcome(solve_constructive_to, g, hole, target) == outcome(
            ref_solve_constructive_to, g, hole, target
        )


def doubly_free_graph(rng, n):
    """Tree of maximum degree 3 plus two leaf-to-leaf chords, redrawn until
    two vertices of degree >= 3 are adjacent (so the graph is doubly
    freely solvable)."""
    while True:
        deg = [0] * (n + 1)
        edges = set()
        for v in range(2, n + 1):
            u = rng.choice([w for w in range(1, v) if deg[w] < 3])
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
        leaves = [v for v in range(1, n + 1) if deg[v] == 1]
        rng.shuffle(leaves)
        for u, v in zip(leaves[0:4:2], leaves[1:4:2]):
            if (min(u, v), max(u, v)) not in edges:
                edges.add((min(u, v), max(u, v)))
                deg[u] += 1
                deg[v] += 1
        if any(deg[u] >= 3 and deg[v] >= 3 for u, v in edges):
            return Graph(n, sorted(edges))


def seeded_targets(rng, n, count):
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(count)]


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def dense_graph(rng, n, p):
    """A seeded G(n, p) draw, redrawn until connected."""
    while True:
        g = Graph(n, [e for e in complete_graph(n).sorted_edges() if rng.random() < p])
        if is_connected(g):
            return g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_labeled_graphs(n):
    for g in labeled_connected_graphs(n):
        assert_solvers_agree(g)


def test_seeded_n6():
    rng = random.Random(6060)
    for _ in range(300):
        g = random_connected_graph(rng, 6, extra=rng.randint(0, 6))
        assert_solvers_agree(g, targets=seeded_targets(rng, 6, 3))


@pytest.mark.parametrize("n", list(range(7, 15)) + [64])
def test_seeded_doubly_free(n):
    rng = random.Random(7000 + n)
    g = doubly_free_graph(rng, n)
    assert_solvers_agree(g, targets=seeded_targets(rng, n, 6))


@pytest.mark.parametrize("n", range(5, 10))
def test_complete_graphs(n):
    # Dense graphs give each vertex many hops to the same target, so the
    # routed witness depends on which hop the table keeps.
    rng = random.Random(9000 + n)
    assert_solvers_agree(complete_graph(n), targets=seeded_targets(rng, n, 8))


@pytest.mark.parametrize("n", range(8, 15))
def test_seeded_dense_graphs(n):
    rng = random.Random(8000 + n)
    for p in (0.6, 0.8):
        g = dense_graph(rng, n, p)
        assert_solvers_agree(g, targets=seeded_targets(rng, n, 6))


def test_seeded_graphs_with_long_tails():
    # Sparse random trees reach far from H, so the hole shift and the
    # absorption march in threes before the entry macro.
    rng = random.Random(1414)
    for n in (10, 13, 16, 20):
        g = random_connected_graph(rng, n, extra=1)
        assert_solvers_agree(g, targets=seeded_targets(rng, n, 4))


def subcubic_tree(rng, k):
    """A uniform random labeled tree on k vertices with (k - 2) // 2
    vertices of degree 3, (k - 2) // 2 + 2 leaves and the rest of degree 2,
    decoded from a shuffled Pruefer sequence."""
    branch = (k - 2) // 2
    degrees = [3] * branch + [1] * (branch + 2) + [2] * (k - 2 * branch - 2)
    rng.shuffle(degrees)
    deg = [0] + degrees
    seq = [v for v in range(1, k + 1) for _ in range(deg[v] - 1)]
    rng.shuffle(seq)
    leaves = [v for v in range(1, k + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def subdivided_benchmark_graph(rng, k):
    """The subcubic tree plus one chord between two leaves, every edge
    replaced by a 3-edge path: n = 3k, every path between branch vertices
    and the one cycle of length divisible by 3."""
    base = subcubic_tree(rng, k)
    deg = [0] * (k + 1)
    for u, v in base:
        deg[u] += 1
        deg[v] += 1
    leaves = [v for v in range(1, k + 1) if deg[v] == 1]
    present = set(base)
    base.append(rng.choice([(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
                            if (a, b) not in present]))
    edges = []
    nxt = k + 1
    for u, v in base:
        edges += [(min(u, nxt), max(u, nxt)), (nxt, nxt + 1), (min(v, nxt + 1), max(v, nxt + 1))]
        nxt += 2
    return Graph(nxt - 1, edges)


@pytest.mark.parametrize("k", [18, 19, 20, 21])
def test_seeded_subdivided_graphs_every_hole(k):
    rng = random.Random(6400 + k)
    g = subdivided_benchmark_graph(rng, k)
    assert g.n == 3 * k and g.max_degree() == 3 and not doubly_free_predicate(g)
    assert_solvers_agree(g, targets=seeded_targets(rng, g.n, 2))


def assert_steps_agree(g, hole):
    """Walk one solve with the public step functions and the reference ones
    side by side: the hole shift, every absorption and the last within-H
    walk must return the same configuration and moves."""
    t = find_spanning_tree(g)
    emb = find_h_embedding(t)
    c = Configuration.with_hole(g.n, hole)
    step = shift_hole_onto_h(t, emb, c)
    assert step == ref_shift_hole_onto_h(t, emb, c)
    c = step[0]
    while any(v not in emb.vertices for v in c.peg_vertices()):
        step = absorb_nearest_peg(t, emb, c)
        assert step == ref_absorb_nearest_peg(t, emb, c)
        c = step[0]
    rep = {emb.a if h_class_of(emb.mask_of(c)) is HClass.A else emb.c}
    assert transform_within_h(emb, c, rep) == ref_transform_within_h(emb, c, rep)


def four_paths(g):
    return [(u, p1, p2, w) for u in g.vertices() for p1 in g.adj[u] for p2 in g.adj[p1]
            if p2 != u for w in g.adj[p2] if w not in (u, p1)]


@pytest.mark.parametrize("k", [18, 21])
def test_step_functions_return_the_reference_moves(k):
    rng = random.Random(6400 + k)
    g = subdivided_benchmark_graph(rng, k)
    for hole in rng.sample(range(1, g.n + 1), 8):
        assert_steps_agree(g, hole)
    # Each 4-path in both cases, twice (the second call plays the shared
    # moves), and with a pattern that matches neither case.
    full = (1 << g.n) - 1
    for path in rng.sample(four_paths(g), 60):
        bits = [1 << (v - 1) for v in path]
        for pegs in (bits[0], full ^ bits[0], full, bits[0] | bits[3], 0):
            c = Configuration(g.n, pegs)
            for _ in range(2):
                assert outcome(p4_move, g, c, path) == outcome(ref_p4_move, g, c, path)


def first_hops(g):
    """The reference hop list reduced to the first hop from each u to each w,
    in first-occurrence order."""
    out = [{} for _ in range(g.n + 1)]
    for u, row in enumerate(ref_lone_peg_hops(g)):
        for w, label in row:
            out[u].setdefault(w, label)
    return out


@pytest.mark.parametrize("n", range(6, 13))
def test_complete_graph_hop_table_builds_no_embedding(n, monkeypatch):
    # On K_n every row is full after the 4-path scan, so the teleport scan
    # stops before it builds a single HEmbedding.
    g = complete_graph(n)
    built = []

    def counting(*args):
        built.append(args)
        return HEmbedding(*args)

    monkeypatch.setattr(construct, "HEmbedding", counting)
    hops = _lone_peg_hops.__wrapped__(g)
    assert built == []
    assert [list(row.items()) for row in hops] == [list(row.items()) for row in first_hops(g)]


@pytest.mark.parametrize("n", range(7, 15))
def test_hop_table_keeps_the_first_hops(n):
    rng = random.Random(7700 + n)
    for g in (doubly_free_graph(rng, n), dense_graph(rng, n, 0.4)):
        hops = _lone_peg_hops.__wrapped__(g)
        assert [list(row.items()) for row in hops] == [list(r.items()) for r in first_hops(g)]


def test_seeded_relabeled_spanning_trees():
    rng = random.Random(5151)
    for n in range(1, 65):
        g = relabeled(rng, random_connected_graph(rng, n, extra=rng.randint(0, 3)))
        assert outcome(find_spanning_tree, g) == outcome(ref_find_spanning_tree, g)


if __name__ == "__main__":
    n = int(sys.argv[1])
    count = free = 0
    for graph in labeled_connected_graphs(n):
        pairs = ()
        solver_shape = graph.max_degree() >= 3 and not is_star_shape(graph)
        if solver_shape and doubly_free_predicate(graph):
            pairs = [(h, t) for h in graph.vertices() for t in graph.vertices()]
            free += 1
        assert_solvers_agree(graph, targets=pairs)
        count += 1
    print(f"n={n}: solvers agree from every hole of all {count} labeled connected "
          f"graphs, and on every (hole, target) pair of the {free} doubly free ones")
