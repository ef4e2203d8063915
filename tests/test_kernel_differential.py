"""Differential test: the shared search kernel against the kernels it replaced.

The reference functions below are the earlier, separately written searches:
the parent-pointer BFS with its rebuild, the class-sweep BFS, the 0/1-cost
deque search of min_unjumps, the per-state move generator, the
hand-written within-H route search, the union of set-BFS levels that gave
reachable sets before the closure sweeps, the set-BFS levels that took
out every state seen, and the full-width image of a state set from
per-bit slices that ``_image`` used before it shared ``_flips`` with
``_closure`` and before it moved each level at half width, on the states
of one peg-count parity. They keep the earlier code apart from names, so
the kernels in ``revpeg.oracle`` must reproduce their images, end sets,
levels, witnesses, unjump counts, end pegs, partitions, classifications
and routes exactly; half-width sets are translated to full width by
``conftest.from_half`` first. The level references use ``ref_image``, so
the closure is never checked against the kernel it runs on.

Every oracle witness follows one rule, ``min_unjumps``'s included: a FIFO
search over single states from the start, scanning triples in order and
keeping each state's first discoverer, rebuilt by parent pointers from the
first target state it dequeues. ``ref_witness_bfs`` and ``ref_rebuild``
give it for one target and ``ref_single_peg_witness`` for the set of
single-peg states; the deque search of ``ref_min_unjumps`` fixes the count.

``PYTHONPATH=src python tests/test_kernel_differential.py N`` runs the
check, the image check on seeded state sets included, over every labeled
connected graph on N vertices.
"""

import random
import sys
from array import array
from collections import deque

import pytest

from conftest import from_half, random_connected_graph, to_half
from revpeg.census import labeled_connected_graphs
from revpeg.errors import NotSameClass
from revpeg.families import cycle_graph, h_graph, path_graph, star_graph
from revpeg.hclasses import h_route
from revpeg.model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    legal_moves,
    replay,
)
from revpeg.oracle import (
    Classification,
    Verdict,
    _bit_masks,
    _centres,
    _closure,
    _image,
    _levels,
    _members,
    classify,
    equivalence_partition,
    min_unjumps,
    reachable_set,
    shortest_route,
    solve_from,
    witness_to,
)

# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------


def ref_directed_triples(g):
    out = []
    for y in g.vertices():
        nb = g.adj[y]
        for x in nb:
            for z in nb:
                if z == x:
                    continue
                bx, by, bz = 1 << (x - 1), 1 << (y - 1), 1 << (z - 1)
                out.append((bx | by | bz, bx, by, bz))
    return tuple(out)


def ref_triple_moves(g):
    out = []
    for y in g.vertices():
        nb = g.adj[y]
        for x in nb:
            for z in nb:
                if z != x:
                    out.append((x, y, z))
    return tuple(out)


def ref_legal_moves(g, c):
    pegs = c.pegs
    out = []
    for y in g.vertices():
        nb = g.adj[y]
        py = pegs >> (y - 1) & 1
        for x in nb:
            px = pegs >> (x - 1) & 1
            for z in nb:
                if z == x:
                    continue
                pz = pegs >> (z - 1) & 1
                if px and py and not pz:
                    out.append(Move(JUMP, x, y, z))
                elif not px and not py and pz:
                    out.append(Move(UNJUMP, x, y, z))
    return out


def ref_explore(start, triples, visited):
    visited[start] = 1
    queue = deque((start,))
    members = [start]
    push = queue.append
    while queue:
        s = queue.popleft()
        for mask, bx, by, bz in triples:
            if s & bx:
                if not (s & by) or (s & bz):
                    continue
            elif (s & by) or not (s & bz):
                continue
            t = s ^ mask
            if not visited[t]:
                visited[t] = 1
                members.append(t)
                push(t)
    return members


def ref_partition(g):
    triples = ref_directed_triples(g)
    visited = bytearray(1 << g.n)
    blocks = []
    for s in range(1 << g.n):
        if not visited[s]:
            blocks.append(frozenset(ref_explore(s, triples, visited)))
    return tuple(blocks)


def ref_witness_bfs(g, start):
    triples = ref_directed_triples(g)
    size = 1 << g.n
    visited = bytearray(size)
    parent_state = array("q", [-1]) * size
    parent_triple = array("i", [-1]) * size
    visited[start] = 1
    queue = deque((start,))
    while queue:
        s = queue.popleft()
        for idx, (mask, bx, by, bz) in enumerate(triples):
            if s & bx:
                if not (s & by) or (s & bz):
                    continue
            elif (s & by) or not (s & bz):
                continue
            t = s ^ mask
            if not visited[t]:
                visited[t] = 1
                parent_state[t] = s
                parent_triple[t] = idx
                queue.append(t)
    return visited, parent_state, parent_triple


def ref_rebuild(g, start, target, parent_state, parent_triple):
    moves_xyz = ref_triple_moves(g)
    chain = []
    t = target
    while t != start:
        s = parent_state[t]
        x, y, z = moves_xyz[parent_triple[t]]
        kind = JUMP if s >> (x - 1) & 1 else UNJUMP
        chain.append(Move(kind, x, y, z))
        t = s
    chain.reverse()
    return MoveSequence(Configuration(g.n, start), tuple(chain))


def ref_min_unjumps(g, hole):
    """(count, witness) or None."""
    triples = ref_directed_triples(g)
    size = 1 << g.n
    INF = size + 1
    dist = array("i", [INF]) * size
    parent_state = array("q", [-1]) * size
    parent_triple = array("i", [-1]) * size
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    dist[start] = 0
    dq = deque(((0, start),))
    while dq:
        d, s = dq.popleft()
        if d > dist[s]:
            continue
        for idx, (mask, bx, by, bz) in enumerate(triples):
            if s & bx:
                if not (s & by) or (s & bz):
                    continue
                cost = 0
            elif (s & by) or not (s & bz):
                continue
            else:
                cost = 1
            t = s ^ mask
            nd = d + cost
            if nd < dist[t]:
                dist[t] = nd
                parent_state[t] = s
                parent_triple[t] = idx
                if cost:
                    dq.append((nd, t))
                else:
                    dq.appendleft((nd, t))
    best = None
    for v in range(1, g.n + 1):
        mask = 1 << (v - 1)
        if dist[mask] < INF and (best is None or dist[mask] < dist[best]):
            best = mask
    if best is None:
        return None
    return dist[best], ref_rebuild(g, start, best, parent_state, parent_triple)


def ref_single_peg_witness(g, hole):
    """The min_unjumps witness by the one witness rule: a FIFO search from
    the start, scanning triples in order and keeping each state's first
    discoverer, stops at the first single-peg state it dequeues, and the
    witness is rebuilt by parent pointers."""
    triples = ref_directed_triples(g)
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    parent_state = {start: -1}
    parent_triple = {}
    queue = deque((start,))
    while queue:
        s = queue.popleft()
        if s and not s & (s - 1):
            return ref_rebuild(g, start, s, parent_state, parent_triple)
        for idx, (mask, bx, by, bz) in enumerate(triples):
            if s & bx:
                if not (s & by) or (s & bz):
                    continue
            elif (s & by) or not (s & bz):
                continue
            t = s ^ mask
            if t not in parent_state:
                parent_state[t] = s
                parent_triple[t] = idx
                queue.append(t)
    return None


def ref_image(states, g):
    """The states one legal move away from some state in `states`, from the
    per-bit slices on[b] of the set."""
    masks = _bit_masks(g.n)
    on = [states & m for m in masks]  # on[b]: the states with bit b set
    image = 0
    for y, y_shift, pairs, _, _ in _centres(g):
        flipped = 0  # the movable states with bits x and z flipped
        for x, z, shift in pairs:
            both = on[x] & masks[z]
            flipped |= (on[x] ^ both) << shift | (on[z] ^ both) >> shift
        up = flipped & masks[y]  # a peg on y: the move is a jump
        image |= up >> y_shift | (flipped ^ up) << y_shift
    return image


def ref_level_closure(g, start):
    """The states reachable from `start`: the union of the set-BFS levels."""
    levels = [1 << start]
    seen = levels[0]
    while True:
        frontier = ref_image(levels[-1], g) & ~seen
        if not frontier:
            break
        seen |= frontier
        levels.append(frontier)
    return seen


def ref_levels(g, sources, targets):
    """The set-BFS levels from the set of states `sources` up to the first
    that meets `targets`, each the image of the last less every state seen."""
    levels = [sources]
    seen = levels[0]
    while not levels[-1] & targets:
        frontier = ref_image(levels[-1], g) & ~seen
        if not frontier:
            break
        seen |= frontier
        levels.append(frontier)
    return levels


def ref_classification(g, blocks):
    """Each hole's row holds the single pegs of its start's block; the
    verdict is read off the matrix."""
    full = (1 << g.n) - 1
    matrix = {}
    for h in g.vertices():
        block = next(b for b in blocks if full ^ (1 << (h - 1)) in b)
        matrix[h] = frozenset(v for v in g.vertices() if 1 << (v - 1) in block)
    rows = matrix.values()
    if not any(rows):
        verdict = Verdict.NOT_SOLVABLE
    elif all(row == frozenset(g.vertices()) for row in rows):
        verdict = Verdict.DOUBLY_FREELY_SOLVABLE
    elif all(rows):
        verdict = Verdict.FREELY_SOLVABLE
    else:
        verdict = Verdict.SOLVABLE
    return Classification(verdict, matrix)


def ref_h_route(src, dst):
    """Early-exit BFS over within-H moves; None when dst is unreachable."""
    if src == dst:
        return ()
    g = h_graph()
    parent = {src: None}
    queue = deque((src,))
    while queue:
        s = queue.popleft()
        c = Configuration(5, s)
        for m in ref_legal_moves(g, c):
            t = s ^ m.mask()
            if t not in parent:
                parent[t] = (s, m)
                if t == dst:
                    queue.clear()
                    break
                queue.append(t)
    if dst not in parent:
        return None
    chain = []
    t = dst
    while t != src:
        s, m = parent[t]
        chain.append(m)
        t = s
    chain.reverse()
    return tuple(chain)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def assert_kernels_agree(g: Graph, holes=None, pegs=None, rng=None):
    """Compare every oracle search on g with the reference kernels.

    `holes` and `pegs` limit the starts and witness targets (default: all).
    """
    blocks = ref_partition(g)
    assert equivalence_partition(g).blocks == blocks
    assert classify(g) == ref_classification(g, blocks)
    for b in blocks:
        c = Configuration(g.n, min(b))
        assert reachable_set(g, c) == frozenset(Configuration(g.n, m) for m in b)
    rng = rng or random.Random(g.n)
    for _ in range(20):
        c = Configuration(g.n, rng.randrange(1 << g.n))
        assert legal_moves(g, c) == ref_legal_moves(g, c)
    # routes between arbitrary masks, reachable or not, drawn from their own
    # generator so that the caller's rng draws stay as they were
    pairs = random.Random(repr((g.n, g.sorted_edges())))
    for _ in range(3):
        src = pairs.randrange(1 << g.n)
        visited, parent_state, parent_triple = ref_witness_bfs(g, src)
        reached = [t for t in range(1 << g.n) if visited[t]]
        for dst in (pairs.randrange(1 << g.n), pairs.choice(reached)):
            want = (ref_rebuild(g, src, dst, parent_state, parent_triple)
                    if visited[dst] else None)
            assert shortest_route(g, src, dst) == want
    full = (1 << g.n) - 1
    for hole in holes or g.vertices():
        start = full ^ (1 << (hole - 1))
        parity = start.bit_count() % 2
        shared = [to_half(1 << start, parity)]
        every_level = ref_levels(g, 1 << start, 0)
        # state 0 has no peg, so no move reaches it: its search runs dry
        for target in [1 << (v - 1) for v in g.vertices()] + [0]:
            levels = [to_half(1 << start, parity)]
            depth = _levels(g, levels, parity, target)
            # ref_levels(g, 1 << start, 1 << target), cut from the whole search
            want = next((every_level[: k + 1] for k, level in enumerate(every_level)
                         if level >> target & 1), every_level)
            found = want[-1] >> target & 1
            # a search that ran dry keeps an empty last level
            assert [from_half(level, parity ^ k % 2) for k, level in enumerate(levels)] == (
                want if found else want + [0])
            assert depth == (len(want) - 1 if found else None)
            assert _levels(g, shared, parity, target) == depth
        visited, parent_state, parent_triple = ref_witness_bfs(g, start)
        ends = frozenset(v for v in g.vertices() if visited[1 << (v - 1)])
        res = solve_from(g, hole)
        if not ends:
            assert res is None
        else:
            assert res.end_pegs == ends
            want = ref_rebuild(g, start, 1 << (min(ends) - 1), parent_state, parent_triple)
            assert res.witness == want
        lengths = []  # of the witnesses to each reachable peg
        for peg in pegs or g.vertices():
            target = 1 << (peg - 1)
            want = (ref_rebuild(g, start, target, parent_state, parent_triple)
                    if visited[target] else None)
            assert witness_to(g, hole, peg) == want
            if want is not None:
                lengths.append(len(want))
        ref = ref_min_unjumps(g, hole)
        got = min_unjumps(g, hole)
        if ref is None:
            assert got is None
        else:
            count = ref[0]
            assert got.count == count
            assert got.witness == ref_single_peg_witness(g, hole)
            (final,) = replay(g, got.witness).peg_vertices()
            assert final in ends
            assert got.witness == witness_to(g, hole, final)
            # a solve with u unjumps has n - 2 + 2u moves, so the fewest
            # unjumps are the fewest moves to any single peg
            assert len(got.witness) == g.n - 2 + 2 * count
            if pegs is None:
                assert len(got.witness) == min(lengths)


@pytest.mark.parametrize("hole", [2, 5])  # the holes of path:6 that solve
def test_levels_from_the_single_peg_states(hole):
    # a search that reaches its start: each level holds only new states, so
    # level k shares none with level k - 2, and the levels are the reference's
    g = path_graph(6)
    singles = sum(1 << (1 << (v - 1)) for v in g.vertices())
    start = 0b111111 ^ (1 << (hole - 1))
    levels = [to_half(singles, 1)]
    depth = _levels(g, levels, 1, start)
    assert depth >= 4  # a one-hole start on six vertices is four moves from one peg
    full = [from_half(level, 1 ^ k % 2) for k, level in enumerate(levels)]
    assert full == ref_levels(g, singles, 1 << start)
    assert all(not levels[k] & levels[k - 2] for k in range(2, len(levels)))


def test_legal_moves_h():
    g = h_graph()
    for mask in range(32):
        c = Configuration(5, mask)
        assert legal_moves(g, c) == ref_legal_moves(g, c)


def test_h_routes_all_pairs():
    routed = 0
    for src in range(32):
        for dst in range(32):
            want = ref_h_route(src, dst)
            if want is None:
                with pytest.raises(NotSameClass):
                    h_route(src, dst)
            else:
                assert h_route(src, dst) == want
                routed += 1
    # two 14-state classes give 2 * 14 * 14 pairs; the four frozen states
    # only route to themselves
    assert routed == 2 * 14 * 14 + 4


@pytest.mark.parametrize("family", [path_graph, cycle_graph, star_graph],
                         ids=["path", "cycle", "star"])
@pytest.mark.parametrize("n", range(15, 19))
def test_closure_matches_level_union(family, n):
    g = family(n)
    full = (1 << n) - 1
    for hole in g.vertices():
        start = full ^ (1 << (hole - 1))
        assert _closure(g, start) == ref_level_closure(g, start), hole


def assert_closure_agrees(g, starts):
    for start in starts:
        assert _closure(g, start) == ref_level_closure(g, start), (g.sorted_edges(), start)


def one_hole_starts(g):
    full = (1 << g.n) - 1
    return [full ^ (1 << (hole - 1)) for hole in g.vertices()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_all_labeled_graphs_every_state(n):
    for g in labeled_connected_graphs(n):
        assert_closure_agrees(g, range(1 << n))


def test_closure_seeded_one_hole_starts():
    rng = random.Random(1419)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(6, 14), extra=rng.randint(0, 5))
        assert_closure_agrees(g, one_hole_starts(g))


@pytest.mark.parametrize("g", [
    Graph(1, []),
    Graph(2, [(1, 2)]),
    Graph(4, []),
    Graph(4, [(1, 2), (3, 4)]),
    Graph(7, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)]),
    Graph(6, [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]),
], ids=["n1", "edge", "edgeless", "matching", "path+triangle", "isolated-1+cycle"])
def test_closure_without_centres_or_connectivity(g):
    # no centre: the closure is the start alone; centres the BFS from
    # vertex 1 misses are swept all the same
    assert_closure_agrees(g, range(1 << g.n))
    assert equivalence_partition(g).blocks == ref_partition(g)
    for s in range(1 << g.n):
        c = Configuration(g.n, s)
        assert reachable_set(g, c) == frozenset(
            Configuration(g.n, t) for t in _members(ref_level_closure(g, s)))


def assert_image_agrees(g, rng, draws=8):
    """``_image`` of each parity's states, at half width, against
    ``ref_image`` of the same states: on the empty set, every state, one
    state and seeded random sets of states."""
    every = (1 << (1 << g.n)) - 1
    sets = [0, every, 1 << rng.randrange(1 << g.n)]
    sets += [rng.getrandbits(1 << g.n) for _ in range(draws)]
    for states in sets:
        halves = [to_half(states, parity) for parity in (0, 1)]
        assert from_half(halves[0], 0) | from_half(halves[1], 1) == states
        for parity, half in enumerate(halves):
            want = ref_image(from_half(half, parity), g)
            assert from_half(_image(half, parity, g), 1 - parity) == want, (
                g.sorted_edges(), states, parity)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_image_all_labeled_graphs(n):
    rng = random.Random(2200 + n)
    for g in labeled_connected_graphs(n):
        assert_image_agrees(g, rng)


@pytest.mark.parametrize("n", range(3, 11))
def test_image_complete_graphs(n):
    # every centre of K_n has C(n - 1, 2) neighbour pairs
    g = Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    assert_image_agrees(g, random.Random(2300 + n))


def test_image_seeded_graphs():
    rng = random.Random(2400)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(6, 14), extra=rng.randint(0, 8))
        assert_image_agrees(g, rng, draws=3)


def assert_interleaved_sweeps_agree(g1, g2):
    """min_unjumps on every hole of two graphs, first interleaved (g1 h1,
    g2 h1, g1 h2, ...), so that the one-graph cache of the search from the
    single-peg states is evicted at every call, then each graph's holes in
    a row and in reverse, so that shallower starts read a search that has
    gone deeper: every answer is the reference's."""
    calls = [(g, h) for h in range(1, max(g1.n, g2.n) + 1) for g in (g1, g2) if h <= g.n]
    calls += [(g, h) for g in (g1, g2) for h in reversed(g.vertices())]
    want = {}
    for g, hole in calls:
        if (g, hole) not in want:
            ref = ref_min_unjumps(g, hole)
            want[g, hole] = ref and (ref[0], ref_single_peg_witness(g, hole))
        got = min_unjumps(g, hole)
        assert (got and (got.count, got.witness)) == want[g, hole], (g, hole)


def test_interleaved_sweeps_all_labeled_graphs():
    graphs = [g for n in range(2, 6) for g in labeled_connected_graphs(n)]
    for g1, g2 in zip(graphs[::2], graphs[1::2]):
        assert_interleaved_sweeps_agree(g1, g2)


def test_interleaved_sweeps_seeded_graphs():
    rng = random.Random(612)
    for n in range(6, 13):
        g1, g2 = (random_connected_graph(rng, n, extra=rng.randint(0, 6)) for _ in range(2))
        assert_interleaved_sweeps_agree(g1, g2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_all_labeled_graphs(n):
    for g in labeled_connected_graphs(n):
        assert_kernels_agree(g)


def test_seeded_n6():
    rng = random.Random(606)
    for _ in range(100):
        assert_kernels_agree(random_connected_graph(rng, 6, extra=rng.randint(0, 6)), rng=rng)


@pytest.mark.parametrize("n", range(7, 15))
def test_seeded_larger(n):
    rng = random.Random(700 + n)
    g = random_connected_graph(rng, n, extra=rng.randint(1, 4))
    if n <= 9:
        assert_kernels_agree(g, rng=rng)
    else:
        holes = [rng.randint(1, n)]
        pegs = rng.sample(range(1, n + 1), 2)
        assert_kernels_agree(g, holes=holes, pegs=pegs, rng=rng)


if __name__ == "__main__":
    n = int(sys.argv[1])
    count = 0
    image_rng = random.Random(2200 + n)
    for graph in labeled_connected_graphs(n):
        assert_image_agrees(graph, image_rng)
        assert_closure_agrees(graph, one_hole_starts(graph))
        assert_kernels_agree(graph)
        count += 1
    print(f"n={n}: kernels agree on all {count} labeled connected graphs")
