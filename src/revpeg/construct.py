"""Constructive solvers: explicit move sequences without exhaustive search.

``solve_constructive`` takes every connected non-star graph: by
``graph_shape``, a path or cycle goes to the line kernel (below) and every
other graph to the general routine. That routine works on a spanning tree
containing a degree-3 vertex, fixes an embedded copy of H there, shifts
the start hole onto H, then absorbs the outside pegs, closest to H first,
while keeping the H restriction inside class A or B. Every absorption
picks a staging configuration (equivalent within the current class)
chosen by which H vertex the peg approaches and at what distance, then
carries the peg in with a single 4-path macro. When no outside pegs
remain, a last within-H walk parks the final peg on the class
representative.

The working tree, the embedding, the BFS from H, the absorption order and
each vertex's absorption plan (the 4-paths and staging that carry its peg
in) depend only on the graph and are built once per graph (``_frame``,
cached like ``model.path_triples``). The order, the non-H vertices by
(distance to H, vertex), is fixed in advance: after the hole shift every
vertex outside H holds a peg, and each absorption removes exactly the chosen
peg from outside H (a macro moves a peg from one end of its path to the
other, and only the entry macro ends in H), so the closest remaining outside
peg is always the next vertex of the order. A solve thus runs no search of
its own and costs O(n + moves). It runs on the int peg mask, checks each
move with model's rule (a 4-path macro's peg-and-three-holes or
hole-and-three-pegs pattern is that rule for both of its moves), and builds
``Configuration`` objects only at phase boundaries; the public step
functions wrap the same kernels. An absorption reads the H restriction
once: its march stays outside H and its entry lands the peg on a staging
hole, so H ends in the class of the staging plus the landing letter, which
``_build_frame`` checks is A or B once per graph, for every plan.

A witness shares its moves instead of building one per step. The two moves
of a 4-path macro depend only on the path and on the case it plays (a peg
across three holes, or a hole across three pegs), and a within-H walk only
on the embedded H vertices and its two abstract masks. So ``_macro_moves``
and ``_h_walk`` build each once, in fixed-size LRU caches, and hand the
same ``Move`` objects to every later solve; the kernels still check each
move's peg/hole pattern on the int mask before they append it, a within-H
move by one ``&`` and ``==`` against the mask and legal pattern cached
with it. A witness thus holds one tuple slot per move plus its share of
the cached moves (CPython 3.11, 64-bit): 64 witnesses of a seeded n = 64
graph hold 14.8 bytes per move, against 115.6 when every move was built
(``tests/test_witness_memory.py``), and one 5.85M-move witness of a thin
graph with n = 10^4 held 8.4, measured with ``CAPACITY`` raised.

On a doubly free graph, a path or a cycle, ``solve_constructive_to`` routes
the last peg by a BFS over ``_lone_peg_hops``, which keeps only the first
hop from each vertex to each other: the BFS takes the first discoverer as
parent, so a later hop never enters a witness.

Paths and cycles have no degree-3 vertex and share one line kernel on the
vertex order (``graph_shape``'s line order, or 1..n for ``solve_path``
and ``solve_cycle``): a path in the other admissible residue class is read
backwards and a cycle is read from the vertex that puts the hole on the
entry position, then 4-path macros shift the hole and the classical
even-path jump sweep finishes, all on the real vertices. The hole shift
takes its moves from the macro cache; the sweep builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import (
    EmbeddingNotFound,
    IllegalMove,
    InvariantViolation,
    NotDoublyFree,
    NotSolvableStart,
    PatternMismatch,
    PreconditionFailed,
)
from .families import graph_shape
from .hclasses import CLASS_BY_MASK, HClass, LETTERS, h_route, letter_mask
from .invariants import classify_cycle, classify_path, doubly_free_predicate
from .model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    bfs,
)
from .oracle import solve_from


@dataclass(frozen=True)
class WorkingTree:
    """A spanning tree of the input graph whose root has tree-degree >= 3."""

    tree: Graph
    root: int


@dataclass(frozen=True)
class HEmbedding:
    """Five distinct vertices with the edges a-c, b-c, c-d, d-e present in
    whatever graph the configuration is played on."""

    a: int
    b: int
    c: int
    d: int
    e: int

    def vertex(self, letter: str) -> int:
        return getattr(self, letter)

    def letter(self, v: int) -> str:
        return LETTERS[self.vertices.index(v)]

    @property
    def vertices(self) -> tuple[int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e)

    def mask_of(self, c: Configuration) -> int:
        """The restriction of a configuration to H, as a 5-bit abstract mask."""
        return _h_bits(self.vertices, c.pegs)


def _h_bits(vs: tuple[int, ...], pegs: int) -> int:
    """The abstract 5-bit H mask (bit i for letter i) of the pegs that sit
    on the embedded H vertices ``vs``."""
    m = 0
    for i, v in enumerate(vs):
        if pegs >> (v - 1) & 1:
            m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# Move kernels on the int peg mask
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2048)
def _macro_moves(path: tuple[int, int, int, int], peg: bool) -> tuple[Move, Move]:
    """The two moves of the 4-path macro on ``path``: the peg case carries
    a peg on path[0] across three holes, the hole case a hole across three
    pegs. Built once per path and case and shared by every witness."""
    v0, v1, v2, v3 = path
    if peg:
        return Move(UNJUMP, v2, v1, v0), Move(JUMP, v1, v2, v3)
    return Move(JUMP, v2, v1, v0), Move(UNJUMP, v1, v2, v3)


@lru_cache(maxsize=512)
def _h_walk(vs: tuple[int, ...], src: int, dst: int) -> tuple[tuple[Move, int, int], ...]:
    """``h_route(src, dst)`` on the embedded H vertices ``vs``, built once
    and shared, as (move, mask, legal pattern) per move: the move is legal
    on a peg mask whose bits under ``mask`` equal the pattern. Raises
    NotSameClass across classes."""
    walk = []
    for r in h_route(src, dst):
        m = Move(r.kind, vs[r.x - 1], vs[r.y - 1], vs[r.z - 1])
        bx, by, bz = 1 << (m.x - 1), 1 << (m.y - 1), 1 << (m.z - 1)
        walk.append((m, bx | by | bz, bx | by if m.kind is JUMP else bz))
    return tuple(walk)


def _p4(pegs: int, path: tuple[int, int, int, int], moves: list[Move]) -> int:
    """The 4-path macro on a peg mask: append its two moves to ``moves`` and
    return the new mask. Both moves are legal exactly when the path holds a
    peg and three holes, or a hole and three pegs; either way the macro
    flips the two endpoints."""
    v0, v1, v2, v3 = path
    b0, b3 = 1 << (v0 - 1), 1 << (v3 - 1)
    inner = (1 << (v1 - 1)) | (1 << (v2 - 1))
    state = pegs & (b0 | inner | b3)
    if state == b0:
        moves += _macro_moves(path, True)
    elif state == inner | b3:
        moves += _macro_moves(path, False)
    else:
        states = tuple(bool(pegs >> (v - 1) & 1) for v in path)
        raise PatternMismatch(
            f"path {tuple(path)} holds pegs {states}; need peg+3 holes or hole+3 pegs"
        )
    return pegs ^ b0 ^ b3


def _within_h(vs: tuple[int, ...], pegs: int, src: int, dst: int, moves: list[Move]) -> int:
    """Walk the H restriction of ``pegs``, the abstract mask ``src``, to the
    abstract mask ``dst`` along ``h_route``, on the embedded H vertices
    ``vs``; append the moves and return the new mask. Raises NotSameClass
    across classes."""
    for m, mask, legal in _h_walk(vs, src, dst):
        if pegs & mask != legal:
            raise IllegalMove(f"{m}: peg/hole pattern does not match")
        pegs ^= mask
        moves.append(m)
    return pegs


# ---------------------------------------------------------------------------
# The 4-path macro
# ---------------------------------------------------------------------------


def p4_move(
    g: Graph, c: Configuration, path: tuple[int, int, int, int]
) -> tuple[Configuration, tuple[Move, Move]]:
    """Carry a lone peg (or lone hole) across a 4-path by distance 3.

    Peg on path[0] with three holes ahead: unjump onto the two middle
    vertices, then jump to the far endpoint. Hole on path[0] with three pegs
    ahead: jump into the hole, then unjump to push the hole to the far end.
    Vertices off the path are untouched.
    """
    if c.n != g.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    if len(path) != 4:
        raise PatternMismatch(f"path {path} has {len(path)} vertices, not 4")
    v0, v1, v2, v3 = path
    if len({v0, v1, v2, v3}) != 4:
        raise PatternMismatch(f"path {path} repeats a vertex")
    for u, w in ((v0, v1), (v1, v2), (v2, v3)):
        if not g.has_edge(u, w):
            raise PatternMismatch(f"{u}-{w} is not an edge; {path} is not a 4-path")
    moves: list[Move] = []
    pegs = _p4(c.pegs, tuple(path), moves)
    return Configuration(c.n, pegs), (moves[0], moves[1])


# ---------------------------------------------------------------------------
# Spanning tree and H embedding
# ---------------------------------------------------------------------------


def find_spanning_tree(g: Graph) -> WorkingTree:
    """BFS tree from the smallest degree-3 vertex of a solver graph with
    n >= 5; if that tree degenerates to a star, swap one center-leaf edge
    for a leaf-leaf edge of g."""
    shape = graph_shape(g)[0]
    if shape != "solver":
        raise PreconditionFailed(f"a {shape or 'disconnected'} graph has no working tree")
    if g.n < 5:
        raise PreconditionFailed("spanning-tree routine needs n >= 5")
    root = min(v for v in g.vertices() if g.degree(v) >= 3)
    _, parent, order = bfs(g.adj, (root,))
    edges = {(min(v, parent[v]), max(v, parent[v])) for v in order[1:]}
    if all(root in e for e in edges):
        # BFS tree is a star, so root is adjacent to everything; g is not a
        # star, so it has an edge avoiding root. Reattach one endpoint.
        u, v = min(e for e in g.sorted_edges() if root not in e)
        edges.remove((min(root, u), max(root, u)))
        edges.add((u, v))
    return WorkingTree(Graph(g.n, sorted(edges)), root)


def find_h_embedding(t: WorkingTree) -> HEmbedding:
    """Smallest eligible center c, then lexicographically smallest (a,b,d,e).

    c needs tree-degree >= 3 and a neighbor d that continues one step
    further to some e; in a tree e is automatically distinct from a, b, c.
    """
    tree = t.tree
    for c0 in tree.vertices():
        nb = tree.adj[c0]
        if len(nb) < 3:
            continue
        for ia, a0 in enumerate(nb):
            for b0 in nb[ia + 1 :]:
                for d0 in nb:
                    if d0 in (a0, b0):
                        continue
                    ext = [w for w in tree.adj[d0] if w != c0]
                    if ext:
                        return HEmbedding(a0, b0, c0, d0, min(ext))
    raise EmbeddingNotFound(
        f"no claw-with-subdivided-edge in the {tree.n}-vertex working tree: no vertex "
        "of tree-degree >= 3 has a neighbour that continues one step further"
    )


# ---------------------------------------------------------------------------
# Within-H transformations
# ---------------------------------------------------------------------------


def transform_within_h(
    emb: HEmbedding, c: Configuration, target_pegs
) -> tuple[Configuration, MoveSequence]:
    """Move the H restriction of c to the requested H configuration using
    only moves inside H. Raises NotSameClass if the target lies in the
    other class, PreconditionFailed if H is not inside the configuration."""
    outside = [v for v in emb.vertices if not 1 <= v <= c.n]
    if outside:
        raise PreconditionFailed(f"embedded H vertices {outside} are outside 1..{c.n}")
    target = frozenset(target_pegs)
    stray = target - set(emb.vertices)
    if stray:
        raise PreconditionFailed(f"target pegs {sorted(stray)} are outside H")
    dst = _h_bits(emb.vertices, sum(1 << (v - 1) for v in target))
    moves: list[Move] = []
    pegs = _within_h(emb.vertices, c.pegs, emb.mask_of(c), dst, moves)
    return Configuration(c.n, pegs), MoveSequence(c, tuple(moves))


# ---------------------------------------------------------------------------
# Routing toward H inside the tree
# ---------------------------------------------------------------------------


def _path_toward_h(toward, v: int, steps: int) -> list[int]:
    out = [v]
    for _ in range(steps):
        v = toward[v]
        out.append(v)
    return out


@dataclass(frozen=True)
class _Frame:
    """What a constructive solve needs that depends only on the working tree
    and the H embedding: the BFS from H (`dist`, `toward`), the mask of the
    H vertices, the absorption order (the non-H vertices by (dist, vertex))
    and each non-H vertex v's absorption plan ``plans[v]``, the tuple
    (between, march, stage A, entry A, stage B, entry B): the mask of the
    vertices strictly between v and H; the 4-path that marches a peg on v 3
    steps inward, to a vertex whose plan holds the next one, or None within
    distance 3; and per H class the staging mask and the entry 4-path."""

    emb: HEmbedding
    dist: tuple[int, ...]
    toward: tuple[int, ...]
    h_mask: int
    order: tuple[int, ...]
    plans: tuple


@lru_cache(maxsize=256)
def _build_frame(t: WorkingTree, emb: HEmbedding) -> _Frame:
    """Multi-source BFS from H in letter order a..e over the tree, so that
    `toward[v]` is the next vertex on the unique tree path from v to H
    (equidistant vertices are claimed by the earlier letter); then the
    absorption order by (`dist`, vertex), and the plans in BFS order, where
    a vertex beyond distance 3 extends the plan of the vertex 3 steps on."""
    tree = t.tree
    a, b, c, d, e = vs = emb.vertices
    if len(set(vs)) != 5 or not all(
        tree.has_edge(u, w) for u, w in ((a, c), (b, c), (c, d), (d, e))
    ):
        raise PreconditionFailed(f"{emb} is not an embedded H in the working tree")
    dist, toward, reached = bfs(tree.adj, vs)
    if len(reached) < tree.n:
        v = dist.index(-1, 1)
        raise PreconditionFailed(f"vertex {v} is not connected to H in the working tree")
    plans: list = [None] * (tree.n + 1)
    for v in reached[5:]:
        k = dist[v]
        path = tuple(_path_toward_h(toward, v, min(k, 3)))
        between = sum(1 << (u - 1) for u in path[1:k])
        if k > 3:
            after = plans[path[3]]
            plans[v] = (between | after[0], path) + after[2:]
            continue
        plan = [between, None]
        letter = emb.letter(path[k])
        for cls in (HClass.A, HClass.B):
            stage, entry = _ABSORB[(letter, cls)][k]
            landed = CLASS_BY_MASK[letter_mask(stage) | letter_mask(entry[-1])]
            if landed not in (HClass.A, HClass.B):
                raise InvariantViolation(
                    f"_ABSORB[({letter!r}, {cls.value})][{k}] = {(stage, entry)} "
                    f"leaves H in {landed.value}; expected class A or B"
                )
            plan += (letter_mask(stage), path[:k] + tuple(map(emb.vertex, entry)))
        plans[v] = tuple(plan)
    order = tuple(sorted(reached[5:], key=lambda v: (dist[v], v)))
    h_mask = sum(1 << (v - 1) for v in vs)
    return _Frame(emb, tuple(dist), tuple(toward), h_mask, order, tuple(plans))


@lru_cache(maxsize=256)
def _frame(g: Graph) -> _Frame:
    """The frame of g's working tree and H embedding, built once per graph."""
    t = find_spanning_tree(g)
    return _build_frame(t, find_h_embedding(t))


# Entry tables for carrying a peg at distance r from its nearest H vertex
# into H: (attachment letter, class) -> r -> (staging letters, the H part of
# the final 4-path). Distances 1..3 are the x1/x2/x3 positions; approaches
# from further away are first shortened with the 4-path macro.
_ABSORB = {
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

# Hole-entry paths: the H part of the 4-path that pushes the start hole's
# final step into H, by attachment letter and remaining distance mod 3.
_HOLE_ENTRY = {
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


def _shift_hole(f: _Frame, pegs: int, hole: int, moves: list[Move]) -> int:
    """Walk the lone hole of ``pegs`` onto H by hole-case macros; a no-op when it is on H."""
    if f.h_mask >> (hole - 1) & 1:
        return pegs
    emb, toward = f.emb, f.toward
    k = f.dist[hole]
    while k >= 3:
        path = tuple(_path_toward_h(toward, hole, 3))
        pegs = _p4(pegs, path, moves)  # hole case: hole travels 3 inward
        hole = path[3]
        k -= 3
    if k:
        path = _path_toward_h(toward, hole, k)
        entry = _HOLE_ENTRY[(emb.letter(path[k]), k)]
        pegs = _p4(pegs, tuple(path[:k] + [emb.vertex(ch) for ch in entry]), moves)
    return pegs


def _absorb(f: _Frame, pegs: int, peg: int, moves: list[Move]) -> int:
    """Carry the outside peg on ``peg`` into H by its plan, keeping the H
    restriction in class A or B; append the moves and return the new mask."""
    vs = f.emb.vertices
    h = _h_bits(vs, pegs)
    before_class = CLASS_BY_MASK[h]
    if before_class not in (HClass.A, HClass.B):
        raise PreconditionFailed(f"H restriction is {before_class.value}, need A or B")
    plan = f.plans[peg]
    if pegs & plan[0]:
        raise PreconditionFailed("a closer peg sits between the chosen peg and H")
    march = plan[1]
    while march:
        pegs = _p4(pegs, march, moves)  # peg case: peg travels 3 inward
        march = f.plans[march[3]][1]
    # The march stays outside H, so the class is still before_class.
    i = 2 if before_class is HClass.A else 4
    return _p4(_within_h(vs, pegs, h, plan[i], moves), plan[i + 1], moves)


def shift_hole_onto_h(
    t: WorkingTree, emb: HEmbedding, c: Configuration
) -> tuple[Configuration, MoveSequence]:
    """Walk the unique hole of an all-pegs-but-one configuration onto H."""
    if c.n != t.tree.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    holes = ((1 << c.n) - 1) ^ c.pegs
    if not holes or holes & (holes - 1):
        raise PreconditionFailed("expected exactly one hole")
    moves: list[Move] = []
    pegs = _shift_hole(_build_frame(t, emb), c.pegs, holes.bit_length(), moves)
    return Configuration(c.n, pegs), MoveSequence(c, tuple(moves))


def absorb_nearest_peg(
    t: WorkingTree, emb: HEmbedding, c: Configuration
) -> tuple[Configuration, MoveSequence]:
    """Bring the outside peg closest to H into H, preserving class A/B.

    Ties on distance break toward the smaller vertex. The peg is first
    marched to within distance 3 by 4-path macros (its path is all holes
    because it is a closest peg), the H restriction is staged inside its
    class per the attachment vertex and distance, and one final macro
    carries the peg in.
    """
    if c.n != t.tree.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    f = _build_frame(t, emb)
    outside = c.pegs & ~f.h_mask
    if not outside:
        raise PreconditionFailed("no pegs outside H")
    peg = next(v for v in f.order if outside >> (v - 1) & 1)
    moves: list[Move] = []
    pegs = _absorb(f, c.pegs, peg, moves)
    return Configuration(c.n, pegs), MoveSequence(c, tuple(moves))


# ---------------------------------------------------------------------------
# Full constructive solver
# ---------------------------------------------------------------------------


def _solve_paw_four(g: Graph, hole: int) -> MoveSequence:
    """n = 4 base case of a non-star graph: restrict to a
    triangle-with-pendant subgraph (the degree-3 centre's spokes and its
    smallest chord) and search its 16 configurations."""
    center = min(v for v in g.vertices() if g.degree(v) == 3)
    chord = min(e for e in g.edges if center not in e)
    paw = Graph(4, [(center, o) for o in g.adj[center]] + [chord])
    return solve_from(paw, hole).witness


def solve_constructive(g: Graph, hole: int) -> MoveSequence:
    """Replay-valid sequence from all-pegs-except-hole down to a single peg,
    for any connected non-star graph: the line kernel on a path or cycle
    (NotSolvableStart for a hole outside its closed form), else the H one."""
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    shape, order = graph_shape(g)
    if shape == "star":
        raise PreconditionFailed("stars are not solvable")
    if shape is None:
        raise PreconditionFailed("graph must be connected")
    if shape != "solver":
        return _solve_line(shape, order, _line_start(shape, order, hole)[0])
    if g.n == 4:
        return _solve_paw_four(g, hole)
    f = _frame(g)
    start = Configuration.with_hole(g.n, hole)
    moves: list[Move] = []
    pegs = _shift_hole(f, start.pegs, hole, moves)
    for v in f.order:
        pegs = _absorb(f, pegs, v, moves)
    if pegs & ~f.h_mask:
        raise InvariantViolation("pegs are left outside H after the absorptions")
    vs = f.emb.vertices
    h = _h_bits(vs, pegs)
    rep = "a" if CLASS_BY_MASK[h] is HClass.A else "c"
    _within_h(vs, pegs, h, letter_mask(rep), moves)
    return MoveSequence(start, tuple(moves))


# ---------------------------------------------------------------------------
# Doubly-free: park the final peg anywhere
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _lone_peg_hops(g: Graph) -> tuple[MappingProxyType[int, tuple], ...]:
    """Where a lone peg goes in one hop: ``hops[u]`` maps each w to the first
    hop u -> w in scan order, 4-paths (u, p1, p2, w) first, then teleports
    among the class-A singleton positions a, b, d, e of each embedded H.
    A dict keeps first-insertion order, so ``bfs`` over it finds what it
    would over every hop. A row that holds all n - 1 targets takes no later
    hop, so the scan skips it and stops once every row is full. Built once
    per graph, like ``_frame``, and every caller shares the read-only rows."""
    hops: list[dict[int, tuple]] = [{} for _ in range(g.n + 1)]
    for u in g.vertices():
        row = hops[u]
        for p1 in g.adj[u]:
            if len(row) == g.n - 1:
                break
            for p2 in g.adj[p1]:
                if p2 == u:
                    continue
                for w in g.adj[p2]:
                    if w not in row and w not in (u, p1):
                        row[w] = ("p4", (u, p1, p2, w))
    unfilled = sum(len(row) < g.n - 1 for row in hops[1:])
    for c0 in g.vertices():
        for d0 in g.adj[c0]:
            for e0 in g.adj[d0]:
                if not unfilled:
                    return tuple(map(MappingProxyType, hops))
                if e0 == c0:
                    continue
                rest = [x for x in g.adj[c0] if x not in (d0, e0)]
                for x in rest[1:]:
                    emb = None
                    singles = (rest[0], x, d0, e0)
                    for u in singles:
                        row = hops[u]
                        for w in singles:
                            if w not in row and w != u:
                                emb = emb or HEmbedding(rest[0], x, c0, d0, e0)
                                row[w] = ("h", emb, w)
                                unfilled -= len(row) == g.n - 1
    return tuple(map(MappingProxyType, hops))


def solve_constructive_to(g: Graph, hole: int, target: int) -> MoveSequence:
    """Solve with the final peg exactly on `target`.

    First solves normally, then routes the lone peg: 4-path hops cover
    distance-3 steps along any path, and an embedded H lets the peg move
    freely among that copy's four class-A singleton positions, the
    class-switch that exists precisely when two degree-3 vertices are
    joined by a path of length not divisible by 3; other solver graphs are
    refused. On a path or cycle the 4-path hops reach exactly the hole's
    closed-form end set, so a target outside it is refused from the closed
    form, before any solve.
    """
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    if not 1 <= target <= g.n:
        raise PreconditionFailed(f"target {target} outside 1..{g.n}")
    shape, order = graph_shape(g)
    if shape == "solver" and not doubly_free_predicate(g):
        raise NotDoublyFree(
            "all degree-3 vertices sit at mutual path lengths divisible by 3"
        )
    if shape in ("path", "cycle"):
        pos, ends = _line_start(shape, order, hole)
        if order.index(target) + 1 not in ends:
            raise NotDoublyFree(f"{shape} on {g.n} vertices from hole {hole} ends only on "
                                f"{sorted(order[q - 1] for q in ends)}")
        seq = _solve_line(shape, order, pos)
    else:
        seq = solve_constructive(g, hole)
    # The solve ends on one peg, so its last move is a jump (an unjump
    # leaves pegs on both x and y), and a jump lands on z; path:2 needs none.
    peg = seq.moves[-1].z if seq.moves else seq.start.peg_vertices()[0]
    if peg == target:
        return seq
    hops = _lone_peg_hops(g)
    dist, parent, _ = bfs(hops, (peg,))
    if dist[target] < 0:
        raise InvariantViolation(
            "lone-peg routing failed although the closed form admits the target"
        )
    chain = []
    v = target
    while v != peg:
        chain.append(hops[parent[v]][v])
        v = parent[v]
    chain.reverse()
    moves = list(seq.moves)
    pegs = 1 << (peg - 1)
    for label in chain:
        if label[0] == "p4":
            pegs = _p4(pegs, label[1], moves)
        else:
            _, emb, w = label
            vs = emb.vertices
            pegs = _within_h(vs, pegs, _h_bits(vs, pegs), _h_bits(vs, 1 << (w - 1)), moves)
    if pegs != 1 << (target - 1):
        raise InvariantViolation("routing did not end on the requested target")
    return MoveSequence(seq.start, tuple(moves))


# ---------------------------------------------------------------------------
# Paths and cycles
# ---------------------------------------------------------------------------


def _even_sweep(vs: list[int]) -> list[Move]:
    """Jump-only solution of an even path given as a vertex list, with the
    hole adjacent to the first endpoint (on vs[1]). Final peg: vs[-2]."""
    if len(vs) == 2:
        return []  # hole + peg: already down to one peg
    moves = [Move(JUMP, vs[3], vs[2], vs[1]), Move(JUMP, vs[0], vs[1], vs[2])]
    k = 2
    while k + 3 <= len(vs) - 1:
        moves.append(Move(JUMP, vs[k + 3], vs[k + 2], vs[k + 1]))
        moves.append(Move(JUMP, vs[k], vs[k + 1], vs[k + 2]))
        k += 2
    return moves


def _line_start(shape: str, order, hole: int) -> tuple[int, frozenset[int]]:
    """The position of ``hole`` on the path or cycle whose vertices, in line
    order, are ``order``, and the positions its closed form ends on; raises
    NotSolvableStart for a hole at no admissible position."""
    n = len(order)
    verdict = classify_path(n) if shape == "path" else classify_cycle(n)
    pos = order.index(hole) + 1 if hole in order else 0
    if pos not in verdict.admissible_starts:
        raise NotSolvableStart(f"{shape} on {n} vertices is not solvable from hole {hole}")
    return pos, verdict.end_pegs[pos]


def _solve_line(shape: str, order, pos: int) -> MoveSequence:
    """Solve the path or cycle whose vertices, in line order, are ``order``,
    from the hole on position ``pos``, which ``_line_start`` admitted.

    The construction needs the hole on the entry position 2 (even n) or 3
    (odd multiples of 3). A path whose hole is in the other admissible
    residue class is read backwards; a cycle is read from the vertex that
    puts the hole on the entry position. Even n: walk the hole to the entry
    by 4-path macros and sweep. Odd n: jump the first peg over the second
    into the hole, walk the new hole to the next-to-last position and sweep
    the even line from the far end.
    """
    n = len(order)
    hole = order[pos - 1]
    entry = 2 if n % 2 == 0 else 3
    vs = list(order)
    if shape == "cycle":
        k = (pos - entry) % n
        vs = vs[k:] + vs[:k]
    elif pos % 3 != entry % 3:
        vs.reverse()
    start = Configuration.with_hole(n, hole)
    moves: list[Move] = []

    def shift(pegs: int, at: int, to: int) -> int:
        # Carry the lone hole from vs[at] to vs[to], 3 vertices per macro.
        d = 1 if to > at else -1
        for i in range(at, to, 3 * d):
            pegs = _p4(pegs, (vs[i], vs[i + d], vs[i + 2 * d], vs[i + 3 * d]), moves)
        return pegs

    pegs = shift(start.pegs, vs.index(hole), entry - 1)
    if n % 2 == 0:
        return MoveSequence(start, tuple(moves + _even_sweep(vs)))
    # The shift left the lone hole on vs[2], so this jump is always legal.
    first = Move(JUMP, vs[0], vs[1], vs[2])
    moves.append(first)
    shift(pegs ^ first.mask(), 1, n - 2)
    return MoveSequence(start, tuple(moves + _even_sweep(vs[:0:-1])))


def solve_path(n: int, hole: int) -> MoveSequence:
    """Explicit solution for the n-vertex path, entered anywhere the
    closed-form classifier admits."""
    order = range(1, n + 1)
    return _solve_line("path", order, _line_start("path", order, hole)[0])


def solve_cycle(n: int, hole: int) -> MoveSequence:
    """Explicit solution for the n-vertex cycle."""
    order = range(1, n + 1)
    return _solve_line("cycle", order, _line_start("cycle", order, hole)[0])


def line_solver_witness(g: Graph, hole: int) -> MoveSequence | None:
    """``solve_constructive`` on a path- or cycle-shaped graph under any
    labeling, or None for every other shape."""
    if graph_shape(g)[0] not in ("path", "cycle"):
        return None
    return solve_constructive(g, hole)
