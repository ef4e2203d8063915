"""Algebraic certificates and the closed-form classification of every graph.

Four independent obstruction arguments live here:

* the star certificate (leaf-peg count is conserved, the center toggles),
  checked on the star's 3-paths;
* quaternion weights on paths, with vertex v weighted i/j/k by v mod 3;
* the lift of a cycle configuration onto the triple cycle, where each
  cycle move corresponds to three synchronized moves and the quaternion
  weight becomes move-invariant;
* the mod-3 binary weighting whose conservation blocks doubly-free
  solvability when all high-degree vertices sit at mutual distances
  divisible by 3. One BFS builds it, and its 3-path check is also the
  doubly-free predicate, so both take linear time.

``closed_form`` packages the resulting start-hole/end-peg constraints for
every connected graph as the ``Classification`` that ``oracle.classify``
returns, on the graph's own vertices; the exact oracle must reproduce it
verbatim, which ``census.closed_form_mismatches`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraph, IllDefined, PreconditionFailed
from .families import graph_shape, star_graph
from .model import Configuration, Graph, bfs, path_triples
from .oracle import Classification, Verdict
from .quaternion import I, J, K, Quaternion, q_product

# ---------------------------------------------------------------------------
# Quaternion weights on paths and lifted cycles
# ---------------------------------------------------------------------------

_WEIGHT_BY_RESIDUE = {1: I, 2: J, 0: K}


def vertex_weight(v: int) -> Quaternion:
    return _WEIGHT_BY_RESIDUE[v % 3]


def path_weight(n: int, c: Configuration) -> Quaternion:
    """Ordered product of peg weights on the path 1..n, smallest first."""
    if c.n != n:
        raise PreconditionFailed(f"configuration is on {c.n} vertices, expected {n}")
    return q_product(vertex_weight(v) for v in c.peg_vertices())


def lifted_cycle_weight(n: int, c: Configuration) -> Quaternion:
    """Weight of the configuration repeated three times around a 3n-cycle.

    Each peg x becomes pegs x, x+n, x+2n; a single move on the n-cycle maps
    to three synchronized moves on the 3n-cycle, which is what makes this
    weight invariant even though n itself may not be divisible by 3.
    """
    if c.n != n:
        raise PreconditionFailed(f"configuration is on {c.n} vertices, expected {n}")
    labels = sorted(x + t * n for x in c.peg_vertices() for t in range(3))
    return q_product(vertex_weight(v) for v in labels)


# ---------------------------------------------------------------------------
# Star certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarCertificateReport:
    moves_checked: int
    leaf_count_always_preserved: bool
    center_always_toggled: bool
    start_leaf_counts: frozenset[int]
    single_peg_leaf_counts: frozenset[int]

    @property
    def proves_not_solvable(self) -> bool:
        return (
            self.leaf_count_always_preserved
            and self.center_always_toggled
            and not self.start_leaf_counts & self.single_peg_leaf_counts
        )


@dataclass(frozen=True)
class StarCertificate:
    """Checkable facts about K_{1,n-1} with center 1: every legal move
    keeps the number of pegs on leaves and flips the center's state."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise PreconditionFailed("the star certificate applies for n >= 4")

    def leaf_peg_count(self, c: Configuration) -> int:
        if c.n != self.n:
            raise PreconditionFailed(f"configuration is on {c.n} vertices, expected {self.n}")
        return c.peg_count() - (1 if c.has_peg(1) else 0)

    def verify(self) -> StarCertificateReport:
        """Check both facts for every legal move of every configuration and
        compare the conserved quantity of starts against single-peg states:
        disjoint leaf counts mean no one-hole start can ever reach one
        peg."""
        checked, leaves_ok, center_ok = _centre_leaf_check(star_graph(self.n))
        starts = frozenset(
            self.leaf_peg_count(Configuration.with_hole(self.n, h))
            for h in range(1, self.n + 1)
        )
        singles = frozenset(
            self.leaf_peg_count(Configuration.single_peg(self.n, p))
            for p in range(1, self.n + 1)
        )
        return StarCertificateReport(checked, leaves_ok, center_ok, starts, singles)


def _centre_leaf_check(g: Graph) -> tuple[int, bool, bool]:
    """(legal moves, leaf count always kept, centre always flipped) over all
    2^n states of ``g``, with vertex 1 as the centre and every other vertex
    a leaf.

    A move on x-y-z flips exactly x, y and z, so it changes the leaf count
    by +-([z != 1] - [x != 1] - [y != 1]) and flips the centre iff 1 is in
    {x, y, z}, in every state where it is legal: 2^(n-3) states for the
    jump and as many for the unjump.
    """
    triples = path_triples(g)
    leaves_ok = all((z != 1) == (x != 1) + (y != 1) for x, y, z, *_ in triples)
    center_ok = all(1 in (x, y, z) for x, y, z, *_ in triples)
    return len(triples) << g.n >> 2, leaves_ok, center_ok


def star_certificate(n: int) -> StarCertificate:
    return StarCertificate(n)


# ---------------------------------------------------------------------------
# Binary (mod 2) weighting from mod-3 path lengths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryWeighting:
    base: int
    weight: dict[int, int]

    def total(self, c: Configuration) -> int:
        n = len(self.weight)
        if c.n != n:
            raise PreconditionFailed(f"configuration is on {c.n} vertices, expected {n}")
        return sum(self.weight[v] for v in c.peg_vertices()) % 2

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "weights": {str(v): w for v, w in sorted(self.weight.items())},
        }


def _mod3_weights(g: Graph, base: int) -> dict[int, int]:
    """Weight 0 at BFS distance divisible by 3 from ``base``, 1 elsewhere
    (unreachable vertices too: their distance -1 is 2 mod 3). For a base of
    degree >= 3 this is exact:

    * With no ``_weight_conflict``, a degree-3 vertex has weight 0 (three
      neighbours cannot pairwise sum to 1), and from it the weights along
      any simple path must read 0, 1, 1, 0, 1, 1, ... So this is the only
      candidate; it then equals "0 where some simple path from the base
      has length divisible by 3", and every path between degree-3
      vertices, and every cycle through one, has length divisible by 3.
    * Conversely, if all those lengths are divisible by 3, a degree-2
      thread vertex at position k on its thread gets weight
      [k mod 3 != 0] from either end, and every 3-path holds exactly one
      weight-0 vertex.
    """
    dist = bfs(g.adj, (base,))[0]
    return {v: 0 if dist[v] % 3 == 0 else 1 for v in g.vertices()}


def _weight_conflict(g: Graph, weight: dict[int, int]) -> tuple[int, int, int] | None:
    """The first 3-path x-y-z (x < z, in ``path_triples`` order) whose
    weights do not sum to 2, or None when the weighting is valid."""
    for x, y, z, *_ in path_triples(g):
        if x < z and weight[x] + weight[y] + weight[z] != 2:
            return x, y, z
    return None


def binary_weighting(g: Graph, v: int) -> BinaryWeighting:
    """Weight 0 for vertices at distance divisible by 3 from v, weight 1
    otherwise (see ``_mod3_weights``).

    Raises IllDefined unless every 3-path in the graph carries exactly two
    weight-1 vertices, the condition that makes the mod-2 peg-weight sum
    move-invariant and which fails exactly when some pair of degree-3
    vertices is joined by a path of length not divisible by 3.
    """
    if not 1 <= v <= g.n:
        raise PreconditionFailed(f"base vertex {v} outside 1..{g.n}")
    if g.degree(v) < 3:
        raise PreconditionFailed(f"base vertex {v} must have degree >= 3")
    weight = _mod3_weights(g, v)
    bad = _weight_conflict(g, weight)
    if bad:
        x, y, z = bad
        raise IllDefined(
            f"3-path {x}-{y}-{z} carries weights "
            f"{weight[x]},{weight[y]},{weight[z]}; the mod-3 "
            "weighting from vertex "
            f"{v} is ambiguous on this graph"
        )
    return BinaryWeighting(v, weight)


def total_binary_weight(w: BinaryWeighting, c: Configuration) -> int:
    return w.total(c)


# ---------------------------------------------------------------------------
# Doubly-free predicate
# ---------------------------------------------------------------------------


def doubly_free_predicate(g: Graph) -> bool:
    """True iff two degree-3 vertices are joined by a simple path whose
    length is not divisible by 3.

    The two endpoints may coincide: a cycle through a single degree-3
    vertex counts, with the cycle length as the path length. Exactly then
    the BFS weighting from the smallest degree-3 vertex has a conflict
    (see ``_mod3_weights``), so the test takes linear time.
    """
    shape = graph_shape(g)[0]
    if shape != "solver":
        raise PreconditionFailed(f"no doubly-free predicate for a {shape or 'disconnected'} graph")
    base = next(v for v in g.vertices() if g.degree(v) >= 3)
    return _weight_conflict(g, _mod3_weights(g, base)) is not None


# ---------------------------------------------------------------------------
# Closed-form path and cycle classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathCycleVerdict:
    solvable: bool
    admissible_starts: frozenset[int]
    end_pegs: dict[int, frozenset[int]]
    level: Verdict


def _residue_class(n: int, r: int) -> frozenset[int]:
    return frozenset(range((r - 1) % 3 + 1, n + 1, 3))


def classify_path(n: int) -> PathCycleVerdict:
    """Start holes and end pegs for the n-vertex path.

    The admissible mod-3 start classes come from the quaternion weight of
    the three canonical hole positions; shifting a lone hole or peg by
    distance 3 fills out each class.
    """
    if n < 2:
        raise PreconditionFailed("paths need n >= 2")
    if n == 2:
        return PathCycleVerdict(
            True,
            frozenset({1, 2}),
            {1: frozenset({2}), 2: frozenset({1})},
            Verdict.FREELY_SOLVABLE,
        )
    r = n % 6
    if r in (1, 5):
        return PathCycleVerdict(False, frozenset(), {}, Verdict.NOT_SOLVABLE)
    pairing = {
        0: {2: 2},  # start residue -> end residue
        2: {1: 2, 2: 1},
        3: {1: 1, 0: 0},
        4: {2: 0, 0: 2},
    }[r]
    ends: dict[int, frozenset[int]] = {}
    starts: set[int] = set()
    for sr, er in pairing.items():
        end_class = _residue_class(n, er)
        for h in _residue_class(n, sr):
            starts.add(h)
            ends[h] = end_class
    return PathCycleVerdict(True, frozenset(starts), ends, Verdict.SOLVABLE)


def classify_cycle(n: int) -> PathCycleVerdict:
    """Start holes and end pegs for the n-vertex cycle."""
    if n < 3:
        raise PreconditionFailed("cycles need n >= 3")
    r = n % 6
    everything = frozenset(range(1, n + 1))
    if r in (1, 5):
        return PathCycleVerdict(False, frozenset(), {}, Verdict.NOT_SOLVABLE)
    if r in (0, 3):
        classes = [_residue_class(n, k) for k in range(3)]
        ends = {h: classes[h % 3] for h in everything}
        return PathCycleVerdict(True, everything, ends, Verdict.FREELY_SOLVABLE)
    ends = {h: everything for h in everything}
    return PathCycleVerdict(True, everything, ends, Verdict.DOUBLY_FREELY_SOLVABLE)


# ---------------------------------------------------------------------------
# One closed form for every connected graph
# ---------------------------------------------------------------------------


def closed_form(g: Graph) -> tuple[str, Classification]:
    """(shape, classification) of a connected graph, without a search: the
    type ``oracle.classify`` returns, keyed by every vertex of g, with an
    empty end set at each inadmissible hole, so it equals ``classify(g)``.

    A path or cycle reads ``classify_path``/``classify_cycle`` through its
    line order: position p is vertex ``labels[p - 1]``, and each distinct
    end set is translated once. A star admits no start, and a solver graph
    (a non-star with a degree-3 vertex) admits every hole. On a solver graph
    whose mod-3 weighting w has a conflict (the doubly-free predicate) every
    end peg is reachable from every hole. Otherwise the parity of the pegs'
    total weight is conserved, so from hole h the end pegs are
    {p : w(p) = W - w(h) mod 2}, W the weight of all vertices, and the
    paper's construction reaches each of them.
    """
    shape, labels = graph_shape(g)
    if shape is None:
        raise DisconnectedGraph("classify requires a connected graph")
    matrix = dict.fromkeys(g.vertices(), frozenset())
    if shape in ("path", "cycle"):
        line = classify_path(g.n) if shape == "path" else classify_cycle(g.n)
        on_labels: dict[frozenset[int], frozenset[int]] = {}
        for p in line.admissible_starts:
            ends = line.end_pegs[p]
            if ends not in on_labels:
                on_labels[ends] = frozenset(labels[q - 1] for q in ends)
            matrix[labels[p - 1]] = on_labels[ends]
        return shape, Classification(line.level, matrix)
    if shape == "star":
        return shape, Classification(Verdict.NOT_SOLVABLE, matrix)
    weight = _mod3_weights(g, next(v for v in labels if g.degree(v) >= 3))
    everything = frozenset(labels)
    if _weight_conflict(g, weight) is not None:
        matrix = dict.fromkeys(labels, everything)
        level = Verdict.DOUBLY_FREELY_SOLVABLE
    else:
        odd = frozenset(v for v in labels if weight[v])
        by_parity = (everything - odd, odd)
        matrix = {h: by_parity[(len(odd) - weight[h]) % 2] for h in labels}
        level = Verdict.FREELY_SOLVABLE
    return shape, Classification(level, matrix)
