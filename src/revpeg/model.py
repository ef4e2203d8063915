"""Graphs, peg configurations, moves, and replay.

Vertices are the integers 1..n. A configuration is a bitmask where bit
(v - 1) set means a peg on vertex v. A jump takes pegs on x and y and a hole
on z (x-y-z a path) to a single peg on z; an unjump is the exact inverse,
carrying a peg from z back to x and re-creating the peg on y.

The move rule, stated once: on an ordered path triple x-y-z with bits
bx, by, bz and ``mask = bx | by | bz``, a move is legal exactly when
``pegs & mask == bx | by`` (a jump) or ``pegs & mask == bz`` (an unjump),
and either move flips ``mask``. ``path_triples`` tabulates the triples;
``legal_moves``, ``replay``, the oracle's searches and the constructive
solvers all apply this rule. ``replay`` applies it to the int peg mask move
by move and builds one ``Configuration``, the final one.

``bfs`` is the one search over vertices; every vertex-level search in the
package calls it. It scans the sources in the order given and each
adjacency list in order, and a vertex's first discoverer is its parent:
that order pins every witness built on a search.

Everything here is an immutable value and every operation is a pure
function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import CapacityExceeded, IllegalMove, IllegalMoveAt, ValidationError

#: Hard cap on vertex count: one machine word of configuration bits.
CAPACITY = 64


class Graph:
    """Simple undirected graph on vertices 1..n with sorted adjacency lists."""

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {n}")
        if n > CAPACITY:
            raise CapacityExceeded(f"graphs are capped at {CAPACITY} vertices, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"edge ({u},{v}) leaves the vertex range 1..{n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValidationError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        self.edges: frozenset[tuple[int, int]] = frozenset(seen)
        self.n = n
        lists: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in seen:
            lists[u].append(v)
            lists[v].append(u)
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(l)) for l in lists
        )
        self._hash = hash((n, self.edges))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise ValidationError(f"vertex {v} outside 1..{self.n}")
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self.edges

    def max_degree(self) -> int:
        return max(len(self.adj[v]) for v in self.vertices())

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def bfs(adj, sources) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search over ``adj`` (``adj[v]`` lists v's neighbours)
    from the distinct ``sources``, in the order the module docstring pins:
    ``(dist, parent, order)``, ``order`` listing the reached vertices as
    found. Sources get parent 0; unreached vertices dist -1 and parent 0."""
    dist = [-1] * len(adj)
    parent = [0] * len(adj)
    order = list(sources)
    for v in order:
        dist[v] = 0
    for u in order:  # a list read while it grows is the FIFO queue
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                parent[w] = u
                order.append(w)
    return dist, parent, order


@lru_cache(maxsize=256)
def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every vertex from vertex 1, cached per graph."""
    return len(bfs(g.adj, (1,))[2]) == g.n


@dataclass(frozen=True)
class Configuration:
    """Peg subset of 1..n packed into an int; bit (v-1) set = peg on v."""

    n: int
    pegs: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"vertex count must be >= 1, got n={self.n}")
        if self.n > CAPACITY:
            raise CapacityExceeded(
                f"configurations support 1..{CAPACITY} vertices, got n={self.n}"
            )
        if self.pegs < 0 or self.pegs >> self.n:
            raise ValidationError(
                f"peg mask {self.pegs:#x} has bits outside 1..{self.n}"
            )

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "Configuration":
        mask = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise ValidationError(f"peg vertex {v} outside 1..{n}")
            mask |= 1 << (v - 1)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "Configuration":
        return cls(n, (1 << n) - 1)

    @classmethod
    def with_hole(cls, n: int, hole: int) -> "Configuration":
        """All pegs except one hole: the game's start position."""
        if not 1 <= hole <= n:
            raise ValidationError(f"hole {hole} outside 1..{n}")
        return cls(n, ((1 << n) - 1) ^ (1 << (hole - 1)))

    @classmethod
    def single_peg(cls, n: int, peg: int) -> "Configuration":
        if not 1 <= peg <= n:
            raise ValidationError(f"peg {peg} outside 1..{n}")
        return cls(n, 1 << (peg - 1))

    def has_peg(self, v: int) -> bool:
        return bool(self.pegs >> (v - 1) & 1)

    def peg_count(self) -> int:
        return self.pegs.bit_count()

    def peg_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.pegs >> (v - 1) & 1)

    def hole_vertices(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(1, self.n + 1) if not self.pegs >> (v - 1) & 1
        )

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.peg_vertices())) + "}"


class MoveKind(enum.Enum):
    JUMP = "jump"
    UNJUMP = "unjump"

    @property
    def order(self) -> int:
        return 0 if self is MoveKind.JUMP else 1


JUMP = MoveKind.JUMP
UNJUMP = MoveKind.UNJUMP


@dataclass(frozen=True)
class Move:
    """Directed move on the 3-path x-y-z.

    Jump: pegs on x,y and hole on z; the x-peg lands on z, the y-peg is
    removed. Unjump: holes on x,y and peg on z; the z-peg lands on x and a
    new peg appears on y. x is always where the travelling peg ends up after
    an unjump.
    """

    kind: MoveKind
    x: int
    y: int
    z: int

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.y, self.x, self.z, self.kind.order)

    def mask(self) -> int:
        return (1 << (self.x - 1)) | (1 << (self.y - 1)) | (1 << (self.z - 1))

    def inverse(self) -> "Move":
        """The move that restores the configuration this one came from."""
        kind = UNJUMP if self.kind is JUMP else JUMP
        return Move(kind, self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.x},{self.y},{self.z})"


def jump(x: int, y: int, z: int) -> Move:
    return Move(JUMP, x, y, z)


def unjump(x: int, y: int, z: int) -> Move:
    return Move(UNJUMP, x, y, z)


def _geometry_ok(g: Graph, m: Move) -> bool:
    return (
        len({m.x, m.y, m.z}) == 3
        and g.has_edge(m.x, m.y)
        and g.has_edge(m.y, m.z)
    )


def _pattern_ok(pegs: int, m: Move) -> bool:
    bx, by, bz = 1 << (m.x - 1), 1 << (m.y - 1), 1 << (m.z - 1)
    return pegs & (bx | by | bz) == (bx | by if m.kind is JUMP else bz)


def is_legal(g: Graph, c: Configuration, m: Move) -> bool:
    return _geometry_ok(g, m) and _pattern_ok(c.pegs, m)


@lru_cache(maxsize=256)
def path_triples(g: Graph) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """(x, y, z, mask, bx|by, bz) per ordered path triple x-y-z, sorted by
    (y, x, z).

    For one triple at most one of jump/unjump is legal in a given state, so
    scanning in this order yields moves in the documented (y, x, z, kind)
    order.
    """
    out = []
    for y in g.vertices():
        nb = g.adj[y]
        for x in nb:
            for z in nb:
                if z != x:
                    bx, by, bz = 1 << (x - 1), 1 << (y - 1), 1 << (z - 1)
                    out.append((x, y, z, bx | by | bz, bx | by, bz))
    return tuple(out)


def legal_moves(g: Graph, c: Configuration) -> list[Move]:
    """All legal moves, sorted by (y, x, z, kind)."""
    if c.n != g.n:
        raise ValidationError(f"configuration is on {c.n} vertices, graph on {g.n}")
    pegs = c.pegs
    out: list[Move] = []
    for x, y, z, mask, on_jump, on_unjump in path_triples(g):
        on = pegs & mask
        if on == on_jump:
            out.append(Move(JUMP, x, y, z))
        elif on == on_unjump:
            out.append(Move(UNJUMP, x, y, z))
    return out


def apply_move(c: Configuration, m: Move, g: Graph | None = None) -> Configuration:
    """Apply one move, returning a new configuration.

    The peg/hole pattern is always validated; pass ``g`` to also validate the
    path geometry (callers that generated the move from ``legal_moves`` can
    skip it). Without ``g`` the move rule takes x, y, z to be distinct.
    """
    if g is not None and not _geometry_ok(g, m):
        raise IllegalMove(f"{m}: x-y-z is not a 3-path in the graph")
    if not _pattern_ok(c.pegs, m):
        raise IllegalMove(f"{m}: peg/hole pattern does not match in {c}")
    return Configuration(c.n, c.pegs ^ m.mask())


@dataclass(frozen=True)
class MoveSequence:
    """A start configuration plus an ordered list of moves."""

    start: Configuration
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)

    def unjump_count(self) -> int:
        return sum(1 for m in self.moves if m.kind is UNJUMP)


def _replay_steps(g: Graph, seq: MoveSequence) -> Iterator[int]:
    """Validate and apply each move on the int peg mask, yielding the mask
    after it; raises IllegalMoveAt(index) where the geometry (two edges and
    x != z, as edges have no self-loops) or the peg/hole pattern fails."""
    c = seq.start
    if c.n != g.n:
        raise IllegalMoveAt(0, f"start configuration is on {c.n} vertices, graph on {g.n}")
    edges, pegs = g.edges, c.pegs
    for i, m in enumerate(seq.moves):
        x, y, z = m.x, m.y, m.z
        xy, yz = (x, y) if x < y else (y, x), (y, z) if y < z else (z, y)
        if x == z or xy not in edges or yz not in edges:
            raise IllegalMoveAt(i, f"{m}: x-y-z is not a 3-path in the graph")
        bx, by, bz = 1 << (x - 1), 1 << (y - 1), 1 << (z - 1)
        mask = bx | by | bz
        if pegs & mask != (bx | by if m.kind is JUMP else bz):
            raise IllegalMoveAt(i, f"{m}: peg/hole pattern does not match")
        pegs ^= mask
        yield pegs


def replay(g: Graph, seq: MoveSequence) -> Configuration:
    """Re-apply every move with full validation; the trusted verifier.

    Raises IllegalMoveAt(index) at the first step whose geometry or
    peg/hole pattern fails. Builds one ``Configuration``, the final one.
    """
    pegs = seq.start.pegs
    for pegs in _replay_steps(g, seq):
        pass
    return Configuration(seq.start.n, pegs)


def trace(g: Graph, seq: MoveSequence) -> list[Configuration]:
    """Configurations after every move of a valid sequence (start excluded)."""
    return [Configuration(g.n, pegs) for pegs in _replay_steps(g, seq)]
