"""Exhaustive ground-truth solver over the 2^n configuration space.

States are raw peg bitmasks and transitions follow the move rule of
``model``: on each ordered path triple, the jump and the unjump flip the
same three bits, so a transition is "xor with the triple mask" guarded by
the peg/hole pattern. Because every move is invertible, reachability is
symmetric and reachable sets are exactly the equivalence classes of mutual
reachability; classification exploits this by exploring each class once and
reading off every one-hole start it contains.

One breadth-first kernel serves every search. It tags each state it reaches
with the 1-based index of the triple whose move discovered it (a flat
``array('I')``; 0 means unvisited). The predecessor is the state xor that
triple's mask, so move sequences are rebuilt from the tags alone.
"""

from __future__ import annotations

import enum
from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityExceeded, DisconnectedGraph, PreconditionFailed
from .model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    is_connected,
    path_triples,
)

#: Default state-table budget: 2 GiB.
DEFAULT_MEMORY_BUDGET = 2 << 30

# Rough bytes-per-state costs used for the up-front budget check: the 4-byte
# tag table, member list and queue slack (plus the distance table of
# min_unjumps). Reports show them as estimated_bytes, so they stay fixed
# until they are re-measured.
_BYTES_PER_STATE_SCAN = 24
_BYTES_PER_STATE_WITNESS = 48


class Verdict(enum.Enum):
    NOT_SOLVABLE = "NotSolvable"
    SOLVABLE = "Solvable"
    FREELY_SOLVABLE = "FreelySolvable"
    DOUBLY_FREELY_SOLVABLE = "DoublyFreelySolvable"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the start-hole -> reachable-end-peg matrix."""

    verdict: Verdict
    matrix: dict[int, frozenset[int]]

    def is_solvable(self) -> bool:
        return self.verdict is not Verdict.NOT_SOLVABLE


@dataclass(frozen=True)
class SolveResult:
    end_pegs: frozenset[int]
    witness: MoveSequence


@dataclass(frozen=True)
class MinUnjumpResult:
    count: int
    witness: MoveSequence


@dataclass(frozen=True)
class EquivalencePartition:
    """Partition of all 2^n peg masks into mutual-reachability classes.

    Blocks hold raw masks (ints); use block_of to look up a Configuration.
    Blocks are ordered by their smallest mask.
    """

    n: int
    blocks: tuple[frozenset[int], ...]

    def block_of(self, c: Configuration) -> frozenset[int]:
        for b in self.blocks:
            if c.pegs in b:
                return b
        raise ValueError(f"mask {c.pegs} outside the partition")


#: Tag of a search's start state: any nonzero value marks it visited.
_START = 0xFFFFFFFF


@lru_cache(maxsize=256)
def _scan_table(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """(tag, mask, bx|by, bz) per path triple, tag = 1-based index into
    path_triples(g).

    The search loops test the move rule inline on this projection instead
    of calling a helper: that saves a Python function call per triple in
    the hot loop.
    """
    return tuple(
        (tag, mask, on_jump, on_unjump)
        for tag, (_, _, _, mask, on_jump, on_unjump) in enumerate(path_triples(g), 1)
    )


def estimate_state_bytes(n: int, witness: bool = False) -> int:
    per_state = _BYTES_PER_STATE_WITNESS if witness else _BYTES_PER_STATE_SCAN
    return (1 << n) * per_state


def check_budget(n: int, memory_budget: int | None, witness: bool = False) -> None:
    budget = DEFAULT_MEMORY_BUDGET if memory_budget is None else memory_budget
    need = estimate_state_bytes(n, witness)
    if need > budget:
        raise CapacityExceeded(
            f"2^{n} states need ~{need} bytes (budget {budget}); "
            "raise --memory-budget or use a closed-form classifier"
        )


def _new_tags(n: int) -> array:
    return array("I", bytes(4 << n))


def _search(start: int, table, tags: array) -> list[int]:
    """FIFO breadth-first search from `start` over untagged states.

    Tags every newly reached state with the triple that discovered it and
    returns the class members in discovery order. `tags` may be shared
    across calls, so each class is explored once.
    """
    tags[start] = _START
    members = [start]
    push = members.append
    # members doubles as the FIFO queue: list iteration also visits the
    # items appended while it runs.
    for s in members:
        for tag, mask, on_jump, on_unjump in table:
            on = s & mask
            if on == on_jump or on == on_unjump:
                t = s ^ mask
                if not tags[t]:
                    tags[t] = tag
                    push(t)
    return members


def _rebuild(g: Graph, start: int, target: int, tags: array) -> MoveSequence:
    """Walk the tags back from `target` to `start` into a move sequence."""
    triples = path_triples(g)
    chain = []
    t = target
    while t != start:
        x, y, z, mask, on_jump, _ = triples[tags[t] - 1]
        t ^= mask
        chain.append(Move(JUMP if t & mask == on_jump else UNJUMP, x, y, z))
    chain.reverse()
    return MoveSequence(Configuration(g.n, start), tuple(chain))


def _witness_tags(g: Graph, start: int, memory_budget: int | None) -> array:
    check_budget(g.n, memory_budget, witness=True)
    tags = _new_tags(g.n)
    _search(start, _scan_table(g), tags)
    return tags


def shortest_route(
    g: Graph, src: int, dst: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """Fewest-moves sequence from peg mask `src` to peg mask `dst`, or None
    when `dst` is not reachable."""
    tags = _witness_tags(g, src, memory_budget)
    return _rebuild(g, src, dst, tags) if tags[dst] else None


def reachable_set(
    g: Graph, c: Configuration, memory_budget: int | None = None
) -> frozenset[Configuration]:
    """Exact set of configurations reachable from c (including c itself)."""
    if c.n != g.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    check_budget(g.n, memory_budget)
    members = _search(c.pegs, _scan_table(g), _new_tags(g.n))
    return frozenset(Configuration(g.n, m) for m in members)


def equivalence_partition(
    g: Graph, memory_budget: int | None = None
) -> EquivalencePartition:
    """Partition all 2^n configurations by mutual reachability."""
    check_budget(g.n, memory_budget)
    table = _scan_table(g)
    tags = _new_tags(g.n)
    blocks = []
    for s in range(1 << g.n):
        if not tags[s]:
            blocks.append(frozenset(_search(s, table, tags)))
    return EquivalencePartition(g.n, tuple(blocks))


def _single_peg_states(n: int):
    return [(1 << (v - 1), v) for v in range(1, n + 1)]


def solve_from(
    g: Graph, hole: int, memory_budget: int | None = None
) -> SolveResult | None:
    """All end pegs reachable from the one-hole start, plus one witness.

    The witness goes to the smallest reachable end-peg vertex; it is a
    fewest-moves sequence by construction (plain BFS). Returns None when no
    single-peg state is reachable.
    """
    if not is_connected(g):
        raise DisconnectedGraph("solve_from requires a connected graph")
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    tags = _witness_tags(g, start, memory_budget)
    end_pegs = frozenset(v for mask, v in _single_peg_states(g.n) if tags[mask])
    if not end_pegs:
        return None
    target = 1 << (min(end_pegs) - 1)
    return SolveResult(end_pegs, _rebuild(g, start, target, tags))


def witness_to(
    g: Graph, hole: int, peg: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """Witness from the one-hole start to the single peg on `peg`, if that
    end position is reachable."""
    if not is_connected(g):
        raise DisconnectedGraph("witness_to requires a connected graph")
    if not 1 <= hole <= g.n or not 1 <= peg <= g.n:
        raise PreconditionFailed("hole and peg must lie in 1..n")
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    return shortest_route(g, start, 1 << (peg - 1), memory_budget)


def classify(g: Graph, memory_budget: int | None = None) -> Classification:
    """Verdict and full start-hole -> end-peg matrix.

    Each mutual-reachability class is explored once; every one-hole start
    found inside it shares the class's single-peg set.
    """
    if g.n < 2:
        raise PreconditionFailed("classification needs n >= 2")
    if not is_connected(g):
        raise DisconnectedGraph("classify requires a connected graph")
    check_budget(g.n, memory_budget)
    table = _scan_table(g)
    tags = _new_tags(g.n)
    full = (1 << g.n) - 1
    matrix: dict[int, frozenset[int]] = {}
    for h in range(1, g.n + 1):
        if h in matrix:
            continue  # class containing this start was already swept
        s0 = full ^ (1 << (h - 1))
        members = _search(s0, table, tags)
        pegs = frozenset(
            mask.bit_length() for mask in members if mask and not mask & (mask - 1)
        )
        for m in members:
            holes = full ^ m
            if holes and not holes & (holes - 1):
                matrix[holes.bit_length()] = pegs
    full_set = frozenset(range(1, g.n + 1))
    if all(not v for v in matrix.values()):
        verdict = Verdict.NOT_SOLVABLE
    elif all(matrix[h] == full_set for h in matrix):
        verdict = Verdict.DOUBLY_FREELY_SOLVABLE
    elif all(matrix[h] for h in matrix):
        verdict = Verdict.FREELY_SOLVABLE
    else:
        verdict = Verdict.SOLVABLE
    return Classification(verdict, matrix)


def min_unjumps(
    g: Graph, hole: int, memory_budget: int | None = None
) -> MinUnjumpResult | None:
    """Minimum unjumps over all solving sequences from the one-hole start.

    0/1-cost shortest path over the state space (jumps free, unjumps cost
    one) with a deque; the witness attains the minimum. Returns None when
    the start is not solvable at all.
    """
    if not is_connected(g):
        raise DisconnectedGraph("min_unjumps requires a connected graph")
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    check_budget(g.n, memory_budget, witness=True)
    table = _scan_table(g)
    size = 1 << g.n
    INF = size + 1
    dist = array("i", [INF]) * size
    tags = _new_tags(g.n)
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    dist[start] = 0
    dq = deque(((0, start),))
    while dq:
        d, s = dq.popleft()
        if d > dist[s]:
            continue
        for tag, mask, on_jump, on_unjump in table:
            on = s & mask
            if on == on_jump:
                cost = 0
            elif on == on_unjump:
                cost = 1
            else:
                continue
            t = s ^ mask
            nd = d + cost
            if nd < dist[t]:
                dist[t] = nd
                tags[t] = tag
                if cost:
                    dq.append((nd, t))
                else:
                    dq.appendleft((nd, t))
    ends = [mask for mask, _ in _single_peg_states(g.n) if dist[mask] < INF]
    if not ends:
        return None
    target = min(ends, key=dist.__getitem__)
    return MinUnjumpResult(dist[target], _rebuild(g, start, target, tags))
