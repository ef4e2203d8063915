"""Exhaustive ground-truth solver over the 2^n configuration space.

States are raw peg bitmasks. A set of states is one Python int with bit s
set for each state s in it, and every search except ``min_unjumps`` is a
breadth-first search over whole sets: the next frontier is
``image(frontier) & ~seen``.

The image rests on the "x != z" form of ``model``'s move rule. On a path
x-y-z, the legal patterns of bits (x, y, z) are 110 and 001 (a jump and an
unjump from x towards z) and 011 and 100 (the same from z towards x):
exactly the four patterns in which bits x and z differ, and every legal
move flips all three bits. For a state whose bits x and z differ, flipping
both adds a constant, +-(2^(z-1) - 2^(x-1)), so the states of a set F with
x = 1, z = 0 move together by one shift of F's int, and those with x = 0,
z = 1 by the opposite shift. Flipping bit y afterwards is one more pair of
shifts, applied once per centre y to the union over its neighbour pairs.
The pieces are cut with the per-bit masks M_b, the set of states whose bit
b is set; one ``_image`` serves every set search.

Because every move is invertible, reachability is symmetric and reachable
sets are exactly the equivalence classes of mutual reachability;
classification explores each class once and reads off every one-hole start
it contains.

Witnesses are the ones a FIFO search over single states gives when it scans
moves in ``path_triples`` order and keeps each state's first discoverer: of
all fewest-move sequences, the one whose list of ``path_triples`` indices is
lexicographically smallest. (By induction over levels: that search dequeues
each level in the lexicographic order of its states' index lists, so each
state inherits the smallest list of any predecessor.) ``_route`` keeps the
levels L_0 .. L_D of the set search up to the target, narrows them backward
to B_D = {target}, B_k = image(B_(k+1)) & L_k, the states of L_k on some
fewest-move route, and walks forward from the start, taking at each step
the first legal triple whose move lands in B_(k+1).

``min_unjumps`` alone still searches one state at a time with a 0/1-cost
deque (jumps free, unjumps cost one): its reported witness follows the
deque's order, which a layered set search would not reproduce. The deque
pops distances in nondecreasing order, so the search stops at the first
distance beyond the best single-peg distance popped: every state at that
distance or less is final by then, and with it the count and the witness.
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

# Bytes-per-state costs used for the up-front budget check. They were
# measured on the earlier per-state search (a 4-byte tag table, member list
# and queue slack, plus the distance table of min_unjumps) and reports show
# them as estimated_bytes, so they stay fixed. They remain an upper bound:
# the set search holds about (2n + 8) * 2^n bits (n cached per-bit masks,
# n per-bit slices of the frontier and a few working sets) plus one set
# per BFS level; min_unjumps still holds its 4-byte tag and distance
# tables.
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


# ---------------------------------------------------------------------------
# State sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _bit_masks(n: int) -> tuple[int, ...]:
    """M_b for b = 0 .. n-1: the set of the 2^n states whose bit b is set.

    Built by repeating a byte pattern and one ``int.from_bytes``, which is
    linear in 2^n; building it by big-int division is quadratic.
    """
    nbytes = max(1, (1 << n) >> 3)
    every_state = (1 << (1 << n)) - 1  # trims the byte for n < 3
    masks = []
    for b in range(n):
        if b < 3:
            data = bytes((0xAA, 0xCC, 0xF0)[b : b + 1]) * nbytes
        else:
            half = 1 << (b - 3)
            data = (bytes(half) + b"\xff" * half) * (nbytes // (2 * half))
        masks.append(int.from_bytes(data, "little") & every_state)
    return tuple(masks)


@lru_cache(maxsize=256)
def _centres(g: Graph) -> tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]:
    """(y - 1, 2^(y-1), pairs) per vertex y with two or more neighbours,
    where pairs holds (x - 1, z - 1, 2^(z-1) - 2^(x-1)) per neighbour pair
    x < z: the unordered path triples centred at y."""
    out = []
    for y in g.vertices():
        nb = g.adj[y]
        if len(nb) >= 2:
            pairs = tuple(
                (x - 1, z - 1, (1 << (z - 1)) - (1 << (x - 1)))
                for i, x in enumerate(nb)
                for z in nb[i + 1 :]
            )
            out.append((y - 1, 1 << (y - 1), pairs))
    return tuple(out)


def _image(states: int, g: Graph) -> int:
    """The set of states one legal move away from some state in `states`."""
    masks = _bit_masks(g.n)
    on = [states & m for m in masks]  # on[b]: the states with bit b set
    out = 0
    for y, y_shift, pairs in _centres(g):
        flipped = 0  # the movable states with bits x and z flipped
        for x, z, shift in pairs:
            both = on[x] & masks[z]
            flipped |= (on[x] ^ both) << shift | (on[z] ^ both) >> shift
        up = flipped & masks[y]
        out |= up >> y_shift | (flipped ^ up) << y_shift
    return out


def _has(states: int, s: int) -> bool:
    return bool(states >> s & 1)


def _members(states: int) -> list[int]:
    """The states of a set, ascending."""
    bits = format(states, "b")[::-1]  # character i is bit i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _levels(g: Graph, start: int, target: int | None = None) -> tuple[list[int], int]:
    """Breadth-first search over state sets from state `start`: the levels
    L_0 = {start}, L_1, ... up to the first that holds `target` (all of them
    when target is None or unreachable), and their union, the states
    reached."""
    levels = [1 << start]
    seen = levels[0]
    while target is None or not _has(levels[-1], target):
        frontier = _image(levels[-1], g) & ~seen
        if not frontier:
            break
        seen |= frontier
        levels.append(frontier)
    return levels, seen


def _route(g: Graph, start: int, target: int, levels: list[int]) -> MoveSequence:
    """The lexicographically first fewest-move sequence from `start` to
    `target`, given the BFS levels from `start` up to the one holding
    `target`. Narrows the levels in place."""
    levels[-1] = 1 << target
    for k in range(len(levels) - 2, -1, -1):
        levels[k] &= _image(levels[k + 1], g)
    triples = path_triples(g)
    chain = []
    s = start
    for on_route in levels[1:]:
        for x, y, z, mask, on_jump, on_unjump in triples:
            on = s & mask
            if (on == on_jump or on == on_unjump) and _has(on_route, s ^ mask):
                chain.append(Move(JUMP if on == on_jump else UNJUMP, x, y, z))
                s ^= mask
                break
    return MoveSequence(Configuration(g.n, start), tuple(chain))


def shortest_route(
    g: Graph, src: int, dst: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """Fewest-moves sequence from peg mask `src` to peg mask `dst`, or None
    when `dst` is not reachable."""
    check_budget(g.n, memory_budget, witness=True)
    levels, _ = _levels(g, src, dst)
    return _route(g, src, dst, levels) if _has(levels[-1], dst) else None


def reachable_set(
    g: Graph, c: Configuration, memory_budget: int | None = None
) -> frozenset[Configuration]:
    """Exact set of configurations reachable from c (including c itself)."""
    if c.n != g.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    check_budget(g.n, memory_budget)
    return frozenset(Configuration(g.n, m) for m in _members(_levels(g, c.pegs)[1]))


def equivalence_partition(
    g: Graph, memory_budget: int | None = None
) -> EquivalencePartition:
    """Partition all 2^n configurations by mutual reachability.

    A state without a legal move is a block of its own and needs no search,
    so the sweep stays linear in 2^n even when most states are frozen.
    """
    check_budget(g.n, memory_budget)
    masks = _bit_masks(g.n)
    movable = 0
    for _, _, pairs in _centres(g):
        for x, z, _ in pairs:
            movable |= masks[x] ^ masks[z]
    # character s is "1" when state s has a legal move
    movable = format(movable, "b")[::-1].ljust(1 << g.n, "0")
    placed = bytearray(1 << g.n)
    blocks = []
    s = 0
    while s >= 0:
        members = _members(_levels(g, s)[1]) if movable[s] == "1" else [s]
        for m in members:
            placed[m] = 1
        blocks.append(frozenset(members))
        s = placed.find(0, s + 1)
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
    check_budget(g.n, memory_budget, witness=True)
    start = ((1 << g.n) - 1) ^ (1 << (hole - 1))
    levels, seen = _levels(g, start)
    end_pegs = frozenset(v for mask, v in _single_peg_states(g.n) if _has(seen, mask))
    if not end_pegs:
        return None
    target = 1 << (min(end_pegs) - 1)
    depth = next(k for k, level in enumerate(levels) if _has(level, target))
    return SolveResult(end_pegs, _route(g, start, target, levels[: depth + 1]))


def witness_to(
    g: Graph, hole: int, peg: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """Witness from the one-hole start to the single peg on `peg`, if that
    end position is reachable."""
    if not is_connected(g):
        raise DisconnectedGraph("witness_to requires a connected graph")
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    if not 1 <= peg <= g.n:
        raise PreconditionFailed(f"peg {peg} outside 1..{g.n}")
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
    full = (1 << g.n) - 1
    singles = _single_peg_states(g.n)
    matrix: dict[int, frozenset[int]] = {}
    for h in range(1, g.n + 1):
        if h in matrix:
            continue  # class containing this start was already swept
        _, members = _levels(g, full ^ (1 << (h - 1)))
        pegs = frozenset(v for mask, v in singles if _has(members, mask))
        for mask, v in singles:
            if _has(members, full ^ mask):
                matrix[v] = pegs
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


# ---------------------------------------------------------------------------
# min_unjumps: one state at a time
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _scan_table(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """(tag, mask, bx|by, bz) per path triple, tag = 1-based index into
    path_triples(g).

    The search loop tests the move rule inline on this projection instead
    of calling a helper: that saves a Python function call per triple in
    the hot loop.
    """
    return tuple(
        (tag, mask, on_jump, on_unjump)
        for tag, (_, _, _, mask, on_jump, on_unjump) in enumerate(path_triples(g), 1)
    )


def _new_tags(n: int) -> array:
    return array("I", bytes(4 << n))


def _rebuild(g: Graph, start: int, target: int, tags: array) -> MoveSequence:
    """Walk the tags back from `target` to `start` into a move sequence.

    tags[t] is the 1-based path_triples index of the move that last
    improved t; its predecessor is t xor that triple's mask.
    """
    triples = path_triples(g)
    chain = []
    t = target
    while t != start:
        x, y, z, mask, on_jump, _ = triples[tags[t] - 1]
        t ^= mask
        chain.append(Move(JUMP if t & mask == on_jump else UNJUMP, x, y, z))
    chain.reverse()
    return MoveSequence(Configuration(g.n, start), tuple(chain))


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
    best = INF  # fewest unjumps to a single peg popped so far
    while dq:
        d, s = dq.popleft()
        if d > best:
            break  # every state at distance <= best is final
        if d > dist[s]:
            continue
        if s and not s & (s - 1):
            best = d
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
