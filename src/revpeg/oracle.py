"""Exhaustive ground-truth solver over the 2^n configuration space.

States are raw peg bitmasks. A set of states is one Python int with bit s
set for each state s in it, and every search works on whole sets. Reachable
sets come from sweeps that apply the centres back and forth along a BFS
order of the vertices, until every centre has been applied to the current
set without adding a state: that set is closed under moves, so it is the
fixpoint. Witnesses and ``min_unjumps`` come from one level search,
breadth-first over sets: every move changes the peg count by one, so the
next frontier is the image of the last one less the level before it, and
each level holds states of one peg-count parity p. Levels are kept at half
width: state s sits at index s >> 1, as its bit 0 is p xor the parity of
s >> 1. Reachable sets hold both parities and stay at full width.

The image rests on the "x != z" form of ``model``'s move rule. On a path
x-y-z, the legal patterns of bits (x, y, z) are 110 and 001 (a jump and an
unjump from x towards z) and 011 and 100 (the same from z towards x):
exactly the four patterns in which bits x and z differ, and every legal
move flips all three bits. For a state whose bits x and z differ, flipping
both adds a constant, +-(2^(z-1) - 2^(x-1)), so the states of a set F with
x = 1, z = 0 move together by one shift of F's int, and those with x = 0,
z = 1 by the opposite shift. Flipping bit y afterwards is one more pair of
shifts, applied once per centre y to the union over its neighbour pairs:
the states with a peg on y make a jump, the others an unjump. One kernel,
``_flips``, makes a centre's pair shifts for ``_image`` and ``_closure``,
cut with the per-bit masks M_b: the states whose bit b is set (at half
width, ``_parity_masks``).

Because every move is invertible, reachability is symmetric and reachable
sets are exactly the equivalence classes of mutual reachability;
classification explores each class once and reads off every one-hole start
it contains. Complementing every bit maps legal moves to legal moves, so
the complement of a class is a class too, and its row of the matrix needs
no search of its own.

Witnesses are the ones a FIFO search over single states gives when it scans
moves in ``path_triples`` order, keeps each state's first discoverer and
stops at the first target state it dequeues: of all fewest-move sequences
into the target set, the one whose list of ``path_triples`` indices is
lexicographically smallest. (By induction over levels: that search dequeues
each level in the lexicographic order of its states' index lists, so each
state inherits the smallest list of any predecessor.) ``_route`` searches
backward from the target set to the level R_D that holds the start, then
walks forward taking, from the k-th state, the first legal triple that lands
in R_(D-k-1): the neighbours k + 1 moves from the start on a fewest-move
route into the set, since a neighbour is at most k + 1 moves from the start,
and at least k + 1 if it is D - k - 1 moves from the set.

``min_unjumps`` is the ``_route`` into the set of single-peg states. A jump
removes one peg and an unjump adds one, so a solve from the one-hole start
(n - 1 pegs) to one peg with u unjumps has n - 2 + 2u moves: the fewest
unjumps are the fewest moves. The levels backward from that set depend on
the graph alone, so a graph's holes share one search, kept until a call on
another graph and extended only for a start that no level holds yet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, cycle
from operator import xor

from .errors import CapacityExceeded, DisconnectedGraph, PreconditionFailed
from .model import (
    JUMP,
    UNJUMP,
    Configuration,
    Graph,
    Move,
    MoveSequence,
    bfs,
    is_connected,
    path_triples,
)

#: Default state-table budget: 2 GiB.
DEFAULT_MEMORY_BUDGET = 2 << 30

# Bytes-per-state costs used for the up-front budget check. They were
# measured on an earlier per-state search (4-byte tag and distance tables,
# member lists and queue slack) and reports show them as estimated_bytes,
# so they stay fixed. They remain an upper bound on what the set searches
# hold: the n cached per-bit masks and a few working sets; a level search
# holds each parity's n half-width masks, which share n - 1 sets, one
# half-width set per level and a few half-width working sets.
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


@dataclass(frozen=True)
class SolveResult:
    end_pegs: frozenset[int]
    witness: MoveSequence


@dataclass(frozen=True)
class MinUnjumpResult:
    """The fewest unjumps of any solve, and a solve with that many: the
    lexicographically first fewest-move sequence into the set of single-peg
    states, the rule of every oracle witness."""

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
        if c.n != self.n:
            raise PreconditionFailed("configuration and graph sizes differ")
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


@lru_cache(maxsize=4)
def _parity_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per peg-count parity p, the masks M_b of the 2^(n-1) states of parity
    p at half width, where state s sits at index s >> 1: for b >= 1 the
    indices with bit b - 1 set, and for b = 0, whose bit is p xor the parity
    of the index, the indices whose own parity is not p."""
    bits = _bit_masks(n - 1)
    odd = reduce(xor, bits, 0)  # the indices of odd parity
    every = (1 << (1 << (n - 1))) - 1
    return (odd,) + bits, (every ^ odd,) + bits


@lru_cache(maxsize=256)
def _centres(g: Graph) -> tuple[tuple[int, int, tuple, int, tuple], ...]:
    """(y - 1, 2^(y-1), pairs, 2^(y-1) >> 1, half_pairs) per vertex y with
    two or more neighbours, where pairs holds (x - 1, z - 1, 2^(z-1) -
    2^(x-1)) per neighbour pair x < z, the unordered path triples centred at
    y, and half_pairs the same with the shift at half width, (shift + 1) >> 1.
    The vertices come in the order of a BFS from the vertex that a BFS from
    vertex 1 reaches last, then the others, by label: ``_closure``'s order."""
    dist, _, order = bfs(g.adj, bfs(g.adj, (1,))[2][-1:])
    out = []
    for y in order + [v for v in g.vertices() if dist[v] < 0]:
        nb = g.adj[y]
        if len(nb) >= 2:
            pairs = [
                (x - 1, z - 1, (1 << (z - 1)) - (1 << (x - 1)))
                for i, x in enumerate(nb)
                for z in nb[i + 1 :]
            ]
            half_pairs = tuple([(x, z, (shift + 1) >> 1) for x, z, shift in pairs])
            out.append((y - 1, 1 << (y - 1), tuple(pairs), 1 << (y - 1) >> 1, half_pairs))
    return tuple(out)


def _flips(states: int, masks: tuple[int, ...], pairs) -> int:
    """The states of `states` with a legal move along one of a centre's
    neighbour pairs x-z, with bits x and z flipped: those whose bits x and
    z differ, x = 1 moved up by the pair's shift and z = 1 moved down. The
    one pair loop of the oracle; the caller flips the centre's bit."""
    flipped = 0
    for x, z, shift in pairs:
        movable = states & (masks[x] ^ masks[z])
        x_on = movable & masks[x]
        flipped |= x_on << shift | (movable ^ x_on) >> shift
    return flipped


def _image(states: int, parity: int, g: Graph) -> int:
    """The states one legal move away from some state in `states`, a set of
    states of peg-count parity `parity` at half width (see ``_parity_masks``):
    the image holds states of the other parity, at half width too."""
    masks = _parity_masks(g.n)[parity]
    image = 0
    for y, _, _, y_shift, pairs in _centres(g):
        flipped = _flips(states, masks, pairs)
        up = flipped & masks[y]  # a peg on y: the move is a jump
        image |= up >> y_shift | (flipped ^ up) << y_shift
    return image


def _has(states: int, s: int) -> bool:
    return bool(states >> s & 1)


def _members(states: int) -> list[int]:
    """The states of a set, ascending."""
    bits = format(states, "b")[::-1].encode()  # byte i is bit i, as b"0" or b"1"
    return list(compress(range(len(bits)), bits.translate(bytes.maketrans(b"01", b"\0\1"))))


def _closure(g: Graph, start: int) -> int:
    """The states reachable from state `start`. Each centre adds at once
    every state one move around it from the set reached so far (``_flips``
    and a flip of its bit), so every state added is reachable. The centres go
    back and forth along their BFS order, which carries what one adds on to
    its neighbours both ways in a pass, and stop once each has been applied
    to the current set without adding a state: that set is closed under
    every move, so it is the whole reachable set ({start} with no centre)."""
    masks = _bit_masks(g.n)
    centres = _centres(g)
    every = sum(y_shift for _, y_shift, *_ in centres)  # the centres' vertex bits
    seen, quiet = 1 << start, 0  # quiet: those of centres that added nothing to seen
    for y, y_shift, pairs, _, _ in cycle(centres + centres[-2:0:-1]):  # c_0 .. c_(k-1) .. c_1
        if quiet & y_shift:
            continue  # already applied to this very set
        flipped = _flips(seen, masks, pairs)
        up = flipped & masks[y]  # a peg on y: the move is a jump
        grown = seen | up >> y_shift | (flipped ^ up) << y_shift
        quiet = quiet | y_shift if grown == seen else 0
        if quiet == every:
            break
        seen = grown
    return seen


def _levels(g: Graph, levels: list[int], parity: int, start: int) -> int | None:
    """Breadth-first search over state sets from the set levels[0] of states
    of parity `parity`: the index of the first level that holds state
    `start`, or None when the search ends without it. Level k holds states
    of parity `parity` xor k mod 2, at half width, so only every other level
    can hold `start`. `levels` grows in place past its last level, so
    searches from the same sources share it; an ended search keeps an empty
    last level. No move joins two states of a level, so the next frontier is
    the image of the last level less the one before it."""
    first, at = (parity ^ start.bit_count()) & 1, start >> 1
    for depth in range(first, len(levels), 2):
        if levels[depth] >> at & 1:
            return depth
    while levels[-1]:
        depth = len(levels)
        before = levels[-2] if depth > 1 else 0
        levels.append(_image(levels[-1], parity ^ (depth - 1) % 2, g) & ~before)
        if depth % 2 == first and levels[depth] >> at & 1:
            return depth
    return None


def _route(g: Graph, start: int, back: list[int], parity: int) -> MoveSequence | None:
    """The lexicographically first fewest-move sequence from state `start`
    into the set back[0] of states of parity `parity`, or None when none is
    reachable: the search backward in `back` to the first level R_D holding
    `start`, then a forward walk that takes, from the k-th state, the first
    legal ``path_triples`` move into R_(D-k-1) (see the module docstring)."""
    depth = _levels(g, back, parity, start)
    if depth is None:
        return None
    triples = path_triples(g)
    s, chain = start, []
    for level in reversed(back[:depth]):
        for x, y, z, mask, on_jump, on_unjump in triples:
            on = s & mask
            if (on == on_jump or on == on_unjump) and level >> ((s ^ mask) >> 1) & 1:
                chain.append(Move(JUMP if on == on_jump else UNJUMP, x, y, z))
                s ^= mask
                break
    return MoveSequence(Configuration(g.n, start), tuple(chain))


def shortest_route(
    g: Graph, src: int, dst: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """The lexicographically first fewest-move sequence from peg mask `src`
    to peg mask `dst`, or None when `dst` is not reachable: see ``_route``."""
    for mask in (src, dst):
        if not 0 <= mask < 1 << g.n:
            raise PreconditionFailed(f"peg mask {mask} is not a state on {g.n} vertices")
    check_budget(g.n, memory_budget, witness=True)
    return _route(g, src, [1 << (dst >> 1)], dst.bit_count() & 1)


def reachable_set(
    g: Graph, c: Configuration, memory_budget: int | None = None
) -> frozenset[Configuration]:
    """Exact set of configurations reachable from c (including c itself)."""
    if c.n != g.n:
        raise PreconditionFailed("configuration and graph sizes differ")
    check_budget(g.n, memory_budget)
    return frozenset(Configuration(g.n, m) for m in _members(_closure(g, c.pegs)))


def equivalence_partition(
    g: Graph, memory_budget: int | None = None
) -> EquivalencePartition:
    """Partition all 2^n configurations by mutual reachability.

    A state without a legal move is a block of its own and needs no search,
    so the sweep stays linear in 2^n even when most states are frozen.
    """
    check_budget(g.n, memory_budget)
    every = (1 << (1 << g.n)) - 1
    masks = _bit_masks(g.n)
    movable = 0  # a state has a legal move exactly when some 3-path's ends differ
    for x, z in {(x, z) for *_, pairs, _, _ in _centres(g) for x, z, _ in pairs}:
        movable |= masks[x] ^ masks[z]
    blocks = {s: frozenset((s,)) for s in _members(every ^ movable)}
    while movable:
        # the smallest state left is the smallest of its class, which
        # holds only states with a legal move
        s = (movable & -movable).bit_length() - 1
        members = _closure(g, s)
        movable ^= members
        blocks[s] = frozenset(_members(members))
    return EquivalencePartition(g.n, tuple(blocks[s] for s in sorted(blocks)))


def _single_peg_states(n: int):
    return [(1 << (v - 1), v) for v in range(1, n + 1)]


@lru_cache(maxsize=1)
def _single_peg_levels(g: Graph) -> list[int]:
    """The levels of the search backward from g's single-peg states as far as
    ``_levels`` has taken them, kept for the last graph asked about only."""
    return [sum(1 << (mask >> 1) for mask, _ in _single_peg_states(g.n))]


def _one_hole_start(g: Graph, hole: int, caller: str) -> int:
    """The peg mask of the one-hole start on `hole`. First refuses, in the
    name of `caller` (a search from that start), a disconnected graph, then
    a hole outside the graph."""
    if not is_connected(g):
        raise DisconnectedGraph(f"{caller} requires a connected graph")
    if not 1 <= hole <= g.n:
        raise PreconditionFailed(f"hole {hole} outside 1..{g.n}")
    return ((1 << g.n) - 1) ^ (1 << (hole - 1))


def solve_from(
    g: Graph, hole: int, memory_budget: int | None = None
) -> SolveResult | None:
    """All end pegs reachable from the one-hole start, plus one witness.

    The witness is the ``_route`` to the smallest end peg, from a search
    backward from it. Returns None when no single-peg state is reachable.
    """
    start = _one_hole_start(g, hole, "solve_from")
    check_budget(g.n, memory_budget, witness=True)
    seen = _closure(g, start)
    end_pegs = frozenset(v for mask, v in _single_peg_states(g.n) if _has(seen, mask))
    if not end_pegs:
        return None
    target = 1 << (min(end_pegs) - 1)
    return SolveResult(end_pegs, _route(g, start, [1 << (target >> 1)], 1))


def witness_to(
    g: Graph, hole: int, peg: int, memory_budget: int | None = None
) -> MoveSequence | None:
    """Witness from the one-hole start to the single peg on `peg`, if that
    end position is reachable."""
    start = _one_hole_start(g, hole, "witness_to")
    if not 1 <= peg <= g.n:
        raise PreconditionFailed(f"peg {peg} outside 1..{g.n}")
    return shortest_route(g, start, 1 << (peg - 1), memory_budget)


def classify(g: Graph, memory_budget: int | None = None) -> Classification:
    """Verdict and full start-hole -> end-peg matrix.

    Each mutual-reachability class is explored once; every one-hole start
    found inside it shares the class's single-peg set, and the complement
    class swaps the two sets.
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
        members = _closure(g, full ^ (1 << (h - 1)))
        pegs = frozenset(v for mask, v in singles if _has(members, mask))
        starts = frozenset(v for mask, v in singles if _has(members, full ^ mask))
        for v in starts:
            matrix[v] = pegs
        for v in pegs:
            matrix.setdefault(v, starts)  # the complement class
    matrix = {h: matrix[h] for h in range(1, g.n + 1)}
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

    A solve with u unjumps has n - 2 + 2u moves, so the witness is the
    ``_route`` into the set of single-peg states, and the count is its
    unjumps (see the module docstring); calls on one graph share that search.
    Returns None when the start is not solvable at all, at once when it has
    no legal move and more than one peg.
    """
    start = _one_hole_start(g, hole, "min_unjumps")
    check_budget(g.n, memory_budget, witness=True)
    # With one hole and n - 1 >= 2 pegs, the only legal moves jump into the
    # hole over a neighbour that has another neighbour.
    if g.n > 2 and all(g.degree(y) == 1 for y in g.adj[hole]):
        return None
    witness = _route(g, start, _single_peg_levels(g), 1)
    if witness is None:
        return None
    return MinUnjumpResult(witness.unjump_count(), witness)
