"""Answer checks that use the benchmark's own reference code.

Each check raises ``CheckFailed`` through ``Checker.expect``. With
``sabotage`` set, the checker inverts the first expectation it is given:
the benchmark's self-test uses this to feed one wrong expectation and see
the run report a failed operation.
"""

from __future__ import annotations

from collections import deque


class CheckFailed(Exception):
    pass


class Checker:
    def __init__(self, sabotage: bool = False) -> None:
        self.sabotage = sabotage

    def expect(self, ok: bool, message: str) -> None:
        if self.sabotage:
            self.sabotage = False
            ok = not ok
        if not ok:
            raise CheckFailed(message)


def _path_triples(adj, n: int):
    """(x, y, z) for every ordered path x-y-z, from plain adjacency lists."""
    return [
        (x, y, z)
        for y in range(1, n + 1)
        for x in adj[y]
        for z in adj[y]
        if x != z
    ]


def jump_only_solvable(adj, n: int, hole: int) -> bool:
    """Whether jumps alone take the one-hole start down to one peg.

    A jump on x-y-z needs pegs on x and y and a hole on z; it removes the
    pegs on x and y and puts one on z. Every jump removes a peg, so the
    search is finite without any move limit.
    """
    jumps = []
    for x, y, z in _path_triples(adj, n):
        need = (1 << (x - 1)) | (1 << (y - 1))
        jumps.append((need, 1 << (z - 1), need | (1 << (z - 1))))
    start = ((1 << n) - 1) ^ (1 << (hole - 1))
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        if s & (s - 1) == 0:
            return s != 0
        for need, hole_bit, flip in jumps:
            if s & need == need and not s & hole_bit:
                t = s ^ flip
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return False


def verdict_from_matrix(matrix: dict, n: int) -> str:
    """The verdict the start-hole -> end-peg matrix implies."""
    full = frozenset(range(1, n + 1))
    rows = [matrix[h] for h in range(1, n + 1)]
    if not any(rows):
        return "NotSolvable"
    if all(r == full for r in rows):
        return "DoublyFreelySolvable"
    if all(rows):
        return "FreelySolvable"
    return "Solvable"


def line_matrix(closed_form, n: int) -> dict:
    """A path or cycle closed form as a full matrix over holes 1..n, for
    graphs labeled in line order."""
    return {h: frozenset(closed_form.end_pegs.get(h, ())) for h in range(1, n + 1)}


def mod3_weights(adj, n: int, base: int) -> list[int]:
    """Weight 0 on vertices at distance 0 mod 3 from ``base``, 1 elsewhere.

    On a graph whose branch vertices all lie at distance 0 mod 3 from each
    other along every path, every 3-path carries exactly two weight-1
    vertices, so every move keeps the peg-weight sum's parity.
    """
    dist = [-1] * (n + 1)
    dist[base] = 0
    queue = deque((base,))
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [0] + [0 if dist[v] % 3 == 0 else 1 for v in range(1, n + 1)]


def sorted_matrix(matrix: dict) -> dict:
    return {str(h): sorted(matrix[h]) for h in sorted(matrix)}
