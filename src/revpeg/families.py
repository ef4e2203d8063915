"""Named graph families and shape detectors.

Families follow fixed labelings: paths and cycles are numbered along the
line, stars put the center on vertex 1, double stars put the two centers on
1 and 2, and the claw-with-subdivided-edge graph H uses 1..5 for a..e with
edges 1-3, 2-3, 3-4, 4-5. The constructors pass their edges as generators,
so ``Graph`` refuses an n above its cap before any edge exists.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ValidationError
from .model import Graph, bfs, is_connected


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError(f"path needs n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError(f"cycle needs n >= 3, got {n}")
    return Graph(n, ((i, i % n + 1) for i in range(1, n + 1)))


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: center 1 joined to 2..n."""
    if n < 2:
        raise ValidationError(f"star needs n >= 2, got {n}")
    return Graph(n, ((1, v) for v in range(2, n + 1)))


def double_star(left: int, right: int) -> Graph:
    """Centers 1 and 2 joined by an edge; `left` pendants on 1, `right` on 2."""
    if left < 0 or right < 0:
        raise ValidationError("pendant counts must be non-negative")
    n = 2 + left + right
    return Graph(n, ((1 if v <= 2 + left else 2, v) for v in range(2, n + 1)))


def h_graph() -> Graph:
    """The claw with one subdivided edge, on vertices a..e = 1..5."""
    return Graph(5, [(1, 3), (2, 3), (3, 4), (4, 5)])


def paw_graph() -> Graph:
    """Triangle 1-2-3 with pendant 4 attached to 3."""
    return Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])


def is_star_shape(g: Graph) -> bool:
    """K_{1,n-1} with n >= 3 under any labeling."""
    if g.n < 3 or len(g.edges) != g.n - 1:
        return False
    return g.max_degree() == g.n - 1


def path_order(g: Graph) -> list[int] | None:
    """Vertices of g in line order if g is a path, else None.

    A path is a connected graph with n - 1 edges and two leaves; its BFS
    order from the smaller leaf is the line order.
    """
    if g.n == 1:
        return [1]
    ends = [v for v in g.vertices() if g.degree(v) == 1]
    if len(g.edges) != g.n - 1 or len(ends) != 2:
        return None
    order = bfs(g.adj, (ends[0],))[2]
    return order if len(order) == g.n else None


def cycle_order(g: Graph) -> list[int] | None:
    """Vertices of g in cyclic order if g is a cycle, else None.

    Starts at vertex 1 and turns toward its smaller neighbor.
    """
    if g.n < 3 or len(g.edges) != g.n:
        return None
    if any(g.degree(v) != 2 for v in g.vertices()):
        return None
    if not is_connected(g):
        return None
    order = [1, min(g.neighbors(1))]
    while len(order) < g.n:
        a, b = order[-2], order[-1]
        # b has degree 2 and a is one neighbour, so the other is the next vertex
        order.append(next(w for w in g.neighbors(b) if w != a))
    return order


def graph_shape(g: Graph) -> tuple[str | None, list[int]]:
    """The paper's case split: ("path" or "cycle", line order), ("star" for
    K_{1,n-1} with n >= 4 or "solver", 1..n) for a connected graph with a
    degree-3 vertex, and (None, 1..n) for a disconnected graph. Decided once
    per graph; every call gets its own copy of the order."""
    shape, order = _graph_shape(g)
    return shape, list(order)


@lru_cache(maxsize=256)
def _graph_shape(g: Graph) -> tuple[str | None, tuple[int, ...]]:
    if g.max_degree() >= 3:
        shape = ("star" if is_star_shape(g) else "solver") if is_connected(g) else None
        return shape, tuple(g.vertices())
    order = path_order(g)
    if order is not None:
        return "path", tuple(order)
    order = cycle_order(g)
    return ("cycle", tuple(order)) if order is not None else (None, tuple(g.vertices()))
