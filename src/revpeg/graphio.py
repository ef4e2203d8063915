"""Text and JSON formats.

Graphs travel as edge lists: a first line "n m" followed by m lines "u v"
(1-indexed). Graph specs also accept the named families "path:N",
"cycle:N", "star:N" (= K_{1,N-1}), "doublestar:L,R" and "H". Witnesses and
classifications serialize to the JSON shapes documented in the README.
"""

from __future__ import annotations

import re

from .errors import ParseError, ValidationError
from .families import cycle_graph, double_star, h_graph, path_graph, star_graph
from .model import Configuration, Graph, Move, MoveKind, MoveSequence

_FAMILY_RE = re.compile(r"^(path|cycle|star|doublestar):([0-9, ]+)$")


def family_graph(spec: str) -> Graph | None:
    """Build a named-family graph from a spec string, or None if not one."""
    spec = spec.strip()
    if spec == "H":
        return h_graph()
    m = _FAMILY_RE.match(spec)
    if not m:
        return None
    name, args = m.group(1), m.group(2)
    # _FAMILY_RE leaves only ASCII digits in each token, so int() cannot fail
    nums = [int(a) for a in args.replace(",", " ").split()]
    if name == "doublestar":
        if len(nums) != 2:
            raise ParseError(f"doublestar takes L,R, got {spec!r}")
        return double_star(*nums)
    if len(nums) != 1:
        raise ParseError(f"{name} takes a single vertex count, got {spec!r}")
    maker = {"path": path_graph, "cycle": cycle_graph, "star": star_graph}[name]
    return maker(nums[0])


def parse_graph(text: str) -> Graph:
    """Parse a named family or an edge-list document into a Graph."""
    fam = family_graph(text)
    if fam is not None:
        return fam
    lines = text.splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines)]
    rows = [(ln, s) for ln, s in rows if s and not s.startswith("#")]
    if not rows:
        raise ParseError("empty graph document")
    ln, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", line=ln)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer header {header!r}", line=ln)
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln, s in rows[1:]:
        ps = s.split()
        if len(ps) != 2:
            raise ParseError(f"expected 'u v', got {s!r}", line=ln)
        try:
            u, v = int(ps[0]), int(ps[1])
        except ValueError:
            raise ParseError(f"non-integer edge {s!r}", line=ln)
        edges.append((u, v))
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines)


def configuration_to_json(c: Configuration) -> dict:
    return {"n": c.n, "pegs": list(c.peg_vertices())}


def _json_int(value, field: str) -> int:
    """`value` when it is a JSON integer; a float, bool or string is refused,
    not converted."""
    if type(value) is not int:
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def configuration_from_json(obj: dict) -> Configuration:
    try:
        n = _json_int(obj["n"], "configuration n")
        pegs = [_json_int(v, "configuration peg") for v in obj["pegs"]]
        if len(set(pegs)) < len(pegs):
            v = next(v for i, v in enumerate(pegs) if v in pegs[i + 1 :])
            raise ParseError(f"configuration peg {v} is repeated")
        return Configuration.from_vertices(n, pegs)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad configuration object: {exc}")
    except ValidationError as exc:
        raise ParseError(f"configuration {'n' if n < 1 else 'pegs'}: {exc}")


def move_to_json(m: Move) -> dict:
    return {"kind": m.kind.value, "x": m.x, "y": m.y, "z": m.z}


def move_from_json(obj: dict) -> Move:
    try:
        kind = MoveKind(obj["kind"])
        x, y, z = (_json_int(obj[f], f"move {f}") for f in "xyz")
        return Move(kind, x, y, z)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad move object: {exc}")


def witness_to_json(seq: MoveSequence) -> dict:
    return {
        "start": configuration_to_json(seq.start),
        "moves": [move_to_json(m) for m in seq.moves],
    }


def witness_from_json(obj: dict) -> MoveSequence:
    try:
        start = configuration_from_json(obj["start"])
        moves = tuple(move_from_json(m) for m in obj["moves"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad witness object: {exc}")
    return MoveSequence(start, moves)


def classification_to_json(classification) -> dict:
    return {
        "verdict": classification.verdict.value,
        "matrix": {
            str(h): sorted(classification.matrix[h]) for h in sorted(classification.matrix)
        },
    }
