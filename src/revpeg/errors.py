"""Exception hierarchy shared by all revpeg modules."""


class SolitaireError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SolitaireError):
    """A graph or configuration violates a structural invariant."""


class ParseError(SolitaireError):
    """Malformed graph or witness text. Carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityExceeded(SolitaireError):
    """Vertex count or state-table size is beyond the configured limits."""


class DisconnectedGraph(SolitaireError):
    """Operation requires a connected graph."""


class IllegalMove(SolitaireError):
    """Move preconditions (peg/hole pattern or geometry) do not hold."""


class IllegalMoveAt(IllegalMove):
    """Replay hit an illegal move; ``index`` is the 0-based position."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"move {index}: {message}")


class PreconditionFailed(SolitaireError):
    """Caller violated a documented operation precondition."""


class PatternMismatch(SolitaireError):
    """A 4-path does not carry the peg+3-holes or hole+3-pegs pattern."""


class EmbeddingNotFound(SolitaireError):
    """A working tree holds no claw-with-subdivided-edge (the graph H)."""


class NotSameClass(SolitaireError):
    """Requested within-H target lies in the other equivalence class."""


class InvariantViolation(SolitaireError):
    """Defensive: an internal invariant the construction guarantees failed."""


class NotDoublyFree(SolitaireError):
    """The end peg cannot be chosen freely: on a solver graph, no degree-3
    pair is joined by a path of length not divisible by 3; on a path or
    cycle, the target lies outside the hole's end set."""


class NotSolvableStart(SolitaireError):
    """The requested start hole is not solvable for this path or cycle."""


class IllDefined(SolitaireError):
    """The mod-3 binary weighting is ambiguous on this graph."""
