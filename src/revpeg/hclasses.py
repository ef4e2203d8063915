"""The two equivalence classes of configurations on the 5-vertex graph H.

H is the claw with one subdivided edge: letters a..e map to vertices 1..5
with edges a-c, b-c, c-d, d-e. All 32 peg configurations on H fall into two
14-element mutual-reachability classes (single-peg representatives: a for
class A, c for class B) plus four frozen configurations (empty, full, abd,
ce). The class table is closed form: a configuration is frozen when
a = b = d and c = e, and otherwise in class A when an odd number of a, b,
d, e hold pegs and in class B when an even number do. Only the within-H
routes come from the exact oracle's search over the 32 states; the known
chains serve as test vectors.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .errors import NotSameClass
from .families import h_graph
from .model import Move
from .oracle import shortest_route

LETTERS = "abcde"


def letter_mask(letters: str) -> int:
    """5-bit peg mask from letter notation, e.g. 'ace' -> pegs on a, c, e."""
    mask = 0
    for ch in letters:
        mask |= 1 << LETTERS.index(ch)
    return mask


def mask_letters(mask: int) -> str:
    return "".join(ch for i, ch in enumerate(LETTERS) if mask >> i & 1)


class HClass(enum.Enum):
    A = "A"
    B = "B"
    ISOLATED = "Isolated"
    EMPTY_OR_FULL = "Empty-or-Full"


def _closed_class(mask: int) -> HClass:
    a, b, c, d, e = (mask >> i & 1 for i in range(5))
    if a == b == d and c == e:
        return HClass.EMPTY_OR_FULL if mask in (0, 31) else HClass.ISOLATED
    return HClass.A if (a + b + d + e) % 2 else HClass.B


CLASS_BY_MASK = tuple(_closed_class(m) for m in range(32))  # indexed by the abstract mask


def class_table() -> dict[int, HClass]:
    return dict(enumerate(CLASS_BY_MASK))


def h_class_of(mask: int) -> HClass:
    return CLASS_BY_MASK[mask]


@lru_cache(maxsize=1024)
def h_route(src: int, dst: int) -> tuple[Move, ...]:
    """Shortest within-H move sequence from peg-mask src to dst.

    Moves are on the abstract labels 1..5 (= a..e); raises NotSameClass when
    the two masks are not mutually reachable.
    """
    if src == dst:
        return ()
    route = shortest_route(h_graph(), src, dst)
    if route is None:
        raise NotSameClass(
            f"{mask_letters(src) or 'empty'} and {mask_letters(dst) or 'empty'} "
            "lie in different H classes"
        )
    return route.moves
