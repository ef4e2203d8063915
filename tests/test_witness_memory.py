"""Memory held by constructive witnesses, in bytes per move.

A general constructive witness takes its 4-path macro moves and its
within-H walks from caches shared by every witness (``_macro_moves``,
``_h_walk`` in ``revpeg.construct``), so a witness holds little more than
one tuple slot per move. The measure is what ``tracemalloc`` sees still
allocated once 64 witnesses of one seeded graph are built, the frame and
cache entries built on the way included, over the number of moves.

``PYTHONPATH=src python tests/test_witness_memory.py N`` prints the figure
for the seeded graph on N vertices.
"""

import gc
import random
import sys
import tracemalloc

from conftest import random_connected_graph
from revpeg.construct import solve_constructive
from revpeg.families import is_star_shape


def seeded_solver_graph(n, seed=6464):
    """A seeded random tree plus up to two chords on n vertices, redrawn
    until it has a vertex of degree 3 and is not a star."""
    rng = random.Random(seed)
    while True:
        g = random_connected_graph(rng, n, extra=2)
        if g.max_degree() >= 3 and not is_star_shape(g):
            return g


def witness_bytes_per_move(g, count=64):
    """Bytes still allocated per move after building ``count`` witnesses
    of g, from holes 1, 2, ... in turn."""
    gc.collect()
    tracemalloc.start()
    try:
        witnesses = [solve_constructive(g, i % g.n + 1) for i in range(count)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / sum(len(w) for w in witnesses)


def test_n64_witnesses_share_their_moves():
    assert witness_bytes_per_move(seeded_solver_graph(64)) < 30


if __name__ == "__main__":
    n = int(sys.argv[1])
    print(f"n={n}: {witness_bytes_per_move(seeded_solver_graph(n)):.1f} bytes per move "
          "over 64 witnesses")
