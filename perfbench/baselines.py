"""Re-measure the ROADMAP's baseline rows, for comparison with its figures.

    python3 perfbench/baselines.py [--seed 0]

Rows: ``classify`` on seeded oracle-large graphs at n = 16, 18 and 20
(ROADMAP: 0.43 s, 2.4 s and 12.6 s), and the median time of one
constructive solve, and of its replay, over every hole of a seeded doubly
free graph at n = 64 and n = 800 (ROADMAP: 0.84 s per solve at n = 800).
A row that revpeg refuses up front, such as n = 800 while
``model.CAPACITY`` is 64, is reported as absent with the refusal, not as a
failure. Prints one JSON object. Takes about a minute, most of it in
classify at n = 20.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import doubly_free_edges, oracle_graph_edges  # noqa: E402


def timed(fn, repeats: int) -> float:
    """Median seconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from revpeg import construct, errors, model, oracle

    rows = []
    for n, roadmap_s in ((16, 0.43), (18, 2.4), (20, 12.6)):
        g = model.Graph(n, oracle_graph_edges(random.Random(f"baseline:{args.seed}:{n}"), n))
        seconds = timed(lambda: oracle.classify(g), 3 if n < 20 else 1)
        rows.append({"row": f"classify n={n}", "seconds": seconds, "roadmap_seconds": roadmap_s,
                     "states_per_s": (1 << n) / seconds})
    for n, roadmap_s in ((64, None), (800, 0.84)):
        row = {"row": f"solve_constructive n={n}", "roadmap_seconds": roadmap_s}
        try:
            g = model.Graph(n, doubly_free_edges(random.Random(f"baseline:{args.seed}:{n}"), n))
        except errors.CapacityExceeded as exc:
            row.update(absent=True, reason=str(exc))
            rows.append(row)
            continue
        solve, replay, moves = [], [], []
        for hole in range(1, n + 1):
            t0 = time.perf_counter()
            seq = construct.solve_constructive(g, hole)
            t1 = time.perf_counter()
            model.replay(g, seq)
            solve.append(t1 - t0)
            replay.append(time.perf_counter() - t1)
            moves.append(len(seq))
        row.update(seconds=statistics.median(solve), replay_seconds=statistics.median(replay),
                   moves=statistics.median(moves), holes=n)
        rows.append(row)
    print(json.dumps({"seed": args.seed, "rows": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
