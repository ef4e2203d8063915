"""Command-line front end.

Subcommands: classify, solve, verify, table, census. All structured output
is a single JSON report: exactly the bytes of
``json.dumps(report, indent=2, sort_keys=True)``, written by ``_render_json``
(sorted keys, so identical inputs give identical bytes). --format text
renders the same report as prose. Exit codes: 0 ok, 1 usage or parse error,
2 verdict mismatch / invariant violation / invalid witness, 3 capacity
exceeded. The argument parser is built once per process and reused, so
main() may be called repeatedly with byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str

from . import census as census_mod
from .construct import solve_constructive, solve_constructive_to
from .errors import (
    CapacityExceeded,
    IllegalMoveAt,
    NotDoublyFree,
    NotSolvableStart,
    ParseError,
    PreconditionFailed,
    SolitaireError,
    ValidationError,
)
from .families import cycle_graph, graph_shape, path_graph
from .graphio import (
    classification_to_json,
    family_graph,
    parse_graph,
    serialize_graph,
    witness_from_json,
    witness_to_json,
)
from .invariants import (
    classify_cycle,
    classify_path,
    closed_form,
    star_certificate,
)
from .model import CAPACITY, Graph, MoveSequence, replay, trace
from .oracle import (
    Classification,
    Verdict,
    check_budget,
    classify,
    estimate_state_bytes,
    min_unjumps,
    solve_from,
    witness_to,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3

#: Largest `table --max-n`: row n lists up to n^2 end pegs, so the report
#: grows as max-n^3 (cycles: 5 MB at 128, 19 MB at 200).
TABLE_MAX_N = 128


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bytes(text: str) -> int:
    t = text.strip()
    factor = 1
    for suffix, f in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10),
                      ("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if t.endswith(suffix):
            factor = f
            t = t[: -len(suffix)]
            break
    try:
        size = int(float(t) * factor)
    except (ValueError, OverflowError):
        raise UsageError(f"cannot parse byte size {text!r}")
    if size <= 0:
        raise UsageError(f"byte size must be positive, got {text!r}")
    return size


def load_graph_spec(spec: str) -> Graph:
    """Named family, or a file holding an edge list; an invalid graph is a parse error."""
    try:
        fam = family_graph(spec)
        if fam is not None:
            return fam
        if spec == "-":
            return parse_graph(sys.stdin.read())
        if os.path.exists(spec):
            with open(spec) as fh:
                return parse_graph(fh.read())
    except ValidationError as exc:
        raise ParseError(f"invalid graph {spec!r}: {exc}")
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ParseError(f"cannot read graph {spec!r}: {exc}")
    raise ParseError(
        f"{spec!r} is neither a family spec (path:N, cycle:N, star:N, "
        "doublestar:L,R, H) nor a readable file"
    )


def cmd_classify(args, report: dict) -> int:
    g = load_graph_spec(args.graph)
    report["input"] = {"spec": args.graph, "graph": serialize_graph(g)}
    results: dict = {}
    report["results"] = results
    shape, closed = closed_form(g)
    if shape == "star":
        cert = star_certificate(g.n).verify()
        results["closed_form"] = {"shape": "star", "verdict": closed.verdict.value, "certificate": {
            "leaf_count_preserved": cert.leaf_count_always_preserved,
            "center_toggled": cert.center_always_toggled,
            "proves_not_solvable": cert.proves_not_solvable,
        }}
    elif shape == "solver":
        results["doubly_free_predicate"] = closed.verdict is Verdict.DOUBLY_FREELY_SOLVABLE
    else:
        starts = [h for h in g.vertices() if closed.matrix[h]]
        results["closed_form"] = {
            "shape": shape,
            "verdict": closed.verdict.value,
            "starts": starts,
            "matrix": {str(h): sorted(closed.matrix[h]) for h in starts},
        }
    try:
        cls = classify(g, args.memory_budget)
    except CapacityExceeded as exc:
        results["oracle"] = None
        results["capacity_exceeded"] = str(exc)
        if shape == "solver":
            report["error"] = str(exc)
            return EXIT_CAPACITY
        report["cross_checks"] = []
        return EXIT_OK
    results["oracle"] = classification_to_json(cls)
    report["memory"] = {
        "budget": args.memory_budget,
        "estimated_bytes": estimate_state_bytes(g.n),
    }
    kind = "doubly-free-predicate-vs-oracle" if shape == "solver" else "oracle-vs-closed-form"
    match = cls == closed
    report["cross_checks"] = [{"kind": kind, "match": match}]
    return EXIT_OK if match else EXIT_MISMATCH


def _witness_payload(g: Graph, seq: MoveSequence, want_trace: bool) -> dict:
    """Replay-checked summary of a witness; raises IllegalMoveAt if it does
    not replay."""
    steps = trace(g, seq) if want_trace else None
    final = steps[-1] if steps else replay(g, seq)  # every witness must replay
    payload = {
        "final_pegs": sorted(final.peg_vertices()),
        "moves": len(seq.moves),
        "unjumps": seq.unjump_count(),
    }
    if want_trace:
        payload["trace"] = [sorted(c.peg_vertices()) for c in steps]
    return payload


def cmd_solve(args, report: dict) -> int:
    g = load_graph_spec(args.graph)
    report["input"] = {
        "spec": args.graph,
        "graph": serialize_graph(g),
        "hole": args.hole,
        "method": args.method,
    }
    if args.target is not None:
        report["input"]["target"] = args.target
    results: dict = {}
    report["results"] = results
    seq = solved = None  # solved: the oracle's solve, reused by --cross-check
    if args.method != "constructive":
        report["memory"] = {
            "budget": args.memory_budget,
            "estimated_bytes": estimate_state_bytes(g.n, witness=True),
        }
    if args.method == "min-unjumps" and args.target is not None:
        raise UsageError("--target is not supported with --method min-unjumps")
    if not 1 <= args.hole <= g.n:
        raise PreconditionFailed(f"hole {args.hole} outside 1..{g.n}")
    if args.target is not None and not 1 <= args.target <= g.n:
        raise PreconditionFailed(f"target {args.target} outside 1..{g.n}")
    if args.method == "oracle":
        if args.target is None:
            solved = solve_from(g, args.hole, args.memory_budget)
            if solved is not None:
                seq = solved.witness
                results["end_pegs"] = sorted(solved.end_pegs)
        else:
            seq = witness_to(g, args.hole, args.target, args.memory_budget)
    elif args.method == "min-unjumps":
        res = min_unjumps(g, args.hole, args.memory_budget)
        if res is not None:
            seq = res.witness
            results["min_unjumps"] = res.count
    else:  # constructive
        try:
            if graph_shape(g)[0] == "star":
                results["reason"] = "stars are not solvable"
            elif args.target is not None:
                seq = solve_constructive_to(g, args.hole, args.target)
            else:
                seq = solve_constructive(g, args.hole)
        except NotSolvableStart as exc:
            results["reason"] = str(exc)
        except NotDoublyFree as exc:
            results["reason"] = f"not doubly freely solvable: {exc}"
    if seq is None:
        results.setdefault("solvable", False)
    else:
        results["solvable"] = True
        results.update(_witness_payload(g, seq, args.trace))
        results["witness"] = witness_to_json(seq)
    if seq is not None and args.cross_check:
        res = solved or solve_from(g, args.hole, args.memory_budget)
        ok = res is not None and results["final_pegs"][0] in res.end_pegs
        report["cross_checks"] = [{"kind": "oracle-replay", "match": ok}]
        if not ok:
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args, report: dict) -> int:
    g = load_graph_spec(args.graph)
    try:
        with open(args.witness) as fh:
            seq = witness_from_json(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ParseError(f"cannot read witness {args.witness!r}: {exc}")
    report["input"] = {"spec": args.graph, "witness_file": args.witness}
    try:
        payload = _witness_payload(g, seq, args.trace)
    except IllegalMoveAt as exc:
        report["results"] = {"legal": False, "illegal_move_index": exc.index,
                             "message": str(exc)}
        return EXIT_MISMATCH
    report["results"] = {"legal": True, **payload}
    return EXIT_OK


def cmd_table(args, report: dict) -> int:
    lo = 2 if args.family == "path" else 3
    if args.max_n < lo:
        raise UsageError(f"--max-n must be at least {lo} for {args.family}s, got {args.max_n}")
    if args.max_n > TABLE_MAX_N:
        raise CapacityExceeded(f"table rows list up to n^2 end pegs, so the report grows as "
                               f"n^3; use --max-n <= {TABLE_MAX_N}, got {args.max_n}")
    # `top` is the largest row the oracle would classify. Past n = 20 (about
    # a second) refuse up front: each row costs about 2.5x the one before.
    top = max((n for n in range(lo, min(args.max_n, CAPACITY) + 1)
               if estimate_state_bytes(n) <= args.memory_budget), default=0)
    if top > 20:
        raise CapacityExceeded(f"table would run the exact oracle on {args.family}:{top}; "
                               "use --max-n <= 20 or a --memory-budget under "
                               f"{estimate_state_bytes(21) >> 20}MiB")
    rows = []
    mismatches = 0
    for n in range(lo, args.max_n + 1):
        v = classify_path(n) if args.family == "path" else classify_cycle(n)
        row = {
            "n": n,
            "verdict": v.level.value,
            "starts": sorted(v.admissible_starts),
            "ends": {str(h): sorted(v.end_pegs[h]) for h in sorted(v.end_pegs)},
            "oracle_verdict": None,  # stays None on rows above `top`
            "match": None,
        }
        if n <= top:
            g = path_graph(n) if args.family == "path" else cycle_graph(n)
            cls = classify(g, args.memory_budget)
            row["oracle_verdict"] = cls.verdict.value
            row["match"] = cls == Classification(
                v.level, {h: v.end_pegs.get(h, frozenset()) for h in g.vertices()})
            mismatches += not row["match"]
        rows.append(row)
    report["results"] = {"family": args.family, "rows": rows}
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_census(args, report: dict) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    if args.max_n < 2 and not args.samples:
        raise UsageError(f"--max-n must be at least 2 without --samples, got {args.max_n}")
    # Refuse before enumerating anything: n = 8 has 2^28 edge subsets, and
    # every censused graph goes through the exact oracle.
    if args.max_n >= 8:
        raise CapacityExceeded(
            "census enumerates all 2^(n(n-1)/2) edge subsets; "
            f"--max-n must be at most 7, got {args.max_n}"
        )
    sampled = args.n_range[1] if args.samples > 0 else 1
    check_budget(max(args.max_n, sampled, 1), args.memory_budget)
    tasks: list[tuple[int, tuple]] = []
    for n in range(2, args.max_n + 1):
        for g in census_mod.labeled_connected_graphs(n):
            tasks.append((n, tuple(g.sorted_edges())))
    if args.samples:
        lo, hi = args.n_range
        rng = random.Random(args.seed)
        try:
            for _ in range(args.samples):
                g = census_mod.sample_solver_graph(rng, lo, hi)
                tasks.append((g.n, tuple(g.sorted_edges())))
        except PreconditionFailed as exc:
            raise UsageError(f"--n-range: {exc}")
    # ProcessPoolExecutor starts all its workers at once, so never ask for
    # more than there are cores or tasks.
    workers = min(args.threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costs ~20 ms to import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(census_mod.check_graph_edges, tasks, chunksize=256))
    else:
        records = [census_mod.check_graph_edges(t) for t in tasks]
    by_shape: dict[str, int] = {}
    by_verdict: dict[str, int] = {}
    failures = []
    for rec in records:
        by_shape[rec["shape"]] = by_shape.get(rec["shape"], 0) + 1
        by_verdict[rec["verdict"]] = by_verdict.get(rec["verdict"], 0) + 1
        if rec["failures"]:
            failures.append(rec)
    report["results"] = {
        "graphs_checked": len(records),
        "by_shape": dict(sorted(by_shape.items())),
        "by_verdict": dict(sorted(by_verdict.items())),
        "counterexamples": failures,
    }
    return EXIT_MISMATCH if failures else EXIT_OK


def _render_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, written directly, since
    json's encoder falls back to pure Python when it indents. Ints go through
    ``int.__repr__`` and strs through json's C escaper; every other scalar goes
    to ``json.dumps``. Dict keys must be ``str`` (else ``TypeError``). `pad`
    is a newline and the indent of the enclosing container."""
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is str:
        return _json_str(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_render_json(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_json_str(k)}: {_render_json(obj[k], inner)}" for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(obj)


def _render_text(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags work before or after the subcommand; the subparser
    copies use SUPPRESS so they never clobber a value parsed earlier."""
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--format", choices=("json", "text"), default=d("json"))
    p.add_argument(
        "--memory-budget",
        default=d("2GiB"),
        help="state-table budget for the exact oracle (bytes; K/M/G suffixes)",
    )
    p.add_argument("--threads", type=int, default=d(1))
    p.add_argument("--seed", type=int, default=d(0))
    p.add_argument("--timing", action="store_true",
                   default=argparse.SUPPRESS if suppress else False,
                   help="include wall-clock timing in the report")


@functools.cache  # parse_args keeps no state on the parser
def build_parser() -> _Parser:
    p = _Parser(prog="revpeg", description=__doc__)
    _add_global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        c = sub.add_parser(name, help=help_text)
        _add_global_flags(c, suppress=True)
        return c

    c = add_command("classify", "oracle + closed-form classification")
    c.add_argument("graph")

    s = add_command("solve", "produce a replay-checked witness")
    s.add_argument("graph")
    s.add_argument("--hole", type=int, required=True)
    s.add_argument("--target", type=int)
    s.add_argument(
        "--method",
        choices=("oracle", "constructive", "min-unjumps"),
        default="constructive",
    )
    s.add_argument("--trace", action="store_true",
                   help="emit the configuration after every move")
    s.add_argument("--cross-check", action="store_true",
                   help="also run the oracle and compare")

    v = add_command("verify", "replay a serialized witness")
    v.add_argument("witness")
    v.add_argument("graph")
    v.add_argument("--trace", action="store_true")

    t = add_command("table", "closed-form vs oracle tables")
    t.add_argument("--family", choices=("path", "cycle"), required=True)
    t.add_argument("--max-n", type=int, default=12)

    n = add_command("census", "exhaustive + sampled trichotomy check")
    n.add_argument("--max-n", type=int, default=6)
    n.add_argument("--samples", type=int, default=0)
    n.add_argument("--n-range", default="7:10",
                   help="sampled graph sizes, LO:HI")
    return p


_COMMANDS = {
    "classify": cmd_classify,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "table": cmd_table,
    "census": cmd_census,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.memory_budget = _parse_bytes(args.memory_budget)
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        if hasattr(args, "n_range") and isinstance(args.n_range, str):
            lo, _, hi = args.n_range.partition(":")
            args.n_range = (int(lo), int(hi or lo))
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report: dict = {"command": args.command}
    started = time.monotonic()
    try:
        code = _COMMANDS[args.command](args, report)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityExceeded as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PreconditionFailed, NotSolvableStart, SolitaireError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_MISMATCH
    if args.timing:
        report["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    report["exit_code"] = code
    if args.format == "json":
        print(_render_json(report))
    else:
        print("\n".join(_render_text(report)))
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
