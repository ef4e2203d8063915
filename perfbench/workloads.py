"""The four workloads: seeded inputs, timed operations and their checks.

Each workload turns a seed into a fixed list of operations (one batch).
An operation's ``run`` is the timed call into revpeg; its ``check`` runs
afterwards, untimed, and returns the operation's entry in the answer digest
(or None to leave it out). ``refusal`` names the exception the input calls
for, when the correct answer is a refusal.

Every call into revpeg goes through a module attribute looked up at call
time (``oracle.classify``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import heapq
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from checks import (
    jump_only_solvable,
    line_matrix,
    mod3_weights,
    sorted_matrix,
    verdict_from_matrix,
)

WORKLOADS = ("oracle-large", "census-small", "construct-64", "cli-mixed")
SIZES = ("full", "smoke")


class Op:
    __slots__ = ("label", "run", "check", "refusal")

    def __init__(self, label, run, check, refusal=None):
        self.label = label
        self.run = run
        self.check = check
        self.refusal = refusal


# ---------------------------------------------------------------------------
# Seeded graph generators (edge lists; the caller builds revpeg Graphs)
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, degrees: list[int]) -> list[tuple[int, int]]:
    """Uniform random labeled tree with the given degree multiset, decoded
    from a shuffled Pruefer sequence. Labels get degrees in random order."""
    k = len(degrees)
    degrees = degrees[:]
    rng.shuffle(degrees)
    deg = [0] + degrees
    seq = [v for v in range(1, k + 1) for _ in range(deg[v] - 1)]
    rng.shuffle(seq)
    leaves = [v for v in range(1, k + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def leaf_chords(rng: random.Random, k: int, edges, count: int) -> list[tuple[int, int]]:
    """Add ``count`` edges, each joining two distinct current leaves, so the
    maximum degree stays the same."""
    edges = list(edges)
    for _ in range(count):
        deg = [0] * (k + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        leaves = [v for v in range(1, k + 1) if deg[v] == 1]
        present = set(edges)
        pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]
                 if (a, b) not in present]
        edges.append(rng.choice(pairs))
    return edges


def subcubic_degrees(n: int, branch: int) -> list[int]:
    """``branch`` vertices of degree 3, ``branch + 2`` leaves, the rest 2."""
    return [3] * branch + [1] * (branch + 2) + [2] * (n - 2 * branch - 2)


def oracle_graph_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Connected non-star graph with a degree-3 vertex: a subcubic tree with
    n // 4 branch vertices plus one chord between two leaves. The fixed
    degree sequence fixes the number of move triples, so the oracle's work
    per state does not depend on the seed."""
    return leaf_chords(rng, n, random_tree(rng, subcubic_degrees(n, n // 4)), 1)


def doubly_free_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Subcubic tree plus two leaf chords, redrawn until two branch vertices
    are adjacent: a path of length 1 between them makes the graph doubly
    freely solvable."""
    while True:
        edges = leaf_chords(rng, n, random_tree(rng, subcubic_degrees(n, n // 4)), 2)
        deg = [0] * (n + 1)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if any(deg[u] >= 3 and deg[v] >= 3 for u, v in edges):
            return edges


def subdivided_edges(rng: random.Random, k: int) -> tuple[int, list[tuple[int, int]]]:
    """A subcubic tree on k vertices plus one leaf chord, with every edge
    replaced by a 3-edge path. All paths between branch vertices, and the
    one cycle, then have length divisible by 3, so the graph is freely but
    not doubly freely solvable. Returns (3k, edges)."""
    branch = (k - 2) // 2
    base = leaf_chords(rng, k, random_tree(rng, subcubic_degrees(k, branch)), 1)
    edges = []
    nxt = k + 1
    for u, v in base:
        a, b = nxt, nxt + 1
        nxt += 2
        edges += [(u, a), (a, b), (b, v)]
    return nxt - 1, [(min(u, v), max(u, v)) for u, v in edges]


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


def build(name: str, rp: dict, seed: int, size: str, workdir: str, tracer, checker) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    builder = {
        "oracle-large": _oracle_large,
        "census-small": _census_small,
        "construct-64": _construct_64,
        "cli-mixed": _cli_mixed,
    }[name]
    workdir = os.path.join(workdir, size)  # the warm-up builds the smoke size alongside
    os.makedirs(workdir, exist_ok=True)
    return builder(rp, rng, size == "smoke", workdir, tracer, checker)


def _replays_to(rp, checker, g, seq, hole: int, allowed, what: str) -> int:
    """Replay a witness from the one-hole start; expect one peg in ``allowed``."""
    checker.expect(seq.start.pegs == ((1 << g.n) - 1) ^ (1 << (hole - 1)),
                   f"{what}: witness does not start from hole {hole}")
    end = rp["model"].replay(g, seq)
    pegs = end.peg_vertices()
    checker.expect(len(pegs) == 1 and pegs[0] in allowed,
                   f"{what}: witness ends on {list(pegs)}, allowed {sorted(allowed)}")
    return pegs[0]


def _oracle_large(rp, rng, smoke, workdir, tracer, checker) -> list[Op]:
    oracle, inv, fam = rp["oracle"], rp["invariants"], rp["families"]
    Graph = rp["model"].Graph
    all_ops = ("classify", "equivalence_partition", "solve_from", "witness_to", "min_unjumps")
    if smoke:
        general = [(9, all_ops), (10, all_ops)]
        lines = [("path", 9), ("cycle", 9)]
    else:
        general = [(14, ("classify", "solve_from", "min_unjumps")), (16, all_ops),
                   (16, all_ops), (18, ("classify",))]
        lines = [("path", 16), ("cycle", 16), ("path", 17), ("cycle", 17), ("path", 18)]
    ops: list[Op] = []
    classified: dict[str, dict] = {}

    def classify_op(key, g, closed_form):
        def check(cls):
            m = {h: cls.matrix.get(h, frozenset()) for h in range(1, g.n + 1)}
            classified[key] = m
            checker.expect(cls.verdict.value == verdict_from_matrix(m, g.n),
                           f"{key}: verdict {cls.verdict.value} disagrees with its matrix")
            if closed_form is not None:
                cf = closed_form(g.n)
                checker.expect(m == line_matrix(cf, g.n) and cls.verdict is cf.level,
                               f"{key}: oracle matrix differs from the closed form")
            else:
                checker.expect(cls.verdict.value in ("FreelySolvable", "DoublyFreelySolvable"),
                               f"{key}: non-star graph with a degree-3 vertex is {cls.verdict.value}")
                full = frozenset(range(1, g.n + 1))
                checker.expect(inv.doubly_free_predicate(g) == all(r == full for r in m.values()),
                               f"{key}: doubly_free_predicate disagrees with the oracle matrix")
            return {"verdict": cls.verdict.value, "matrix": sorted_matrix(m)}
        return Op(f"{key} classify", lambda: oracle.classify(g), check)

    for i, (n, names) in enumerate(general):
        g = Graph(n, oracle_graph_edges(rng, n))
        key = f"g{i}:n{n}"
        hole, peg, mu_hole = rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)
        ops.append(classify_op(key, g, None))
        if "equivalence_partition" in names:
            def check_partition(part, g=g, key=key):
                m = classified[key]
                sizes = [len(b) for b in part.blocks]
                covered = frozenset().union(*part.blocks)
                checker.expect(sum(sizes) == 1 << g.n and len(covered) == 1 << g.n,
                               f"{key}: blocks do not partition the 2^n states")
                full = (1 << g.n) - 1
                for h in range(1, g.n + 1):
                    block = part.block_of(rp["model"].Configuration(g.n, full ^ (1 << (h - 1))))
                    singles = frozenset(s.bit_length() for s in block if s & (s - 1) == 0 and s)
                    checker.expect(singles == m[h],
                                   f"{key}: class of hole {h} holds pegs {sorted(singles)}")
                return {"blocks": sorted(sizes)}
            ops.append(Op(f"{key} equivalence_partition",
                          lambda g=g: oracle.equivalence_partition(g), check_partition))
        if "solve_from" in names:
            def check_solve(res, g=g, key=key, hole=hole):
                ends = classified[key][hole]
                if res is None:
                    checker.expect(not ends, f"{key}: solve_from({hole}) found nothing")
                    return None
                checker.expect(res.end_pegs == ends, f"{key}: solve_from({hole}) end pegs differ")
                _replays_to(rp, checker, g, res.witness, hole, {min(ends)}, f"{key} solve_from")
                return {"ends": sorted(res.end_pegs), "moves": len(res.witness)}
            ops.append(Op(f"{key} solve_from", lambda g=g, h=hole: oracle.solve_from(g, h),
                          check_solve))
        if "witness_to" in names:
            def check_witness(seq, g=g, key=key, hole=hole, peg=peg):
                reachable = peg in classified[key][hole]
                checker.expect((seq is not None) == reachable,
                               f"{key}: witness_to({hole},{peg}) disagrees with the matrix")
                if seq is None:
                    return None
                _replays_to(rp, checker, g, seq, hole, {peg}, f"{key} witness_to")
                return len(seq)
            ops.append(Op(f"{key} witness_to",
                          lambda g=g, h=hole, p=peg: oracle.witness_to(g, h, p), check_witness))
        if "min_unjumps" in names:
            def check_min(res, g=g, key=key, hole=mu_hole):
                ends = classified[key][hole]
                checker.expect((res is None) == (not ends),
                               f"{key}: min_unjumps({hole}) disagrees with the matrix")
                if res is None:
                    return None
                _replays_to(rp, checker, g, res.witness, hole, ends, f"{key} min_unjumps")
                checker.expect(res.witness.unjump_count() == res.count,
                               f"{key}: min_unjumps witness has another unjump count")
                return res.count
            ops.append(Op(f"{key} min_unjumps",
                          lambda g=g, h=mu_hole: oracle.min_unjumps(g, h), check_min))
    for shape, n in lines:
        maker = fam.path_graph if shape == "path" else fam.cycle_graph
        closed = inv.classify_path if shape == "path" else inv.classify_cycle
        ops.append(classify_op(f"{shape}:{n}", maker(n), closed))
    return ops


def _census_small(rp, rng, smoke, workdir, tracer, checker) -> list[Op]:
    census, oracle, model = rp["census"], rp["oracle"], rp["model"]
    Graph = model.Graph
    if smoke:
        max_full, n6, sampled = 4, 4, {7: 1, 8: 1}
    else:
        max_full, n6, sampled = 5, 200, {7: 8, 8: 8, 9: 8, 10: 8}
    graphs = []
    for n in range(2, max_full + 1):
        graphs += list(census.labeled_connected_graphs(n))
    pairs6 = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    while n6:
        g = Graph(6, [e for e in pairs6 if rng.random() < 0.5])
        if model.is_connected(g):
            graphs.append(g)
            n6 -= 1
    for n, count in sampled.items():
        graphs += [census.sample_solver_graph(rng, n, n) for _ in range(count)]

    def make(g):
        def run():
            record = census.check_graph(g)
            return record, [oracle.min_unjumps(g, h) for h in range(1, g.n + 1)]

        def check(result):
            record, mins = result
            what = record["graph"]
            checker.expect(not record["failures"], f"{what}: {record['failures']}")
            cls = oracle.classify(g)
            checker.expect(record["verdict"] == cls.verdict.value,
                           f"{what}: census verdict differs from classify")
            counts = []
            for h, res in enumerate(mins, start=1):
                ends = cls.matrix[h]
                checker.expect((res is None) == (not ends),
                               f"{what}: min_unjumps({h}) disagrees with the matrix")
                if res is None:
                    counts.append(None)
                    continue
                _replays_to(rp, checker, g, res.witness, h, ends, f"{what} min_unjumps")
                checker.expect(res.witness.unjump_count() == res.count,
                               f"{what}: min_unjumps({h}) witness has another unjump count")
                if g.n <= 10:
                    checker.expect((res.count == 0) == jump_only_solvable(g.adj, g.n, h),
                                   f"{what}: min_unjumps({h}) = {res.count} disagrees "
                                   "with the jump-only search")
                counts.append(res.count)
            return {"shape": record["shape"], "verdict": record["verdict"], "min_unjumps": counts}
        return Op(f"n{g.n}", run, check)

    return [make(g) for g in graphs]


def _construct_64(rp, rng, smoke, workdir, tracer, checker) -> list[Op]:
    construct, census, model, inv, fam = (
        rp["construct"], rp["census"], rp["model"], rp["invariants"], rp["families"])
    Graph = model.Graph
    if smoke:
        free_ns, sub_ks, lines, targets = [12], [6], [("path", 12), ("cycle", 10)], 2
    else:
        free_ns, sub_ks = [56, 60, 62, 64], [18, 19, 20, 21]
        lines, targets = [("path", 60), ("cycle", 64)], 8
    ops: list[Op] = []

    def solved(g, fn):
        def run():
            seq = fn()
            return seq, model.replay(g, seq)
        return run

    def one_peg(what, g, hole, allowed_of, item="ok"):
        def check(result):
            seq, end = result
            pegs = end.peg_vertices()
            checker.expect(seq.start.pegs == ((1 << g.n) - 1) ^ (1 << (hole - 1)),
                           f"{what}: witness does not start from hole {hole}")
            checker.expect(len(pegs) == 1 and allowed_of(pegs[0]),
                           f"{what}: witness ends on {list(pegs)}")
            return item
        return check

    for i, n in enumerate(free_ns):
        g = Graph(n, doubly_free_edges(rng, n))
        key = f"free{i}:n{n}"
        for h in range(1, n + 1):
            ops.append(Op(f"{key} solve", solved(g, lambda g=g, h=h: construct.solve_constructive(g, h)),
                          one_peg(f"{key} solve({h})", g, h, lambda p: True)))
        for _ in range(targets):
            h, t = rng.randint(1, n), rng.randint(1, n)
            ops.append(Op(f"{key} solve_to",
                          solved(g, lambda g=g, h=h, t=t: construct.solve_constructive_to(g, h, t)),
                          one_peg(f"{key} solve_to({h},{t})", g, h, lambda p, t=t: p == t,
                                  item={"target": t})))
    for i, k in enumerate(sub_ks):
        n, edges = subdivided_edges(rng, k)
        g = Graph(n, edges)
        key = f"subdivided{i}:n{n}"
        base = next(v for v in range(1, n + 1) if len(g.adj[v]) >= 3)
        w = mod3_weights(g.adj, n, base)
        total = sum(w) % 2
        for h in range(1, n + 1):
            parity = (total - w[h]) % 2
            ops.append(Op(f"{key} solve", solved(g, lambda g=g, h=h: construct.solve_constructive(g, h)),
                          one_peg(f"{key} solve({h})", g, h,
                                  lambda p, w=w, parity=parity: w[p] == parity)))
        for _ in range(max(1, targets // 4)):
            h, t = rng.randint(1, n), rng.randint(1, n)
            ops.append(Op(f"{key} solve_to",
                          lambda g=g, h=h, t=t: construct.solve_constructive_to(g, h, t),
                          None, refusal="NotDoublyFree"))
    for shape, n in lines:
        g = (fam.path_graph if shape == "path" else fam.cycle_graph)(n)
        cf = (inv.classify_path if shape == "path" else inv.classify_cycle)(n)
        for h in range(1, n + 1):
            label = f"{shape}:{n} line_solver"
            if h in cf.admissible_starts:
                ops.append(Op(label, solved(g, lambda g=g, h=h: census.line_solver_witness(g, h)),
                              one_peg(f"{label}({h})", g, h, lambda p, e=cf.end_pegs[h]: p in e)))
            else:
                ops.append(Op(label, lambda g=g, h=h: census.line_solver_witness(g, h),
                              None, refusal="NotSolvableStart"))
    return ops


def _cli_mixed(rp, rng, smoke, workdir, tracer, checker) -> list[Op]:
    cli, graphio, oracle, construct, model, inv = (
        rp["cli"], rp["graphio"], rp["oracle"], rp["construct"], rp["model"], rp["invariants"])
    Graph = model.Graph

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    # Twelve graphs of one size give each request kind a tight cluster of
    # latencies, so the median does not hinge on one seeded graph.
    sizes = (7, 8) if smoke else (11,) * 12
    files = []
    graphs = []
    for i, n in enumerate(sizes):
        graphs.append(Graph(n, oracle_graph_edges(rng, n)))
        files.append(write(f"g{i}.txt", graphio.serialize_graph(graphs[-1]) + "\n"))
    big = Graph(16, oracle_graph_edges(rng, 16))
    big_file = write("g16.txt", graphio.serialize_graph(big) + "\n")
    witness_files = []
    for i in range(2):
        seq = construct.solve_constructive(graphs[i], rng.randint(1, sizes[i]))
        witness_files.append((files[i], write(f"w{i}.json", json.dumps(graphio.witness_to_json(seq)))))
    bad = graphio.witness_to_json(seq)
    bad["moves"][0]["kind"] = "unjump" if bad["moves"][0]["kind"] == "jump" else "jump"
    bad_file = write("bad.json", json.dumps(bad))

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        if tracer is not None and tracer.active:
            tracer.counts["cli.report_bytes"] += len(text.encode())
        return code, text

    ops: list[Op] = []

    def request(argv, want_code, check):
        def checked(result):
            code, text = result
            checker.expect(code == want_code, f"{argv}: exit {code}, expected {want_code}")
            return check(json.loads(text) if text else None)
        ops.append(Op(" ".join(argv[:1]), lambda: call(argv), checked))

    def oracle_matrix(g):
        cls = oracle.classify(g)
        return cls.verdict.value, sorted_matrix({h: cls.matrix[h] for h in cls.matrix})

    def classify_check(g, closed=None):
        def check(report):
            res = report["results"]
            checker.expect(all(c["match"] for c in report["cross_checks"]),
                           f"classify: cross-check mismatch {report['cross_checks']}")
            verdict, matrix = oracle_matrix(g)
            got = res["oracle"]
            checker.expect(got["verdict"] == verdict and got["matrix"] == matrix,
                           "classify: report differs from the oracle")
            if closed is not None:
                cf = closed(g.n)
                want = sorted_matrix(line_matrix(cf, g.n))
                checker.expect(got["matrix"] == want and got["verdict"] == cf.level.value,
                               "classify: report differs from the closed form")
            return {"verdict": got["verdict"], "matrix": got["matrix"]}
        return check

    for g, f in zip(graphs, files):
        request(["classify", f], 0, classify_check(g))
    fam = rp["families"]
    line_n = 8 if smoke else 12
    request(["classify", f"path:{line_n}"], 0, classify_check(fam.path_graph(line_n), inv.classify_path))
    request(["classify", f"cycle:{line_n}"], 0, classify_check(fam.cycle_graph(line_n), inv.classify_cycle))
    request(["classify", "doublestar:3,4"], 0, classify_check(fam.double_star(3, 4)))
    request(["classify", "H"], 0, classify_check(fam.h_graph()))

    def star_check(report):
        res = report["results"]
        cert = res["closed_form"]["certificate"]
        checker.expect(res["oracle"]["verdict"] == "NotSolvable" and cert["proves_not_solvable"],
                       "classify star: not refuted")
        return res["oracle"]["verdict"]

    for n in ((6, 7) if smoke else (12, 14)):
        request(["classify", f"star:{n}"], 0, star_check)

    def solve_check(g, hole, target=None, method="constructive"):
        def check(report):
            res = report["results"]
            matrix = oracle.classify(g).matrix
            ends = matrix[hole]
            if target is None:
                allowed = ends
            elif method == "oracle":
                allowed = ends & {target}
            else:  # routing to a target needs a doubly freely solvable graph
                doubly = all(len(matrix[h]) == g.n for h in matrix)
                allowed = {target} if doubly else set()
            checker.expect(res["solvable"] == bool(allowed),
                           f"solve {method}: hole {hole} target {target} solvable is "
                           f"{res['solvable']}, allowed end pegs {sorted(allowed)}")
            if not allowed:
                return res.get("reason", "unsolvable")
            seq = graphio.witness_from_json(res["witness"])
            final = _replays_to(rp, checker, g, seq, hole, allowed, f"solve {method}")
            checker.expect(res["final_pegs"] == [final] and res["moves"] == len(seq),
                           f"solve {method}: report disagrees with its witness")
            for c in report.get("cross_checks", []):
                checker.expect(c["match"], f"solve {method}: cross-check mismatch")
            if method == "min-unjumps":
                checker.expect(res["min_unjumps"] == seq.unjump_count(),
                               "solve min-unjumps: count differs from its witness")
                return res["min_unjumps"]
            if method == "oracle":
                return len(seq)
            return final if target is not None else None
        return check

    for g, f in zip(graphs, files):
        h, t = rng.randint(1, g.n), rng.randint(1, g.n)
        request(["solve", f, "--hole", str(h), "--method", "oracle"], 0, solve_check(g, h, None, "oracle"))
        request(["solve", f, "--hole", str(h), "--method", "oracle", "--target", str(t)], 0,
                solve_check(g, h, t, "oracle"))
        request(["solve", f, "--hole", str(h)], 0, solve_check(g, h))
        request(["solve", f, "--hole", str(h), "--target", str(t), "--cross-check"], 0,
                solve_check(g, h, t))
        request(["solve", f, "--hole", str(h), "--method", "min-unjumps"], 0,
                solve_check(g, h, None, "min-unjumps"))
    cycle_n = 9 if smoke else 15
    cf = inv.classify_cycle(cycle_n)
    h = rng.choice(sorted(cf.admissible_starts))
    request(["solve", f"cycle:{cycle_n}", "--hole", str(h), "--cross-check"], 0,
            solve_check(fam.cycle_graph(cycle_n), h))
    path_n = 10 if smoke else 14
    cf = inv.classify_path(path_n)
    refused = rng.choice([v for v in range(1, path_n + 1) if v not in cf.admissible_starts])

    def refused_check(report):
        res = report["results"]
        checker.expect(not res["solvable"] and "not solvable" in res["reason"],
                       "solve path: inadmissible hole was not refused")
        return "refused"
    request(["solve", f"path:{path_n}", "--hole", str(refused)], 0, refused_check)

    for gf, wf in witness_files:
        def verify_check(report):
            res = report["results"]
            checker.expect(res["legal"] and len(res["final_pegs"]) == 1,
                           "verify: constructive witness rejected")
            return res["moves"] > 0
        request(["verify", wf, gf], 0, verify_check)

    def bad_check(report):
        res = report["results"]
        checker.expect(not res["legal"] and res["illegal_move_index"] == 0,
                       "verify: corrupted witness accepted")
        return res["illegal_move_index"]
    request(["verify", bad_file, witness_files[-1][0]], 2, bad_check)

    def table_check(report):
        rows = report["results"]["rows"]
        checker.expect(all(r["match"] for r in rows), "table: closed form and oracle disagree")
        return [r["verdict"] for r in rows]
    for family in ("path", "cycle"):
        request(["table", "--family", family, "--max-n", "8" if smoke else "12"], 0, table_check)

    request(["--memory-budget", "64K" if smoke else "1M", "classify", big_file], 3,
            lambda report: "refused")
    return ops
