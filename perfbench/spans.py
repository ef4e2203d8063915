"""Per-layer spans for the traced run.

The tracer replaces selected revpeg functions with wrappers, in every
revpeg module namespace that holds them, so each caller's own name lookup
(for example ``revpeg.census.classify`` or ``revpeg.construct.h_route``)
goes through a wrapper. A wrapper records one span -- name, start, end,
parent span, operation index and the exception that ended it, if any -- and
may add exact counts from the arguments and result. Spans stay in memory;
``aggregate`` turns one batch of them into per-layer metrics and
``write_jsonl`` writes them out when the run ends.

Nothing here is imported by the untraced run, so untraced timings carry no
wrapper cost.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: Refusals a workload can ask for; a span ending in one of these is not a
#: layer failure. IllegalMoveAt is replay rejecting the corrupted witness
#: that cli-mixed asks ``revpeg verify`` to check.
EXPECTED_REFUSALS = ("NotDoublyFree", "NotSolvableStart", "CapacityExceeded", "IllegalMoveAt")

# Traced functions: (module, attribute, span name). Span names are
# "<layer>.<function>"; the layer is the part before the first dot.
TRACED = (
    ("oracle", "classify", "oracle.classify"),
    ("oracle", "equivalence_partition", "oracle.equivalence_partition"),
    ("oracle", "solve_from", "oracle.solve_from"),
    ("oracle", "witness_to", "oracle.witness_to"),
    ("oracle", "min_unjumps", "oracle.min_unjumps"),
    ("construct", "solve_constructive", "construct.solve_constructive"),
    ("construct", "solve_constructive_to", "construct.solve_constructive_to"),
    ("construct", "shift_hole_onto_h", "construct.shift_hole_onto_h"),
    ("construct", "absorb_nearest_peg", "construct.absorb_nearest_peg"),
    ("construct", "transform_within_h", "construct.transform_within_h"),
    ("construct", "p4_move", "construct.p4_move"),
    ("construct", "solve_path", "construct.solve_path"),
    ("construct", "solve_cycle", "construct.solve_cycle"),
    ("hclasses", "h_route", "hclasses.h_route"),
    ("model", "replay", "model.replay"),
    ("invariants", "doubly_free_predicate", "invariants.doubly_free_predicate"),
    ("invariants", "classify_path", "invariants.closed_form"),
    ("invariants", "classify_cycle", "invariants.closed_form"),
    ("census", "check_graph", "census.check_graph"),
    ("cli", "main", "cli.main"),
    ("graphio", "parse_graph", "graphio.parse_graph"),
    ("graphio", "witness_to_json", "graphio.witness_to_json"),
)

LAYERS = ("oracle", "construct", "hclasses", "model", "invariants", "census", "cli", "graphio")

# Span names whose calls and self time are reported, in report order.
TIMED_SPANS = (
    "oracle.classify",
    "oracle.equivalence_partition",
    "oracle.solve_from",
    "oracle.witness_to",
    "oracle.min_unjumps",
    "construct.solve_constructive",
    "construct.solve_constructive_to",
    "construct.shift_hole_onto_h",
    "construct.absorb_nearest_peg",
    "construct.transform_within_h",
    "construct.p4_move",
    "construct.solve_path",
    "construct.solve_cycle",
    "hclasses.h_route",
    "model.replay",
    "invariants.doubly_free_predicate",
    "invariants.star_certificate_verify",
    "invariants.closed_form",
    "census.check_graph",
    "cli.main",
    "graphio.parse_graph",
    "graphio.witness_to_json",
)

def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in TIMED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["oracle.classify.states_per_s"] = "1/s"
    units["oracle.equivalence_partition.states_per_s"] = "1/s"
    units["oracle.witness.moves"] = "count"
    units["oracle.min_unjumps.count_sum"] = "count"
    units["construct.moves"] = "count"
    units["construct.moves_per_s"] = "1/s"
    units["construct.routing_moves"] = "count"
    units["construct.unjumps_per_n2_max"] = "ratio"
    units["model.replay.moves_per_s"] = "1/s"
    units["invariants.star_certificate_verify.moves_checked"] = "count"
    units["cli.report_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.failed"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Span recorder. Records only while ``active`` is set, so answer checks
    made between operations leave no spans."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unjumps_per_n2_max = 0.0
        self._stack: list[int] = []
        self._last_construct_moves = 0

    def start_batch(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.unjumps_per_n2_max = 0.0

    def wrap(self, name: str, fn, on_result=None):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            tracer.spans.append(None)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[sid] = (name, start, perf(), parent, tracer.op, type(exc).__name__)
                stack.pop()
                raise
            tracer.spans[sid] = (name, start, perf(), parent, tracer.op, None)
            stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function under each name that refers to it in
        the given ``{short name: module}`` map."""
        hooks = _result_hooks()
        pairs = []
        for mod_name, attr, span in TRACED:
            fn = getattr(modules[mod_name], attr)
            pairs.append((fn, self.wrap(span, fn, hooks.get(attr))))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                for fn, wrapper in pairs:
                    if value is fn:
                        setattr(mod, attr, wrapper)
        cert = modules["invariants"].StarCertificate
        cert.verify = self.wrap(
            "invariants.star_certificate_verify", cert.verify, _on_star_verify
        )

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``start_batch``."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        failed = defaultdict(int)
        for name, start, end, parent, _op, exc in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
            if exc is not None and exc not in EXPECTED_REFUSALS:
                failed[name.split(".", 1)[0]] += 1
        out: dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = max(total[name] - child[name], 0.0)
        c = self.counts
        out["oracle.classify.states_per_s"] = _rate(
            c["oracle.classify.states"], out["oracle.classify.self_s"])
        out["oracle.equivalence_partition.states_per_s"] = _rate(
            c["oracle.equivalence_partition.states"],
            out["oracle.equivalence_partition.self_s"])
        out["oracle.witness.moves"] = int(c["oracle.witness.moves"])
        out["oracle.min_unjumps.count_sum"] = int(c["oracle.min_unjumps.count_sum"])
        out["construct.moves"] = int(c["construct.moves"])
        out["construct.moves_per_s"] = _rate(
            c["construct.moves"], total["construct.solve_constructive"])
        out["construct.routing_moves"] = int(c["construct.routing_moves"])
        out["construct.unjumps_per_n2_max"] = self.unjumps_per_n2_max
        out["model.replay.moves_per_s"] = _rate(
            c["model.replay.moves"], out["model.replay.self_s"])
        out["invariants.star_certificate_verify.moves_checked"] = int(
            c["invariants.star_certificate_verify.moves_checked"])
        out["cli.report_bytes"] = int(c["cli.report_bytes"])
        for layer in LAYERS:
            out[f"{layer}.failed"] = failed[layer]
        return out

    def write_jsonl(self, path, batches: list[list[tuple]]) -> None:
        with open(path, "w") as fh:
            for b, spans in enumerate(batches):
                for sid, (name, start, end, parent, op, exc) in enumerate(spans):
                    fh.write(json.dumps({
                        "batch": b, "id": sid, "parent": parent, "op": op,
                        "name": name, "start": start, "end": end, "error": exc,
                    }) + "\n")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _on_classify(t: Tracer, args, result) -> None:
    t.counts["oracle.classify.states"] += 1 << args[0].n


def _on_partition(t: Tracer, args, result) -> None:
    t.counts["oracle.equivalence_partition.states"] += 1 << args[0].n


def _on_solve_from(t: Tracer, args, result) -> None:
    if result is not None:
        t.counts["oracle.witness.moves"] += len(result.witness)


def _on_witness_to(t: Tracer, args, result) -> None:
    if result is not None:
        t.counts["oracle.witness.moves"] += len(result)


def _on_min_unjumps(t: Tracer, args, result) -> None:
    if result is not None:
        t.counts["oracle.min_unjumps.count_sum"] += result.count


def _on_solve_constructive(t: Tracer, args, result) -> None:
    t.counts["construct.moves"] += len(result)
    t._last_construct_moves = len(result)
    n = args[0].n
    t.unjumps_per_n2_max = max(t.unjumps_per_n2_max, result.unjump_count() / (n * n))


def _on_solve_constructive_to(t: Tracer, args, result) -> None:
    # solve_constructive_to solves once with solve_constructive and then
    # routes the lone peg; the routing moves are what it added.
    t.counts["construct.routing_moves"] += len(result) - t._last_construct_moves


def _on_replay(t: Tracer, args, result) -> None:
    t.counts["model.replay.moves"] += len(args[1])


def _on_star_verify(t: Tracer, args, result) -> None:
    t.counts["invariants.star_certificate_verify.moves_checked"] += result.moves_checked


def _result_hooks() -> dict:
    return {
        "classify": _on_classify,
        "equivalence_partition": _on_partition,
        "solve_from": _on_solve_from,
        "witness_to": _on_witness_to,
        "min_unjumps": _on_min_unjumps,
        "solve_constructive": _on_solve_constructive,
        "solve_constructive_to": _on_solve_constructive_to,
        "replay": _on_replay,
    }
