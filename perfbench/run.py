"""revpeg benchmark: seeded workloads, end-to-end metrics, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one workload in this process, single-threaded. Set-up (a fresh
import of revpeg from ``src/``, seeded input generation and a warm-up batch
at smoke size) is repeated and its median reported as ``setup_s``. The run
then repeats the workload's batch of operations, checking every answer
between operations and outside the timing, and starts no batch it expects to
end after ``--seconds``. ``--trace 1`` alternates untraced and traced
batches and reports per-layer metrics from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the full report: every end-to-end metric with its unit, the answer
digest and the environment. ``--workload all`` runs each workload in its own
process, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from checks import CheckFailed, Checker  # noqa: E402
from speed import SpeedReference  # noqa: E402
from workloads import SIZES, WORKLOADS, build  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"full": 7, "smoke": 2}

#: End-to-end metrics the benchmark gates on, with units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

REVPEG_MODULES = ("errors", "model", "families", "oracle", "hclasses", "quaternion",
                  "invariants", "construct", "graphio", "census", "cli")


def fresh_import() -> dict:
    """Import revpeg from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "revpeg" or m.startswith("revpeg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("revpeg")
    if Path(pkg.__file__).resolve().parent != (SRC / "revpeg").resolve():
        raise ImportError(f"revpeg imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"revpeg.{name}") for name in REVPEG_MODULES}
    mods["revpeg"] = pkg
    return mods


class Outcome:
    """Operation and failure counts, first errors and the answer digest of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest_items: list | None = None

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")


def evaluate(op, result, error, checker: Checker):
    """The operation's digest entry; raises CheckFailed on a wrong answer."""
    if error is not None:
        name = type(error).__name__
        checker.expect(op.refusal == name, f"raised {name}: {error}")
        return f"refused:{name}"
    checker.expect(op.refusal is None, f"expected {op.refusal}, got an answer")
    return op.check(result)


def run_batch(ops, checker: Checker, outcome: Outcome, speed=None, tracer=None):
    """Run every operation once, sampling ``speed`` between operations.
    Returns ((start, end) of each operation, digest entries)."""
    perf = time.perf_counter
    intervals = []
    digest = []
    for i, op in enumerate(ops):
        if speed is not None:
            speed.maybe_sample()
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        error = result = None
        t0 = perf()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation must not stop the run
            error = exc
        intervals.append((t0, perf()))
        if tracer is not None:
            tracer.active = False
        if speed is not None:
            speed.maybe_sample()  # brackets a long operation with samples
        outcome.attempted += 1
        try:
            digest.append([op.label, evaluate(op, result, error, checker)])
        except CheckFailed as exc:
            outcome.fail(op.label, str(exc))
        except Exception:  # a crashing check is a failed operation too
            outcome.fail(op.label, traceback.format_exc(limit=3))
    return intervals, digest


def typical_batch(batches: list[list[float]]) -> float:
    """Seconds of one batch: the sum over its operations of each
    operation's median latency across batches. Interference from outside
    the process hits a few operations of some batches; the per-operation
    median drops it where a median of whole batches would not."""
    return sum(statistics.median(op) for op in zip(*batches))


def setup(args, workdir: str, outcome: Outcome, tracer, checker: Checker):
    """Import, generate inputs and warm up; returns (modules, ops, start, end).

    The operations' checks report to ``checker``; the warm-up batch runs at
    smoke size with a checker of its own.
    """
    t0 = time.perf_counter()
    rp = fresh_import()
    ops = build(args.workload, rp, args.seed, args.size, workdir, tracer, checker)
    warm_checker = Checker()
    warm = build(args.workload, rp, args.seed, "smoke", workdir, None, warm_checker)
    run_batch(warm, warm_checker, outcome)
    return rp, ops, t0, time.perf_counter()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "revpeg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": args.seed,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> int:
    outcome = Outcome()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        checker = Checker(args.break_expectation)
        tracer = None
        if args.trace:
            from spans import Tracer, per_layer_metric_units
            tracer = Tracer()
        speed = SpeedReference()
        setups = []
        for _ in range(SETUP_REPS[args.size]):
            speed.sample()
            rp, ops, t0, t1 = setup(args, workdir, outcome, tracer, checker)
            setups.append((t0, t1))
        speed.sample()
        if tracer is not None:
            tracer.install(rp)
        batches = {False: [], True: []}  # (start, end) of each operation, by traced
        layer_batches: list[dict] = []
        span_batches: list[list] = []
        started = time.perf_counter()
        longest = 0.0
        traced = False
        while True:
            t0 = time.perf_counter()
            if traced:
                tracer.start_batch()
            intervals, digest = run_batch(ops, checker, outcome, speed, tracer if traced else None)
            if outcome.digest_items is None:
                outcome.digest_items = digest
            batches[traced].append(intervals)
            if traced:
                layer_batches.append(tracer.aggregate())
                span_batches.append(tracer.spans)
            longest = max(longest, time.perf_counter() - t0)
            if args.trace:
                traced = not traced
            done = not args.trace or (batches[True] and batches[False])
            if done and time.perf_counter() - started + longest > args.seconds:
                break
        speed.sample()
        raw = {mode: [[e - s for s, e in b] for b in bs] for mode, bs in batches.items()}
        scaled = {mode: [[(e - s) * speed.scale(s, e) for s, e in b] for b in bs]
                  for mode, bs in batches.items()}
        wall = typical_batch(scaled[False])
        raw_wall = typical_batch(raw[False])
        latencies = [x for lat in scaled[False] for x in lat]
        raw_latencies = [x for lat in raw[False] for x in lat]
        report = {
            "workload": args.workload,
            "size": args.size,
            "batches": len(batches[False]) + len(batches[True]),
            "ops_per_batch": len(ops),
            "end_to_end": {
                "setup_s": {"value": statistics.median(
                    (e - s) * speed.scale(s, e) for s, e in setups), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "ops_per_s": {"value": len(ops) / wall, "unit": "1/s"},
                "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "op_p90_ms": p90_entry(latencies),
                "setup_raw_s": {"value": statistics.median(e - s for s, e in setups), "unit": "s"},
                "wall_raw_s": {"value": raw_wall, "unit": "s"},
                "ops_raw_per_s": {"value": len(ops) / raw_wall, "unit": "1/s"},
                "op_p50_raw_ms": {"value": 1000 * statistics.median(raw_latencies), "unit": "ms"},
                "reference_kernel_ms": {"value": 1000 * speed.median(), "unit": "ms"},
                "peak_rss_mib": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MiB",
                },
                "failed_ops_ratio": {
                    "value": outcome.failed / max(outcome.attempted, 1), "unit": "ratio"},
            },
            "digest": hashlib.sha256(
                json.dumps(outcome.digest_items, sort_keys=True).encode()).hexdigest(),
            "digest_items": len(outcome.digest_items),
            "environment": environment(args),
            "errors": outcome.errors,
        }
        if args.trace:
            units = per_layer_metric_units()
            per_layer = {
                name: statistics.median_low(b[name] for b in layer_batches)
                for name in units if name != "trace.overhead_s"
            }
            per_layer["trace.overhead_s"] = typical_batch(scaled[True]) - wall
            report["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path, span_batches)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            metrics = report["per_layer"]
        else:
            metrics = {k: report["end_to_end"][k] for k in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, entry in report["end_to_end"].items():
        extra = f"  ({entry['samples']} samples)" if "samples" in entry else ""
        print(f"{args.workload:14s} {name:18s} {entry['value']!s:>24} {entry['unit']}{extra}")
    print(json.dumps({"report": report}, sort_keys=True))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def p90_entry(latencies: list[float]) -> dict:
    """p90 only when at least ten samples lie beyond it."""
    entry = {"unit": "ms", "samples": len(latencies)}
    if len(latencies) >= 100:
        entry["value"] = 1000 * percentile(latencies, 0.9)
    else:
        entry["value"] = None
    return entry


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.break_expectation:
            cmd.append("--break-expectation")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    correct = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}/{k}": v for w, r in results.items() if r
                    for k, v in r["metrics"].items()},
    }))
    return code or (0 if correct else 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="smoke: small inputs, for the benchmark's own tests")
    p.add_argument("--break-expectation", action="store_true",
                   help="self-test: invert the first answer check")
    args = p.parse_args(argv)
    if not (SRC / "revpeg" / "__init__.py").is_file():
        print(f"revpeg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
