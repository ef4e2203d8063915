"""One-line source mutants that the test suite must kill.

Run from anywhere, with pytest installed:

    python tests/mutants.py             # every mutant in the catalogue
    python tests/mutants.py NAME ...    # only the named ones

Each mutant replaces the text ``old`` by ``new`` in one file under ``src/``,
and ``old`` must occur there exactly once. The script copies ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory, checks that the
test files named in the catalogue pass there unmutated, then applies each
mutant in turn and runs ``pytest -x -q`` on the test files named for it, in
the order named, with its address space capped at ``MEMORY_CAP``. A name may
be a test id (``file::test``): that test runs first, so a mutant that makes
later tests of the file hang is caught by it. A mutant is killed when a
test fails, when the run takes longer than ``TIMEOUT_S`` or when it dies of
the memory cap (a mutant can make a search run forever, growing as it
goes), and survives when every test passes; the script prints which (a
timeout as "timeout", a memory death as "memory"), with the time taken and
the first failing test, and exits 1 if any survived.
Equivalent mutants change no answer, so no test can kill them: they are
listed with the reason, checked to apply exactly once, and not run.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # the slowest named test file takes about 13 s unmutated
MEMORY_CAP = 256 << 20  # bytes; every named test file passes unmutated under 128 MiB


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/revpeg
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/, files or test ids, run in order


CONSTRUCT = "construct.py"
ORACLE = "oracle.py"
KERNELS = ("test_construct_kernels.py",)
CENSUS_FAULTS = ("test_census.py::test_check_graph_reports_each_failed_cross_check",
                 "test_census.py")

CATALOGUE = [
    Mutant("frame-absorb-class-check", CONSTRUCT,
           "            if landed not in (HClass.A, HClass.B):",
           "            if False:", KERNELS),
    Mutant("absorb-table-entry", CONSTRUCT,
           '    ("a", HClass.A): {1: ("b", "acd"), 2: ("b", "ac"), 3: ("b", "a")},',
           '    ("a", HClass.A): {1: ("b", "acd"), 2: ("b", "ac"), 3: ("bd", "a")},',
           ("test_construct.py",)),
    Mutant("hole-entry-table-entry", CONSTRUCT,
           '    ("a", 1): "acd",', '    ("a", 1): "acb",',
           ("test_construct_differential.py",)),
    Mutant("absorb-before-class-check", CONSTRUCT,
           "    if before_class not in (HClass.A, HClass.B):", "    if False:", KERNELS),
    Mutant("absorb-closer-peg-check", CONSTRUCT,
           "    if pegs & plan[0]:", "    if False:", KERNELS),
    Mutant("pegs-left-outside-h-check", CONSTRUCT,
           "    if pegs & ~f.h_mask:", "    if False:", KERNELS),
    Mutant("lone-peg-routing-unreachable-check", CONSTRUCT,
           "    if dist[target] < 0:", "    if False:", ("test_construct.py",)),
    Mutant("lone-peg-routing-target-check", CONSTRUCT,
           "    if pegs != 1 << (target - 1):", "    if False:", ("test_construct.py",)),
    Mutant("p4-pattern-check", CONSTRUCT,
           "    elif state == inner | b3:", "    elif True:", KERNELS),
    Mutant("within-h-pattern-check", CONSTRUCT,
           "        if pegs & mask != legal:", "        if False:", KERNELS),
    # without the frontier rule a search never runs dry: the tests below it
    # hang on their first unreachable target, so a reachable search comes first
    Mutant("levels-frontier-less-level-before", ORACLE,
           "(depth - 1) % 2, g) & ~before)", "(depth - 1) % 2, g))",
           ("test_kernel_differential.py::test_levels_from_the_single_peg_states",
            "test_oracle.py")),
    Mutant("route-first-legal-triple", ORACLE,
           "        for x, y, z, mask, on_jump, on_unjump in triples:",
           "        for x, y, z, mask, on_jump, on_unjump in reversed(triples):",
           ("test_kernel_differential.py",)),
    Mutant("route-walk-full-width-index", ORACLE,
           "level >> ((s ^ mask) >> 1) & 1", "level >> (s ^ mask) & 1",
           ("test_kernel_differential.py",)),
    Mutant("levels-lookup-first-level", ORACLE,
           "        if levels[depth] >> at & 1:\n            return depth\n",
           "        if levels[depth] >> at & 1:\n            return len(levels) - 1\n",
           ("test_kernel_differential.py",)),
    # a level of the other parity can hold index start >> 1: the state that
    # differs from the start in vertex 1 alone
    Mutant("levels-lookup-every-level", ORACLE,
           "    for depth in range(first, len(levels), 2):",
           "    for depth in range(len(levels)):", ("test_kernel_differential.py",)),
    Mutant("levels-new-level-either-parity", ORACLE,
           "        if depth % 2 == first and levels[depth] >> at & 1:",
           "        if levels[depth] >> at & 1:", ("test_kernel_differential.py",)),
    Mutant("parity-masks-swapped", ORACLE,
           "    return (odd,) + bits, (every ^ odd,) + bits",
           "    return (every ^ odd,) + bits, (odd,) + bits", ("test_kernel_differential.py",)),
    Mutant("half-pair-shift-rounding", ORACLE,
           "(x, z, (shift + 1) >> 1)", "(x, z, shift >> 1)",
           ("test_kernel_differential.py::test_image_all_labeled_graphs",
            "test_kernel_differential.py")),
    Mutant("movable-drops-a-pair", ORACLE,
           "_centres(g) for x, z, _ in pairs}", "_centres(g) for x, z, _ in pairs[1:]}",
           ("test_kernel_differential.py",)),
    Mutant("cli-classify-cross-check", "cli.py",
           "    match = cls == closed", "    match = True", ("test_cli.py",)),
    Mutant("cli-solve-cross-check", "cli.py",
           '        ok = res is not None and results["final_pegs"][0] in res.end_pegs',
           "        ok = True", ("test_cli.py",)),
    Mutant("cli-table-cross-check", "cli.py",
           '            row["match"] = cls == Classification(',
           '            row["match"] = True or cls == Classification(',
           ("test_cli.py",)),
    Mutant("render-json-unsorted-keys", "cli.py",
           "for k in sorted(obj)]", "for k in obj]", ("test_cli_golden.py",)),
    Mutant("render-json-item-separator", "cli.py",
           '("," + inner).join(items)', '(", " + inner).join(items)', ("test_cli_golden.py",)),
    Mutant("closed-form-end-comparison", "census.py",
           "        if cls.matrix[h] != closed.matrix[h]:", "        if False:",
           ("test_census.py",)),
    # the census's own cross-checks fail only under fault injection
    Mutant("census-star-certificate-check", "census.py",
           '    if shape == "star" and not star_certificate(g.n).verify().proves_not_solvable:',
           "    if False:", CENSUS_FAULTS),
    Mutant("census-constructive-solve-check", "census.py",
           '            failures.append(f"constructive solve failed from hole {hole}: {exc}")',
           "            pass", CENSUS_FAULTS),
    Mutant("census-end-count-check", "census.py",
           "        if end.peg_count() != 1:", "        if False:", CENSUS_FAULTS),
    Mutant("census-end-peg-check", "census.py",
           "        elif end.peg_vertices()[0] not in ends:", "        elif False:", CENSUS_FAULTS),
    # positions would stand for vertices: right on 1..n in line order only
    Mutant("closed-form-line-translation", "invariants.py",
           "                on_labels[ends] = frozenset(labels[q - 1] for q in ends)\n"
           "            matrix[labels[p - 1]] = on_labels[ends]",
           "                on_labels[ends] = ends\n            matrix[p] = on_labels[ends]",
           ("test_closed_form_differential.py::test_relabeled_lines",)),
    Mutant("replay-pattern-check", "model.py",
           "        if pegs & mask != (bx | by if m.kind is JUMP else bz):",
           "        if False:", ("test_model.py",)),
]

# (mutant, why no test can kill it)
EQUIVALENT = [
    (Mutant("closure-skip-quiet-centre", ORACLE,
            "        if quiet & y_shift:\n            continue", "        if False:\n            continue",
            ()),
     "a centre whose quiet bit is set was applied to the current set and added nothing, "
     "so applying it again adds nothing either: the skip only saves that pass"),
    (Mutant("route-first-triple-break", ORACLE,
            "                s ^= mask\n                break\n", "                s ^= mask\n", ()),
     "a level's states share one peg-count parity and a move changes it, so once "
     "the walk has moved into a level no later triple lands in that level again: "
     "the break only saves the rest of the scan"),
]


def apply(text: str, m: Mutant) -> str:
    count = text.count(m.old)
    if count != 1:
        raise SystemExit(f"{m.name}: {m.old.strip()!r} occurs {count} times in {m.file}")
    return text.replace(m.old, m.new)


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def pytest_run(work: Path, tests, timeout=None) -> tuple[int | None, float, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    # --keep-duplicates: a test id named before its file runs first, then again
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--keep-duplicates", *(f"tests/{t}" for t in tests)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout, preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, ""
    return proc.returncode, time.perf_counter() - t0, proc.stdout + proc.stderr


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE} - {m.name for m, _ in EQUIVALENT}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    for m in chosen + [m for m, _ in EQUIVALENT]:
        apply((ROOT / "src/revpeg" / m.file).read_text(), m)
    survived = 0
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="revpeg-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, work / d, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        files = sorted({t.split("::")[0] for m in chosen for t in m.tests})
        if files:
            code, took, out = pytest_run(work, files)
            if code != 0:
                print(out)
                raise SystemExit(f"unmutated tests fail ({took:.1f} s): {files}")
            print(f"unmutated: {len(files)} test files pass in {took:.1f} s")
        for m in chosen:
            path = work / "src/revpeg" / m.file
            original = path.read_text()
            path.write_text(apply(original, m))
            try:
                code, took, out = pytest_run(work, m.tests, TIMEOUT_S)
            finally:
                path.write_text(original)
            # a memory death is a MemoryError that pytest could not report
            # as a test failure, or a kill by signal
            died = code not in (0, 1, None) and (code < 0 or "MemoryError" in out)
            if code not in (0, 1, None) and not died:
                print(out)
                raise SystemExit(f"{m.name}: pytest exited {code}")
            survived += code == 0
            # the whole test id: a parameter id may hold spaces, and pytest
            # ends the id with " - " when a message follows
            by = next((line[len("FAILED "):].split(" - ")[0] for line in out.splitlines()
                       if line.startswith("FAILED ")), "")
            status = "memory" if died else {0: "survived", 1: "killed", None: "timeout"}[code]
            print(f"{status:8}  {took:5.1f} s  {m.name}  {by}")
    for m, why in EQUIVALENT:
        if not names or m.name in names:
            print(f"equivalent        {m.name}: {why}")
    total = time.perf_counter() - t_start
    print(f"{len(chosen)} run, {len(chosen) - survived} killed, {survived} survived, "
          f"{len(EQUIVALENT)} equivalent, {total:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
