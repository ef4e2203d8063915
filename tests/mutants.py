"""One-line source mutants that the test suite must kill.

Run from anywhere, with pytest installed:

    python tests/mutants.py             # every mutant in the catalogue
    python tests/mutants.py NAME ...    # only the named ones

Each mutant replaces the text ``old`` by ``new`` in one file under ``src/``,
and ``old`` must occur there exactly once. The script copies ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory, checks that the
test files named in the catalogue pass there unmutated, then applies each
mutant in turn and runs ``pytest -x -q`` on the test files named for it. A
mutant is killed when a test fails, or when the run takes longer than
``TIMEOUT_S`` (a mutant can make a search run forever), and survives when
every test passes; the script prints which (a timeout as "timeout"), with
the time taken and the first failing test, and exits 1 if any survived.
Equivalent mutants change no answer, so no test can kill them: they are
listed with the reason, checked to apply exactly once, and not run.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # the slowest named test file takes about 13 s unmutated


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/revpeg
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


CONSTRUCT = "construct.py"
ORACLE = "oracle.py"
KERNELS = ("test_construct_kernels.py",)

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
    Mutant("levels-frontier-less-level-before", ORACLE,
           "    while frontier := _image(levels[-1], g) & ~before:",
           "    while frontier := _image(levels[-1], g):", ("test_oracle.py",)),
    Mutant("route-first-legal-triple", ORACLE,
           "        for x, y, z, mask, on_jump, on_unjump in triples:",
           "        for x, y, z, mask, on_jump, on_unjump in reversed(triples):",
           ("test_kernel_differential.py",)),
    Mutant("levels-lookup-first-level", ORACLE,
           "            return depth\n", "            return len(levels) - 1\n",
           ("test_kernel_differential.py",)),
    Mutant("cli-classify-cross-check", "cli.py",
           "    match = not census_mod.closed_form_mismatches(cls, order, v)",
           "    match = True", ("test_cli.py",)),
    Mutant("cli-solve-cross-check", "cli.py",
           '        ok = res is not None and results["final_pegs"][0] in res.end_pegs',
           "        ok = True", ("test_cli.py",)),
    Mutant("cli-table-cross-check", "cli.py",
           '            row["match"] = not census_mod.closed_form_mismatches(',
           '            row["match"] = True or not census_mod.closed_form_mismatches(',
           ("test_cli.py",)),
    Mutant("closed-form-end-comparison", "census.py",
           "        if cls.matrix[h] != want_ends:", "        if False:", ("test_census.py",)),
    Mutant("replay-pattern-check", "model.py",
           "        if pegs & mask != (bx | by if m.kind is JUMP else bz):",
           "        if False:", ("test_model.py",)),
]

# (mutant, why no test can kill it)
EQUIVALENT = [
    (Mutant("line-first-jump-check", CONSTRUCT,
            "    if not _pattern_ok(pegs, first):", "    if False:", ()),
     "on an odd line the hole shift ends the lone hole on vs[2] with pegs on vs[0] "
     "and vs[1], so the first jump is always legal and the check never fires"),
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


def pytest_run(work: Path, tests, timeout=None) -> tuple[int | None, float, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *(f"tests/{t}" for t in tests)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
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
        files = sorted({t for m in chosen for t in m.tests})
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
            if code not in (0, 1, None):
                print(out)
                raise SystemExit(f"{m.name}: pytest exited {code}")
            survived += code == 0
            by = next((line.split()[1] for line in out.splitlines()
                       if line.startswith("FAILED ")), "")
            status = {0: "survived", 1: "killed", None: "timeout"}[code]
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
