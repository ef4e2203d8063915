"""Every executable ``src/revpeg`` line that no test runs.

Run from anywhere, with pytest installed:

    python tests/linecov.py             # the Tier-1 suite
    python tests/linecov.py ARGS ...    # pytest ARGS instead, e.g. one test file

The script runs pytest in this process under a ``sys.settrace`` tracer that
records each line of a ``src/revpeg`` file as it runs, then prints every
executable line that did not run, as ``file:line  source``. The executable
lines of a file are those of its compiled code objects, read from
``co_lines()``. Lines listed in ``UNRUN`` are printed apart, with the reason
they stay. The script exits 1 when some other line did not run, whatever
the tests' own outcome.

Lines run only in a subprocess or a process pool worker are not seen. Once
every line of a code object has run, its frames are no longer traced, so
the traced suite takes a few times as long as the untraced one, not tens.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "revpeg"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (file, stripped source line) -> why no Tier-1 test runs it
UNRUN: dict[tuple[str, str], str] = {}


def lines_of(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}  # a module starts on line 0


def executable_lines(code) -> set[int]:
    """The executable lines of `code` and of every code object nested in it."""
    out = lines_of(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= executable_lines(const)
    return out


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on `args`, and the lines run per src file."""
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}
    pending: dict = {}  # code object -> its lines not run yet, or None outside src

    def local(frame, event, arg):
        left = pending[frame.f_code]
        left.discard(frame.f_lineno)
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local if left else None

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in pending:
            if code.co_filename.startswith(prefix):
                pending[code] = lines_of(code)
                ran.setdefault(code.co_filename, set())
            else:
                pending[code] = None
        if not pending[code]:
            return None
        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, ran = run_traced(argv or TIER1)
    missed, listed, total = [], [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines - ran.get(str(path), set())):
            text = source.splitlines()[line - 1].strip()
            why = UNRUN.get((path.name, text))
            entry = f"{path.name}:{line}  {text}"
            if why:
                listed.append(f"{entry}\n    ({why})")
            else:
                missed.append(entry)
    print(f"\npytest exited {int(code)}; {len(missed) + len(listed)} of {total} "
          f"executable src/revpeg lines did not run, {len(listed)} of them listed")
    for entry in listed:
        print(f"listed  {entry}")
    for entry in missed:
        print(f"unrun   {entry}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
