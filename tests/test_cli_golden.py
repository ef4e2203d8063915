"""Golden CLI corpus: every report must stay byte-identical.

Each case runs ``cli.main`` inside ``tests/data`` (so file specs in the
reports are relative) and compares the exit code and the exact stdout with
``tests/data/cli_golden.json``. After an intended report change, rewrite
the corpus with ``PYTHONPATH=src python tests/test_cli_golden.py``: it
prints the argv of each case whose entry changed and how many stayed the
same. Review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from revpeg.cli import build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

CASES = [
    ["classify", "path:7"],
    ["classify", "path:8"],
    ["classify", "cycle:7"],
    ["classify", "cycle:8"],
    ["classify", "star:6"],
    ["classify", "H"],
    ["classify", "doublestar:2,2"],
    ["classify", "doublestar:3,1"],
    ["classify", "graph.txt"],
    ["classify", "relabeled_path.txt"],
    ["classify", "relabeled_cycle.txt"],
    ["--format", "text", "classify", "cycle:6"],
    ["--memory-budget", "1K", "classify", "path:20"],
    ["solve", "path:9", "--hole", "3"],
    ["solve", "path:7", "--hole", "1"],
    ["solve", "cycle:9", "--hole", "2"],
    ["solve", "relabeled_cycle.txt", "--hole", "4", "--trace"],
    ["solve", "star:5", "--hole", "2"],
    ["solve", "graph.txt", "--hole", "1", "--cross-check"],
    ["solve", "doublestar:2,2", "--hole", "3", "--target", "6",
     "--method", "constructive", "--cross-check"],
    ["solve", "doublestar:3,1", "--hole", "1", "--target", "2"],
    ["solve", "path:9", "--hole", "3", "--method", "oracle"],
    ["solve", "doublestar:2,2", "--hole", "1", "--method", "oracle", "--trace"],
    ["solve", "cycle:8", "--hole", "1", "--target", "5", "--method", "oracle"],
    ["solve", "path:7", "--hole", "1", "--method", "oracle"],
    ["solve", "graph.txt", "--hole", "5", "--method", "oracle", "--cross-check"],
    ["solve", "path:4", "--hole", "2", "--method", "min-unjumps"],
    ["solve", "graph.txt", "--hole", "2", "--method", "min-unjumps", "--trace"],
    ["solve", "H", "--hole", "3", "--method", "min-unjumps"],
    ["verify", "witness.json", "doublestar:2,2"],
    ["verify", "witness.json", "doublestar:2,2", "--trace"],
    ["verify", "bad_witness.json", "doublestar:2,2"],
    ["verify", "witness.json", "path:6"],
    ["table", "--family", "path", "--max-n", "12"],
    ["table", "--family", "cycle", "--max-n", "12"],
    ["--memory-budget", "64K", "table", "--family", "cycle", "--max-n", "14"],
    ["--format", "text", "table", "--family", "path", "--max-n", "6"],
    ["census", "--max-n", "4"],
    ["--seed", "5", "census", "--max-n", "2", "--samples", "3", "--n-range", "7:9"],
]


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


def test_corpus_covers_every_case(golden):
    assert set(golden) == {tuple(a) for a in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_bytes_unchanged(argv, golden, monkeypatch):
    monkeypatch.chdir(DATA)
    assert run_case(argv) == golden[tuple(argv)]


def test_reused_parser_carries_no_state(golden, monkeypatch):
    # one process, one parser: every case forward, then usage errors and
    # --help, then every case in reverse; each report stays byte-identical
    monkeypatch.chdir(DATA)
    for argv in CASES:
        assert run_case(argv) == golden[tuple(argv)]
    assert main(["solve", "path:4"]) == 1  # missing --hole
    assert main(["nonsense"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    for argv in reversed(CASES):
        assert run_case(argv) == golden[tuple(argv)]
    assert build_parser() is build_parser()


if __name__ == "__main__":
    old = {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}
    os.chdir(DATA)
    cases = [run_case(a) for a in CASES]
    changed = [c["argv"] for c in cases if old.get(tuple(c["argv"])) != c]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    for argv in changed:
        print("changed:", " ".join(argv))
    print(f"{len(changed)} changed, {len(cases) - len(changed)} unchanged")
