"""The benchmark's own tests, at smoke size (a few seconds per run).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPORTED = {"setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib",
            "failed_ops_ratio", "setup_raw_s", "wall_raw_s", "ops_raw_per_s", "op_p50_raw_ms",
            "reference_kernel_ms"}
ENVIRONMENT = {"python", "nproc", "cpu_model", "seed", "commit", "source_sha256"}


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report["end_to_end"]) == REPORTED
    assert all(v["unit"] for v in report["end_to_end"].values())
    assert report["end_to_end"]["failed_ops_ratio"]["value"] == 0
    assert report["end_to_end"]["op_p90_ms"]["samples"] > 0
    assert ENVIRONMENT <= set(report["environment"])
    assert report["environment"]["seed"] == 3
    assert len(report["digest"]) == 64 and report["digest_items"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_repeats_counts(workload):
    units = per_layer_metric_units()
    counts = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        report, result = parse(proc)
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert (ROOT / report["spans_file"]).is_file()
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]


def test_answer_digest_depends_on_the_seed_only():
    digests = [parse(bench("--workload", "construct-64", "--seed", s))[0]["digest"]
               for s in ("1", "1", "2")]
    assert digests[0] == digests[1] != digests[2]


def test_a_wrong_expectation_is_counted_as_a_failed_operation():
    proc = bench("--workload", "census-small", "--break-expectation")
    assert proc.returncode == 1
    report, result = parse(proc)
    assert not result["correct"] and result["failed"] > 0
    assert report["end_to_end"]["failed_ops_ratio"]["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle-large", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
