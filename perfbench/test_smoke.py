"""Smoke test of the benchmark: one short round per workload.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
with the attempted and failed counts, and that the checks can fail: a
wrong translation in ``satax`` and a flipped expected verdict in
``registry`` must each be reported as failed operations.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "3", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_round_prints_every_metric(workload: str, trace: str) -> None:
    code, result = bench("--workload", workload, "--trace", trace)
    assert code == 0
    assert_metrics(result, SPEC["per_layer" if trace == "1" else "end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_broken_translation_fails_satax_trials() -> None:
    code, result = bench("--workload", "satax", "--trace", "0", "--fault", "broken-translate")
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_flipped_expectation_fails_one_registry_check() -> None:
    code, result = bench("--workload", "registry", "--trace", "0", "--fault", "flip-verdict")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    code, result = bench("--workload", "registry", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
