"""Smoke test of the benchmark itself (tier-1 collects only ``tests/``):

    python3 -m pytest bench/test_smoke.py -q

Every workload runs once untraced and once traced in ``--smoke`` mode
(1 s windows, 100-device sim arms); the names it prints must be the ones
``BENCHMARK.json`` lists, and ``catalog.LAYERS`` must point every layer
metric at a listed (end-to-end metric, workload) pair.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from catalog import BENCH_DIR, BENCHMARK_JSON, LAYERS, REPO_ROOT, load_contract  # noqa: E402

CONTRACT = load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_smoke(workload: str, trace: int, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CONTRACT["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_contract_is_within_the_drivers_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert os.path.getsize(BENCHMARK_JSON) <= 64 * 1024
    assert CONTRACT["paths"] == [os.path.basename(BENCH_DIR)]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # 4 + 22 runs per workload, each a window plus set-up, within 3420 s.
    assert (4 + 22 * len(WORKLOADS)) * (CONTRACT["run_seconds"] + 12) <= 3420


def test_catalog_matches_contract_and_moves_point_at_listed_pairs():
    assert list(LAYERS) == [m["name"] for m in CONTRACT["per_layer"]]
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    for name, layer in LAYERS.items():
        for metric, workload in layer.moves:
            assert metric in end_to_end, (name, metric)
            assert workload in WORKLOADS, (name, workload)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_exactly_the_listed_names(workload, trace):
    completed = run_smoke(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / os.path.basename(BENCH_DIR),
                    ignore=shutil.ignore_patterns("scratch", "__pycache__"))
    completed = run_smoke(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not completed.stdout.strip()
