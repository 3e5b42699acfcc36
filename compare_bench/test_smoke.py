"""Smoke test of the benchmark itself, run from the repository root:

    python3 -m pytest compare_bench/test_smoke.py

Each workload runs at its tiny size in both modes. Every metric that
BENCHMARK.json names must be emitted with its unit, and every run must pass
its output checks. The reference check runs on a tiny pass against
references taken from that pass, and every full-size seed that
references.json covers must have an entry for each of its runs. A directory
without fedsim sources must fail cleanly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH_DIR))

import make_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "compare_bench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0.5", "--trace", str(trace), *extra,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_fails_nothing(workload, trace):
    proc = _bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        # ok_frac is 1 - failed_frac
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "compare_bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_full_size_reference_seed_covers_its_runs(workload):
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))[workload]
    assert sorted(references, key=int) == [str(seed) for seed in range(make_references.SEEDS)]
    for seed in (0, make_references.SEEDS - 1):
        cfg, algorithms = workloads.make_workload(workload, seed)
        assert set(references[str(seed)]) == set(algorithms)
        for algo in algorithms:
            assert set(references[str(seed)][algo]) == {str(s) for s in cfg["run"]["seeds"]}


def test_reference_check_flags_drift_and_missing_entries(tmp_path):
    fedsim = run.load_fedsim()
    cfg, algorithms = workloads.make_workload("trig_high_dim_memory", 3, tiny=True)
    fedsim.compare_experiment(cfg, algorithms, out=str(tmp_path / "compare"))
    outputs = run.read_outputs(tmp_path / "compare", algorithms)
    reference = run.final_values(outputs, cfg)
    assert run.check_outputs(outputs, cfg, reference, outputs)[0] == {}

    seed = str(cfg["run"]["seeds"][0])
    reference["mifa"][seed]["f_gap"] *= 1 + 1e-6
    del reference["mifa_delta"]
    failures = run.check_outputs(outputs, cfg, reference, None)[0]
    assert set(failures) == {("mifa", int(seed))} | {("mifa_delta", s) for s in cfg["run"]["seeds"]}
    assert "f_gap" in failures[("mifa", int(seed))][0]
    assert failures[("mifa_delta", int(seed))][0].startswith("no reference")
