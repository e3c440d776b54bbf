"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, as the benchmark's
users do, and checks that each prints every metric BENCHMARK.json names,
with its unit, and that the metric table here agrees with BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Unbounded rates an untraced run prints, for the stages its pass runs.
_RATES = dict(metrics.STAGE_ONLY)
_ORACLE = [("oracle_frames_per_s", "frames/s")]
UNBOUNDED = {
    "text-io": list(_RATES.items()) + _ORACLE,
    "train-full": _ORACLE,
    "learn-small": [("extract_frames_per_s", _RATES["extract_frames_per_s"])] + _ORACLE,
}


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == ["text-io", "train-full", "learn-small"]
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]
    assert e2e == metrics.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == metrics.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower") and m["unit"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["text-io", "train-full", "learn-small"])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
               "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        lines = proc.stdout.splitlines()
        for name, unit in UNBOUNDED[workload]:
            assert any(ln.startswith(name + " ") and ln.endswith(" " + unit) for ln in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "text-io", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
