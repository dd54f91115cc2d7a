"""Smoke test of the benchmark at a tiny trial count.

    python3 -m pytest perfbench/test_smoke.py -q
"""

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


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args, "--seconds", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


@pytest.mark.parametrize("trace, seed", [(0, 1), (1, 7)])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = result(proc)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def _copy(tmp_path: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)


def test_refuses_to_run_without_the_package(tmp_path):
    _copy(tmp_path, with_sources=False)
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""


def test_gate_rejects_an_error_off_by_a_micrometre(tmp_path):
    _copy(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    assert ref["seed"] == 1
    ref["scenarios"]["fr1-short-widelane"]["trials"][0]["errors"]["ccp"] += 1e-6
    path.write_text(json.dumps(ref))
    proc = bench("--workload", "fr1-short-widelane", "--seed", "1", cwd=tmp_path)
    assert proc.returncode == 1
    line = result(proc)
    assert not line["correct"] and line["failed"] == 1
