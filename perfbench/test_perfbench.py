"""The benchmark's own tests, on the smoke (tiny) workloads.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, cell_key

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_emits_every_declared_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert not isinstance(m["value"], bool)


@pytest.mark.parametrize("trace, field",
                         [(0, "digest"), (1, "words"), (1, "p")])
def test_corrupted_reference_is_reported_as_failed_cells(tmp_path, trace,
                                                         field):
    table = json.loads(REFERENCE.read_text())
    seed = WORKLOADS["smoke"]["catalog"].manifest_seeds(3)[0]
    key = cell_key("smoke", "mt19937", 0, seed, "gap")
    entry = table["cells"][key]
    entry[field] = entry[field] + 1 if field == "words" else "0" * 24
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(table))

    proc = bench("--workload", "catalog", "--seconds", "0",
                 "--trace", str(trace), "--reference", str(corrupted))
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    # one corrupted cell, seen once at --trace 0 and by the traced session
    assert result["failed"] == 1


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "catalog", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
