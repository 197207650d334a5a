"""Self-check of the benchmark, kept out of the tier-1 suite:

    python3 -m pytest perfbench -q

Runs the 24x10 ``tiny`` instance, on which all six solvers run end to end
in a few seconds, and checks that the result line holds exactly the metrics
BENCHMARK.json names, with their units.
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
SOLVER_RUNS = (
    "sgd_manifold",
    "sgd_manifold_adaptive",
    "sgd_euclidean",
    "sgd_pw",
    "als_manifold",
    "als_euclidean",
    "als_pw",
)


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(trace, key):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: mv["unit"] for name, mv in result["metrics"].items()} == expected
    values = {name: mv["value"] for name, mv in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        # every solver ran, and each family's layer functions were traced
        assert all(values[f"solvers.{label}.self_s"] > 0 for label in SOLVER_RUNS)
        for fn in ("stoch_grad_manifold", "stoch_grad_euclidean", "stoch_grad_pw",
                   "full_grad_manifold", "full_grad_euclidean", "full_grad_pw"):
            assert values[f"model.{fn}.calls"] > 0, fn
        assert values["geometry.qf.calls"] == 2 * values["geometry.retract.calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
