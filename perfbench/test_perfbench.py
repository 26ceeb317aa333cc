"""Tests of the benchmark itself, at smoke size: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csgraph

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2 * (1 + trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "generate-4k", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    a, b, c = (inputs.planted_graph(2000, s) for s in (5, 5, 6))
    assert a.digest() == b.digest() != c.digest()
    rows = inputs.stored_embedding(a.truth, 1)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    assert inputs.embedding_text(rows) == inputs.embedding_text(inputs.stored_embedding(a.truth, 1))


def test_planted_graph_is_simple_connected_and_on_spec():
    g = inputs.planted_graph(20_000, 1)
    i, j = g.edges[:, 0], g.edges[:, 1]
    assert (i < j).all() and len(np.unique(i * g.n + j)) == g.m
    assert csgraph.connected_components(g.csr(), directed=False)[0] == 1
    assert g.n > 0.999 * 20_000
    within = g.truth[i] == g.truth[j]
    assert abs(2 * within.sum() / g.n - inputs.DEG_IN) < 0.2
    assert abs(2 * (~within).sum() / g.n - inputs.DEG_OUT) < 0.1
