"""The benchmark's own output checks, one pass of each workload at each benchmark seed.

``verdict_bench`` is imported read-only: its modules are loaded without writing
bytecode beside them, and every scenario and output file goes to a temp dir.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from anece_lab import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEEDS = (5001, 7, 24, 53, 234, 1310)
BENCH_MODULES = ("run", "workloads", "checks", "tracer")


@pytest.fixture(scope="module")
def bench():
    """``verdict_bench``'s ``run`` and ``workloads`` modules."""
    path, no_bytecode = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "verdict_bench"))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, no_bytecode
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_pass_has_no_failed_operation_or_problem(bench, tmp_path, workload, seed):
    run, workloads = bench
    _, ops = workloads.build(workload, seed, str(tmp_path))
    _, outputs = run.run_pass(cli, ops)
    assert run.check_outputs(ops, [outputs]) == (0, [])
