"""One small task of each benchmark workload class (``perfbench/workloads.py``),
run through ``workloads.run_task``: the benchmark driver still speaks the
package's API, and its output checks pass on the current code."""

import importlib.util
import sys
from pathlib import Path

import pytest

from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS
from overlist.listcore import CheckMode

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()

SMALL = {
    "overflow-w8": workloads.Overflow(8),
    "fuzz-invariant": workloads.Fuzz(BALANCED_WEIGHTS, 100, CheckMode.INVARIANT,
                                     scripts_per_task=5, traced_tasks=1),
    "fuzz-full": workloads.Fuzz(ADD_HEAVY_WEIGHTS, 200, CheckMode.FULL,
                                scripts_per_task=1, traced_tasks=1),
    "shrink-faults": workloads.ShrinkFaults(200, traced_tasks=1),
}


@pytest.mark.parametrize("name", SMALL)
def test_one_task_passes_its_checks(name):
    workload = SMALL[name]
    checks = workloads.Checks()
    task = workloads.run_task(workload, workload.inputs(0, 0), checks)
    assert task.ops > 0
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures
