"""Tests of the benchmark's own machinery, on small versions of the
workloads. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from overlist import difftest  # noqa: E402
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS  # noqa: E402
from overlist.listcore import CheckMode  # noqa: E402

SEED = 3

SMALL = {
    "overflow-w8": workloads.Overflow(8),
    "fuzz-default": workloads.Fuzz(BALANCED_WEIGHTS, 100, CheckMode.INVARIANT,
                                   scripts_per_task=5, traced_tasks=2),
    "fuzz-full": workloads.Fuzz(ADD_HEAVY_WEIGHTS, 200, CheckMode.FULL,
                                scripts_per_task=1, traced_tasks=2),
    "shrink-faults": workloads.ShrinkFaults(200, traced_tasks=1),
}


def run_tasks(workload, tracer=None):
    checks = workloads.Checks()
    if tracer is None:
        _, tasks = workloads.fixed_pass(workload, SEED, checks)
    else:
        with tracer.installed():
            _, tasks = workloads.fixed_pass(workload, SEED, checks)
    return tasks, checks


def counts(tracer) -> dict:
    return {k: v for k, v in tracer.summary().items() if spans.PER_LAYER[k] == "count"}


def test_wrappers_installed_only_in_traced_run(monkeypatch, tmp_path):
    seen = []
    real = difftest.run_script

    def spy(*args, **kwargs):
        seen.append(bool(spans.installed_wrappers()))
        return real(*args, **kwargs)

    monkeypatch.setattr(difftest, "run_script", spy)
    monkeypatch.setattr(workloads, "ROOT", tmp_path)
    fuzz = SMALL["fuzz-default"]
    assert spans.installed_wrappers() == []

    workloads.measure(fuzz, SEED, 0.0, fuzz.inputs(SEED, 0), workloads.Checks())
    assert seen and not any(seen)

    seen.clear()
    workloads.traced(fuzz, "fuzz-default", SEED, workloads.Checks())
    calls = fuzz.traced_tasks * fuzz.scripts_per_task
    assert seen == [False] * calls + [True] * calls
    assert spans.installed_wrappers() == []
    assert difftest.run_script is spy
    assert (tmp_path / ".bench_out" / f"spans-fuzz-default-{SEED}.bin").stat().st_size > 0


def test_tracer_reaches_copies_and_tables():
    from overlist import ghostspec, listcore

    with spans.Tracer().installed():
        wrapped = set(spans.installed_wrappers())
    assert {"overlist.difftest.oracle_apply", "overlist.ghostspec.oracle_apply",
            "overlist.listcore.OPS['add']", "overlist.listcore.JavaLinkedList.add",
            "overlist.jint.JInt.__post_init__"} <= wrapped
    assert spans.installed_wrappers() == []
    assert listcore.OPS["add"] is vars(listcore.JavaLinkedList)["add"]
    assert ghostspec.oracle_apply is difftest.oracle_apply


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_same_outputs_checks_and_counts(name):
    workload = SMALL[name]
    plain, plain_checks = run_tasks(workload)
    traced, traced_checks = run_tasks(workload, spans.Tracer())
    assert workloads.digest(plain) == workloads.digest(traced)
    assert [t.ops for t in plain] == [t.ops for t in traced]
    assert (plain_checks.attempted, plain_checks.failed) == \
        (traced_checks.attempted, traced_checks.failed)
    assert plain_checks.attempted > 0 and plain_checks.failed == 0, plain_checks.failures


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(name):
    first, second = spans.Tracer(), spans.Tracer()
    run_tasks(SMALL[name], first)
    run_tasks(SMALL[name], second)
    assert counts(first) == counts(second)
    assert counts(first)["jint.JInt.constructed"] > 0


def test_layer_counts_land_where_predicted():
    by_name = {}
    for name, workload in SMALL.items():
        tracer = spans.Tracer()
        run_tasks(workload, tracer)
        by_name[name] = tracer.summary()
    for name in ("overflow-w8", "fuzz-default"):
        assert by_name[name]["heapmodel.snapshot.records"] == 0
    for name in ("overflow-w8", "fuzz-default", "fuzz-full"):
        assert by_name[name]["difftest.shrink.predicate_calls"] == 0
    assert by_name["fuzz-full"]["difftest.steps_at_capacity"] > 0
    assert by_name["fuzz-full"]["heapmodel.snapshot.records"] > 0
    assert by_name["overflow-w8"]["heapmodel.NodeStore.copy.records"] > 0
    assert by_name["overflow-w8"]["cli.main.self_s"] > 0
    shrink = by_name["shrink-faults"]
    assert shrink["difftest.shrink.predicate_calls"] > 0
    assert 0 < shrink["difftest.shrink.accept_ratio"] < 1


def test_spec_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_end_to_end_metric():
    proc = run_bench(BENCH.parent, "--workload", "fuzz-default", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fuzz-default", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
