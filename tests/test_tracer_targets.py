"""The traced benchmark wraps named functions and methods of the package
(``perfbench/spans.py``, ``TARGETS``). Renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``; this test fails first. Its hooks
also read the package's calls: ``oracle_apply`` must stay one call per
script step under ``run_script``, returning ``(verdict, state)``."""

import importlib.util
from pathlib import Path

import pytest

from overlist import difftest
from overlist.difftest import OpScript
from overlist.heapmodel import NULL
from overlist.listcore import CheckMode

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_installs_and_uninstalls():
    spans = load_spans()
    with spans.Tracer().installed():
        installed = spans.installed_wrappers()
        for modname, qualname, _, _ in spans.TARGETS:
            assert f"{modname}.{qualname}" in installed, qualname
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
def test_one_oracle_step_per_script_step_under_run_script(mode):
    """The run's coverage counts come from ``oracle_apply`` calls made
    directly under ``run_script``, one per step and policy, each handing
    back the state it edited: the longest unbounded length is the final
    one of an add-then-query script, and a step at capacity is one whose
    unbounded state holds at least the maximum size after it."""
    spans = load_spans()
    steps = ((("add", (NULL,)),) * 150 + (("size", ()), ("get", (3,)), ("index_of", (NULL,))))
    tracer = spans.Tracer()
    with tracer.installed():
        result = difftest.run_script(OpScript(0, 8, steps), mode)
    oracle, script = tracer.names.index("oracle.oracle_apply"), tracer.names.index("difftest.run_script")
    direct = [i for i, name in enumerate(tracer.name_of)
              if name == oracle and tracer.name_of[tracer.parent[i]] == script]
    assert len(direct) == tracer.counts["oracle.oracle_apply.calls"] == 2 * len(steps)
    assert tracer.counts["oracle.oracle_apply.items_copied"] == 0
    final = len(result.oracles["unchecked"].items)
    assert tracer.counts["difftest.max_true_length"] == final == 150
    assert tracer.counts["difftest.steps_at_capacity"] == (150 - 127 + 1) + 3
