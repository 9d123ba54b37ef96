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


def traced_run(steps, mode, faults=frozenset()):
    """The tracer's counts over one ``run_script``, and the number of
    ``oracle_apply`` calls made directly under it."""
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        result = difftest.run_script(OpScript(0, 8, steps), mode, faults=faults)
    oracle, script = tracer.names.index("oracle.oracle_apply"), tracer.names.index("difftest.run_script")
    direct = [i for i, name in enumerate(tracer.name_of)
              if name == oracle and tracer.name_of[tracer.parent[i]] == script]
    return result, tracer.counts, len(direct)


@pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
def test_one_oracle_step_per_script_step_under_run_script(mode):
    """The run's coverage counts come from ``oracle_apply`` calls made
    directly under ``run_script``, one per step and policy that runs,
    each handing back the state it edited: the longest unbounded length
    is the final one of an add-then-query script, and a step at capacity
    is one whose unbounded state holds at least the maximum size after
    it. Below capacity, outside ``full``, only FailFast runs: its oracle
    holds the true length there. A script that ends at the maximum length
    runs both, so its steps at capacity still count."""
    steps = ((("add", (NULL,)),) * 150 + (("size", ()), ("get", (3,)), ("index_of", (NULL,))))
    result, counts, direct = traced_run(steps, mode)
    assert direct == counts["oracle.oracle_apply.calls"] == 2 * len(steps)
    assert counts["oracle.oracle_apply.items_copied"] == 0
    final = len(result.oracles["unchecked"].items)
    assert counts["difftest.max_true_length"] == final == 150
    assert counts["difftest.steps_at_capacity"] == (150 - 127 + 1) + 3

    below = (("add", (NULL,)),) * 10 + (("size", ()), ("remove_first", ()), ("get", (3,)))
    result, counts, direct = traced_run(below, mode)
    runs = 2 if mode is CheckMode.FULL else 1
    assert direct == counts["oracle.oracle_apply.calls"] == runs * len(below)
    assert counts["difftest.max_true_length"] == 10
    assert counts["difftest.steps_at_capacity"] == 0
    assert len(result.oracles["unchecked"].items) == 9

    exact = (("add", (NULL,)),) * 127 + (("size", ()), ("get_last", ()))
    _, counts, direct = traced_run(exact, mode)
    assert direct == 2 * len(exact)
    assert counts["difftest.max_true_length"] == 127
    assert counts["difftest.steps_at_capacity"] == 3


def test_a_carried_step_makes_one_list_call_and_checks_only_on_fallback():
    """Under ``invariant`` each FailFast step makes one ``apply_op``
    call (the tracer counts the calls that returned; none here raises),
    whether it is carried or not, and ``check_invariant`` runs only where
    the scoped exit check does not vouch: never on a valid chain. Under
    ``unlink-skip-relink`` the removal breaks the chain: the failed
    scoped check falls back in its step, the run checks the next two
    steps itself, and the clear's passing check starts a new stretch."""
    steps = ((("add", (NULL,)),) * 10
             + (("get", (3,)), ("remove_first", ()), ("index_of", (NULL,)), ("clear", ()),
                ("size", ()), ("add", (NULL,)), ("set_at", (0, NULL))))
    _, counts, _ = traced_run(steps, CheckMode.INVARIANT)
    assert counts["listcore.apply_op.calls"] == len(steps)
    assert counts["ghostspec.check_invariant.calls"] == 0

    broken = (("add", (NULL,)),) * 3 + (("remove_at", (1,)), ("size", ()), ("clear", ()),
                                        ("add", (NULL,)), ("get", (0,)))
    result, counts, _ = traced_run(broken, CheckMode.INVARIANT, frozenset({"unlink-skip-relink"}))
    assert [d.step for d in result.divergences["failfast"]] == [3, 4]
    assert counts["listcore.apply_op.calls"] == len(broken)
    assert counts["ghostspec.check_invariant.calls"] == 3
