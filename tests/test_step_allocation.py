"""One step's memory does not grow with the list's length.

A step as ``run_script`` takes it, in each check mode, on a FailFast list
whose invariant held and whose items were the oracle's on entry: the
list call, the oracle's rule and, when checked, the exit checks, in the
savepoint of the run's carried stretch. Its peak of traced allocations
(``tracemalloc``) at 10,000 nodes must be that at 1,000 nodes, for every
operation but the two whose Java code allocates (``toArray``'s array) or
writes (``clear``, each node, which a checked step journals) in
proportion to the list. Each step is measured after a first, unmeasured
run of the same step inside a trial, so no list the step appends to
grows its capacity while it is measured.
"""

import tracemalloc

import pytest

from overlist.difftest import run_op
from overlist.ghostspec import checked_step
from overlist.heapmodel import NULL, Atom
from overlist.listcore import CheckMode, SizePolicy, new_list
from overlist.oracle import INDEX, OP_SPECS, ModelList, oracle_apply

Z = Atom("z")
SIZES = (1_000, 10_000)
#: the operations whose Java code allocates per node, or, in a savepoint,
#: journals a write per node
GROWING = {"to_array", "clear"}
#: what one step may allocate beyond its peak at the smaller size; a copy
#: of the longer list's node ids or items alone is 72,000 bytes more
SLACK = 2_048


def prepared(n, mode):
    """A FailFast list of ``n`` nulls with a ``Z`` in the middle, and its
    oracle state."""
    items = [NULL] * n
    items[n // 2] = Z
    lst = new_list(16, SizePolicy.FAIL_FAST, probes=mode is CheckMode.FULL)
    lst.fast_forward(tuple(items))
    model = ModelList((), 16)
    model.add_all(items)
    return lst, model


def step(lst, model, op, args, mode):
    """One step of ``run_script``'s loop, on a list that is in the run's
    carried stretch (``carry``) when ``mode`` checks; returns the
    oracle's edits, which it logs in a savepoint (under ``full``, as the
    run does)."""
    model.open_savepoint()
    if mode is CheckMode.FULL:
        verdict, _ = oracle_apply(model, op, args)
        edits = model.close_savepoint()
        checked_step(lst, op, args, (verdict, model, edits))
        return edits
    if mode is CheckMode.INVARIANT:
        checked_step(lst, op, args)
    else:
        run_op(lst, op, args)
    oracle_apply(model, op, args)
    return model.close_savepoint()


def peak(n, mode, op):
    """The traced peak of one step of ``op`` at ``n`` nodes, in bytes
    above what was allocated before it."""
    lst, model = prepared(n, mode)
    args = tuple(n // 2 if kind == INDEX else Z for kind in OP_SPECS[op].args)
    with lst.trial():
        model.undo(step(lst, model, op, args, mode))
    if mode is not CheckMode.OFF:
        lst.carry()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    step(lst, model, op, args, mode)
    top = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return top


#: a checked ``clear`` step's peak at 10,000 nodes: its one journal entry,
#: the ids and two columns of old values, is about 0.26 MB
CLEAR_PEAK = 400_000


def test_a_clear_step_costs_its_journal_entry():
    """``clear`` grows, but only by its compact journal entry; the checks
    of ``full`` add at most as much again, as its footprint names the
    entry ghost's nodes without listing their fields. An ``off`` step,
    which the run takes in no savepoint, journals nothing."""
    invariant = peak(SIZES[1], CheckMode.INVARIANT, "clear")
    assert invariant < CLEAR_PEAK
    assert peak(SIZES[1], CheckMode.FULL, "clear") <= 2 * invariant
    assert peak(SIZES[1], CheckMode.OFF, "clear") < SLACK


@pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
def test_a_step_allocates_no_more_on_a_longer_list(mode):
    grew = {}
    for op in sorted(OP_SPECS):
        small, large = (peak(n, mode, op) for n in SIZES)
        grew[op] = large > small + SLACK
    growing = GROWING if mode is not CheckMode.OFF else GROWING - {"clear"}
    assert {op for op, g in grew.items() if g} == growing, grew
