"""One savepoint per checked run, against one savepoint per step.

``run_script`` keeps one savepoint open on a checked FailFast list for
the whole run (``JavaLinkedList.carry``). While the invariant is
carried, each checked step takes its own writes out of it
(``JavaLinkedList.take``) instead of opening and closing a savepoint of
its own. ``per_step_savepoints``
keeps the older path, one savepoint per step, as the reference: every
run must give the same divergences, oracle states and aborted steps on
both paths, and every step must be judged on the same journal, fresh ids
and ghost edits. The stretch must hold no step's entries once that step
is taken, so a long carried run keeps none of them.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from overlist import difftest, ghostspec, heapmodel, listcore, oracle
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, OpScript, gen_script, run_script
from overlist.errors import ContractViolation, ListError, UsageError
from overlist.ghostspec import (
    EMPTY_FOOTPRINT, NO_EDIT, _post_vs_model, check_invariant, contract_for, entry_ghost,
    frame_check, observe,
)
from overlist.heapmodel import NULL, Atom, NodeStore
from overlist.listcore import FAULTS, CheckMode, SizePolicy
from overlist.oracle import ALPHABET, INDEX, OP_SPECS

CHECKED = (CheckMode.INVARIANT, CheckMode.FULL)


def reference_step(state, op, args, model=None):
    """``ghostspec.checked_step`` as it was before the carried stretch:
    the call runs in a savepoint of its own, whose closed journal and
    ghost log are judged. Inside ``run_script`` that savepoint nests in
    the stretch's, which it leaves unused."""
    pre = observe((state.first, state.last, state.size), len(state.ghost))
    length = len(state.ghost)
    mark = state.open_savepoint()
    try:
        outcome, error = ("value", listcore.apply_op(state, op, args)), None
    except ListError as e:
        outcome, error = ("error", e.kind), e.with_traceback(None)
    finally:
        (entries, fresh), edits = state.close_savepoint(mark)

    wrote = (entries or fresh or edits or len(state.ghost) != length
             or (state.first, state.last, state.size) != mark[2])
    journal, edit = ((), fresh), NO_EDIT
    if wrote:
        entry = entry_ghost(state.ghost, edits)
        fp = (EMPTY_FOOTPRINT if model is None or outcome[0] == "error"
              else oracle.OP_SPECS[op].footprint(entry, model[1], args, model[2]))
        journal = (list(NodeStore.writes(entries, fp.nodes)), fresh)
        edit = ghostspec.exit_invariant_holds(state, edits, journal)
    if model is None:
        return outcome, error, () if edit else check_invariant(state)
    chain = state.ghost if edit else tuple(state.chain())
    violations, _ = _post_vs_model(state, model, outcome, chain, edit, journal)
    if not edit:
        violations.extend(("invariant", f"{cid}: {w}") for cid, w in check_invariant(state))
    if wrote:
        violations.extend(frame_check(pre, state, journal, fp, entry))
    if violations:
        raise ContractViolation(contract_for(op, args), violations)
    return outcome, error, ()


@contextmanager
def per_step_savepoints():
    """Route ``run_script``'s checked steps through ``reference_step``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(difftest, "checked_step", reference_step)
        yield


def outputs(script, mode, faults):
    result = run_script(script, mode, faults=faults)
    return repr((result.divergences, result.oracles, result.aborted)), result


def assert_same_as_reference(script, mode, faults):
    """Returns whether FailFast diverged or aborted."""
    carried, result = outputs(script, mode, faults)
    with per_step_savepoints():
        assert carried == outputs(script, mode, faults)[0]
    return bool(result.total("failfast")) or result.aborted["failfast"] is not None


FAULT_SETS = [frozenset(), *(frozenset({f}) for f in FAULTS)]


@pytest.mark.parametrize("width", (8, 16))
@pytest.mark.parametrize("mode", CHECKED, ids=lambda m: m.value)
def test_generated_scripts_match_the_per_step_reference(mode, width):
    """Both mixes, no fault and each fault, a few seeds each; 300
    add-heavy steps cross width 8's capacity."""
    diverged = set()
    for faults in FAULT_SETS:
        for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
            for seed in range(3):
                if assert_same_as_reference(gen_script(seed, width, 300, weights), mode, faults):
                    diverged.add(faults)
    # the comparison covers runs that diverged, under every fault that
    # can act below width 16's capacity
    assert diverged >= {f for f in FAULT_SETS[1:] if width == 8 or "add-skip-checksize" not in f}


@st.composite
def drawn_scripts(draw):
    """A prefix of adds, up to and past width 8's capacity, then drawn
    operations with arguments around the length."""
    width = draw(st.sampled_from((8, 16)))
    prefix = draw(st.sampled_from((0, 1, 126, 127, 128)) | st.integers(0, 130))
    steps = [("add", (ALPHABET[i % len(ALPHABET)],)) for i in range(prefix)]
    for op in draw(st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=30)):
        steps.append((op, tuple(
            draw(st.integers(-1, prefix + 2) if kind == INDEX else st.sampled_from(ALPHABET))
            for kind in OP_SPECS[op].args
        )))
    return OpScript(0, width, tuple(steps))


@settings(max_examples=60, deadline=None)
@given(drawn_scripts(), st.sampled_from(FAULT_SETS), st.sampled_from(CHECKED))
def test_drawn_scripts_match_the_per_step_reference(script, faults, mode):
    assert_same_as_reference(script, mode, faults)


@contextmanager
def taken_by_steps():
    """Record, for each checked step of ``run_script``, what it takes out
    of its savepoint to be judged on, through the list's ``take`` (the
    carried stretch) or ``close_savepoint`` (a savepoint of its own):
    the entry header and ghost length, the raw journal entries, fresh
    ids and ghost edits, and what the list's savepoint itself still
    holds once they are taken (None when none is open). Wraps whichever
    ``checked_step`` ``run_script`` calls when the block is entered."""
    seen, taken = [], []
    step = difftest.checked_step
    real_take, real_close = listcore.JavaLinkedList.take, listcore.JavaLinkedList.close_savepoint

    def spy(real):
        def closing(lst, *mark):
            journal, edits = real(lst, *mark)
            held = lst.store._journal
            taken.append((journal, list(edits),
                          None if held is None else (len(held), len(lst._ghost_log))))
            return journal, edits
        return closing

    def judged(state, op, args, model=None):
        header, length = (state.first, state.last, state.size), len(state.ghost)
        taken.clear()
        try:
            return step(state, op, args, model)
        finally:
            [((entries, fresh), edits, held)] = taken  # one per step
            seen.append({"header": header, "length": length, "entries": entries,
                         "fresh": fresh, "edits": edits, "held": held})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(listcore.JavaLinkedList, "take", spy(real_take))
        mp.setattr(listcore.JavaLinkedList, "close_savepoint", spy(real_close))
        mp.setattr(difftest, "checked_step", judged)
        yield seen


def judged(records):
    """Each step's entry header and ghost length, its writes (through
    ``NodeStore.writes``), fresh ids and ghost edits."""
    return [(s["header"], s["length"], list(NodeStore.writes(s["entries"])), s["fresh"], s["edits"])
            for s in records]


def step_records(script, mode, faults):
    with taken_by_steps() as carried:
        run_script(script, mode, policies=(SizePolicy.FAIL_FAST,), faults=faults)
    with per_step_savepoints(), taken_by_steps() as reference:
        run_script(script, mode, policies=(SizePolicy.FAIL_FAST,), faults=faults)
    return carried, reference


@pytest.mark.parametrize("mode", CHECKED, ids=lambda m: m.value)
def test_each_step_is_judged_on_exactly_its_own_writes(mode):
    """The journal, fresh ids and ghost edits a carried step takes out
    of the stretch are those its own savepoint held; and when it is
    judged, the stretch holds none of this step's or any earlier one's."""
    steps = 0
    for faults in FAULT_SETS:
        for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
            carried, reference = step_records(gen_script(7, 8, 300, weights), mode, faults)
            assert judged(carried) == judged(reference)
            assert {s["held"] for s in carried} == {(0, 0)}
            steps += len(carried)
    assert steps > 1000


@pytest.mark.parametrize("mode", CHECKED, ids=lambda m: m.value)
def test_each_checked_step_reads_its_journal_at_most_once(mode):
    """A checked step reads its journal (``NodeStore.writes``) once at
    most, for every check that needs its writes, and a step that wrote
    nothing does not read it: generated scripts of both mixes, with no
    fault and each fault."""
    reads, wrote = [], []
    real_writes = heapmodel.NodeStore.writes

    def counted(entries, skip=None):
        reads[-1] += 1
        return real_writes(entries, skip)

    def checked(lst, *a):
        reads.append(0)
        try:
            return judged_step(lst, *a)
        finally:
            s = seen[-1]
            wrote.append(bool(s["entries"] or s["fresh"] or s["edits"] or s["length"] != len(lst.ghost)
                              or s["header"] != (lst.first, lst.last, lst.size)))

    with taken_by_steps() as seen, pytest.MonkeyPatch.context() as mp:
        judged_step = difftest.checked_step
        mp.setattr(difftest, "checked_step", checked)
        mp.setattr(heapmodel.NodeStore, "writes", staticmethod(counted))
        for faults in FAULT_SETS:
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(2):
                    run_script(gen_script(seed, 8, 300, weights), mode, faults=faults)
    assert len(reads) == len(wrote) == len(seen) > 2000
    assert max(reads) == 1
    assert not any(n for n, w in zip(reads, wrote) if not w)
    assert sum(reads) > sum(wrote) / 2


def test_a_long_carried_run_keeps_no_clear_entry_after_its_step():
    """32,767 adds fill a width-16 FailFast list, and a ``clear`` then
    journals one chain entry of three 32,767-slot columns. The step is
    judged on it, and from the next step on nothing holds it."""
    filled = (("add", (NULL,)),) * 32767
    script = OpScript(0, 16, filled + (("clear", ()), ("size", ()), ("add", (Atom("a"),)),
                                       ("get", (0,))))
    with taken_by_steps() as seen:
        result = run_script(script, CheckMode.INVARIANT, policies=(SizePolicy.FAIL_FAST,))
    entries = [(s["entries"], *s["held"]) for s in seen]
    assert result.total("failfast") == 0 and len(result.oracles["failfast"].items) == 1
    clear = len(filled)
    judged, held, logged = entries[clear]
    assert judged[1] is heapmodel._CLEARED and len(judged[0]) == 32767
    # no later step is judged on the chain entry, and no step's judging
    # finds anything left in the stretch
    assert all(heapmodel._CLEARED not in judged for judged, _, _ in entries[clear + 1:])
    assert {(held, logged) for _, held, logged in entries} == {(0, 0)}


def test_a_failed_check_runs_plain_steps_in_the_runs_one_savepoint():
    """``unlink-skip-relink`` breaks the chain: the steps that follow the
    failed check run ``run_op`` with the run's one savepoint open and
    empty, and after ``clear`` leaves a valid list the run carries again
    in that savepoint."""
    script = OpScript(0, 8, (("add", (NULL,)), ("add", (NULL,)), ("add", (NULL,)),
                             ("remove_at", (1,)), ("size", ()), ("clear", ()),
                             ("add", (NULL,)), ("get", (0,))))
    opened, plain = [], []
    real_carry, real_run_op = listcore.JavaLinkedList.carry, difftest.run_op

    def carry(lst):
        real_carry(lst)
        opened.append(lst.carried)

    def run_op(lst, op, args):
        plain.append((op, len(lst.store._journal), len(lst._ghost_log), lst.carried))
        return real_run_op(lst, op, args)

    with taken_by_steps() as seen, pytest.MonkeyPatch.context() as mp:
        mp.setattr(listcore.JavaLinkedList, "carry", carry)
        mp.setattr(difftest, "run_op", run_op)
        result = run_script(script, CheckMode.INVARIANT, policies=(SizePolicy.FAIL_FAST,),
                            faults=frozenset({"unlink-skip-relink"}))
    assert [(d.step, d.kind) for d in result.divergences["failfast"]] == [
        (3, "InvariantViolation"), (4, "InvariantViolation")]
    # steps 0-3, 6 and 7 through ``checked_step``, 4 and 5 through ``run_op``
    [mark] = opened
    assert len(seen) == 6 and all(s["held"] == (0, 0) for s in seen)
    assert plain == [("size", 0, 0, mark), ("clear", 0, 0, mark)]


def test_take_reports_a_call_that_wrote_nothing():
    """After a call that journaled, allocated and logged nothing, ``take``
    returns the shared ``UNWRITTEN``, allocating nothing and leaving the
    savepoint where it was; a write that puts back the value it found is
    journaled, and taken."""
    lst = listcore.JavaLinkedList(8)
    for x in (NULL, Atom("a")):
        lst.add(x)
    lst.carry()
    mark = list(lst.carried[0]), lst.carried[2]
    lst.get(1)
    assert lst.take() is listcore.UNWRITTEN and lst.store.take(lst.carried[0]) is None
    assert (list(lst.carried[0]), lst.carried[2]) == mark
    node = lst.ghost[1]
    lst.store.set_item(node, lst.store.item(node))
    (entries, fresh), edits = lst.take()
    assert list(NodeStore.writes(entries)) == [(node, "item", Atom("a"))]
    assert not fresh and edits == []


def test_take_after_a_header_only_change_moves_the_savepoint():
    """A header written directly, with no journal entry, allocation or
    ghost edit, is not ``UNWRITTEN``: ``take`` keeps the new header, so a
    later rollback restores it and not the one before the take."""
    lst = listcore.JavaLinkedList(8)
    lst.add(Atom("a"))
    lst.carry()
    lst.size = 5
    journal, edits = lst.take()
    assert journal == listcore.UNWRITTEN[0] and edits == []
    assert lst.carried[2] == (lst.first, lst.last, 5)
    lst.size = 7
    lst.rollback(lst.carried)
    assert lst.size == 5 and lst.carried is None


def test_take_moves_the_savepoint_and_refuses_inside_another():
    """``take`` closes the carried savepoint and opens it again where the
    call ended, so a rollback undoes only what came after the last take
    and ends the stretch; a savepoint opened inside the stretch makes
    ``take`` a UsageError that leaves the ghost log in place."""
    lst = listcore.JavaLinkedList(8)
    lst.carry()
    ghostspec.checked_step(lst, "add", (NULL,))
    taken = (lst.first, lst.last, lst.size, list(lst.ghost), len(lst.store))
    lst.add(Atom("a"))
    lst.rollback(lst.carried)
    assert (lst.first, lst.last, lst.size, list(lst.ghost), len(lst.store)) == taken
    assert lst.carried is None and lst._ghost_log is None and lst.store._journal is None

    lst.carry()
    lst.open_savepoint()
    lst.add(Atom("b"))
    with pytest.raises(UsageError, match="only the one open savepoint"):
        lst.take()
    assert len(lst._ghost_log) == 1
