"""The journal-scoped exit check of ``checked_step``, and the entry
state ``run_script`` carries from one checked step to the next.

``exit_invariant_holds`` re-checks the class invariant only where a
call's journal and ghost log say the call could have broken it. Its
proof obligation: on every state reached from one where the invariant
held, its verdict equals the full ``check_invariant`` verdict, and the
whole comparison it replaced (``compared_exit``: an entry copy of the
ghost, an exit copy and slice compares) gives the same verdict and
locates the same edit. Hand-built calls outside the three ghost changes
it understands, or that write the ghost through the door
(``replace_ghost``), must make it fall back (answer None), and a passing
scoped check must spare ``run_checked`` every walk and the second full
check.

Under ``full``, ``run_script`` sends each step to ``checked_step`` with
no entry check, judged against the oracle verdict and items it carries.
Its proof obligation: at every step's entry the full invariant holds and
the chain's items are the carried oracle items, and the outputs equal
those of sending every step through the public ``run_checked``.

Under ``full``, a step whose scoped exit check vouched compares edits
instead of item sequences: the ghost edit the scoped check located and
the journal's item writes against the edit the oracle's rule logged
(``_same_items``). Its proof obligation: beside every step whose edits
it judged equal, a whole read of the chain's items equals the oracle's
items, and a violation found after the comparison has the text a whole
read gives. A passing step then reads as many nodes at 120 nodes as at
8, beyond the list's own work.

Under ``invariant``, ``checked_step`` judges each step by the scoped
exit check while the invariant holds, and runs the full check only when
that does not vouch for the state. Its proof obligation: beside every
step whose scoped check passed, the full invariant holds.

Under both, a step that wrote nothing (an empty journal, no allocation,
no logged ghost edit, and the header and ghost length of entry) skips the
scoped check and the frame check, and under ``full``, when the oracle's
rule logged no edit either, the edit comparison: only its result is
compared with the verdict. Its proof obligation: beside every such step,
that general path vouches with no ghost edit, keeps the entry items and
finds no frame violation; a call that writes and writes back, allocates,
or changes the size or ghost behind the store takes the general path,
and so does one whose result disagrees or whose oracle logged an edit.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st
from oracle_model import model_for

from overlist import difftest, ghostspec, heapmodel, listcore
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, OpScript, gen_script, run_script
from overlist.errors import ChainCorruption, ContractViolation, ListError, UsageError
from overlist.ghostspec import (NO_EDIT, PreObservation, _same_items, check_invariant,
                                 exit_invariant_holds, run_checked)
from overlist.heapmodel import NULL, Atom
from overlist.listcore import FAULTS, CheckMode, SizePolicy, apply_op, new_list
from overlist.oracle import ALPHABET, EMPTY_FOOTPRINT, INDEX, OP_SPECS, ModelList
from overlist.statespace import build_list

A, B = Atom("a"), Atom("b")


def compared_exit(state, pre, journal):
    """The scoped exit check as it was before the ghost log: it copies the
    exit ghost, and locates the edit by comparing it with ``pre``, the
    entry ghost, in slices. Returns ``(post, p)``, the exit ghost and the
    edit's position, or None. ``journal`` is ``(writes, fresh)``, as the
    log-based check takes it. The reference the log-based check is
    compared with."""
    nl = state.ghost
    n = len(nl)
    if state.size != n or state.size > state.max_size:  # C1, C2
        return None
    if n == 0:  # C4; C3, C5 and C6 hold vacuously
        return ((), 0) if state.first is None and state.last is None else None
    post = tuple(nl)
    writes, fresh = journal
    gone = None
    if n == len(pre):
        if fresh or post != pre:
            return None
        p = lo = hi = 0
    elif n == len(pre) + 1:
        if len(fresh) != 1:
            return None
        f = fresh.start
        if post[-1] == f:
            p = n - 1
        elif post[0] == f:
            p = 0
        else:
            try:
                p = post.index(f)
            except ValueError:
                return None
        if post[:p] != pre[:p] or post[p + 1 :] != pre[p:]:
            return None
        lo, hi = p - 1, p + 2
    elif n == len(pre) - 1 and writes and not fresh:
        if post[0] != pre[0]:
            p = 0
        elif post[-1] != pre[-1]:
            p = n
        else:
            try:
                p = pre.index(writes[-1][0])
            except ValueError:
                return None
        if post[:p] != pre[:p] or post[p:] != pre[p + 1 :]:
            return None
        gone = pre[p]
        lo, hi = p - 1, p + 1
    else:
        return None
    lo = max(lo, 0)
    hi = min(hi, n)
    at = [0, n - 1, *range(lo, hi)]
    if writes:
        near = post[lo:hi]
        for nid, name, _ in writes:
            if name != "item" and nid not in near and nid != gone and nid in post:
                at.append(post.index(nid))
    if not state.store.links_agree(post, at):
        return None
    return (post, p) if state.first == post[0] and state.last == post[-1] else None


def assert_same_edit(edit, compared, pre):
    """The log-based verdict ``edit`` and the compared one agree: both
    vouch or neither does, and when both do, on the edit."""
    assert bool(edit) == bool(compared), (edit, compared)
    if edit and compared[0]:
        post, p = compared
        delta = len(post) - len(pre)
        assert edit[:2] == ((delta, p) if delta else (0, 0)), (edit, compared)


def verdicts(lst, change):
    """Run ``change()`` on ``lst`` inside a savepoint of the list; return
    the scoped and the full exit verdicts, the scoped one as whether it
    vouched. Beside it, the whole comparison (``compared_exit``) must
    give the same verdict. The invariant must hold on entry."""
    assert check_invariant(lst) == []
    pre = tuple(lst.ghost)
    mark = lst.open_savepoint()
    try:
        change()
    finally:
        journal, edits = lst.close_savepoint(mark)
    journal = read(lst, journal)
    edit = exit_invariant_holds(lst, edits, journal)
    assert_same_edit(edit, compared_exit(lst, pre, journal), pre)
    return bool(edit), not check_invariant(lst)


def read(lst, journal):
    """A closed journal as the checks take it, ``(writes, fresh)``, with
    the writes in a list that each check can iterate."""
    entries, fresh = journal
    return list(lst.store.writes(entries)), fresh


def outcome_of(lst, op, args):
    try:
        apply_op(lst, op, args)
        return "value"
    except ListError as e:
        return e.kind


def replay_verdicts(lst, steps):
    """Each step's (op, outcome, scoped, full), until the invariant breaks
    or the chain is corrupted: from there on the entry precondition of
    the scoped check no longer holds."""
    for op, args in steps:
        outcome = []
        try:
            scoped, full = verdicts(lst, lambda: outcome.append(outcome_of(lst, op, args)))
        except ChainCorruption:
            return
        yield op, outcome[0], scoped, full
        if not full:
            return


#: a prefix length, a fault or none, the operations that follow the prefix,
#: and the draws for their arguments
given_drawn_script = given(
    st.sampled_from((0, 1, 126, 127)) | st.integers(0, 127),
    st.sampled_from((None, *FAULTS)),
    st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=30),
    st.data(),
)


def drawn_steps(prefix, ops, data):
    """``prefix`` adds, then ``ops`` with arguments drawn around the length."""
    steps = [("add", (ALPHABET[i % len(ALPHABET)],)) for i in range(prefix)]
    steps += [
        (op, tuple(
            data.draw(st.integers(-1, prefix + 2) if kind == INDEX else st.sampled_from(ALPHABET))
            for kind in OP_SPECS[op].args
        ))
        for op in ops
    ]
    return steps


class TestProofObligation:
    def test_generated_scripts_all_faults_both_mixes(self):
        seen = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    lst = new_list(8, SizePolicy.FAIL_FAST, faults=faults)
                    steps = gen_script(seed, 8, 400, weights).steps
                    for op, outcome, scoped, full in replay_verdicts(lst, steps):
                        assert scoped == full, (fault, seed, op)
                        seen[op, outcome] += 1
                        seen[fault, scoped] += 1
        # refusals at capacity, clear, set_at and error outcomes all ran,
        # and faults made both verdicts False
        assert seen["add", "illegal_state"] and seen["add_first", "illegal_state"]
        assert seen["clear", "value"] and seen["set_at", "value"]
        assert seen["get", "index_out_of_bounds"] and seen["remove_at", "index_out_of_bounds"]
        assert seen[None, False] == 0
        assert seen["unlink-skip-relink", False] and seen["add-skip-checksize", False]

    def test_short_width_16_scripts_all_faults_both_mixes(self):
        seen = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(2):
                    lst = new_list(16, SizePolicy.FAIL_FAST, faults=faults)
                    steps = gen_script(seed, 16, 200, weights).steps
                    for op, outcome, scoped, full in replay_verdicts(lst, steps):
                        assert scoped == full, (fault, seed, op)
                        seen[fault, scoped] += 1
        assert seen[None, True] > 500 and seen[None, False] == 0
        assert seen["unlink-skip-relink", False]

    @settings(max_examples=150, deadline=None)
    @given_drawn_script
    def test_drawn_calls_from_any_length(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=faults)
        steps = drawn_steps(prefix, ops, data)
        for op, args in steps[:prefix]:
            apply_op(lst, op, args)
        for op, outcome, scoped, full in replay_verdicts(lst, steps[prefix:]):
            event(f"{op}: {outcome}")
            assert scoped == full, (fault, op)


class TestFallback:
    """Calls the scoped argument does not cover answer None."""

    def test_two_ghost_edits(self):
        lst = build_list([A, B])
        assert verdicts(lst, lambda: (lst.add(A), lst.add(B))) == (False, True)
        assert verdicts(lst, lambda: (lst.add(A), lst.remove_first())) == (False, True)

    def test_removal_or_insert_with_a_far_ghost_swap(self):
        def swap_far(lst):
            nl = list(lst.ghost)
            nl[4], nl[5] = nl[5], nl[4]
            lst.replace_ghost(nl)

        lst = build_list([A, B] * 6)
        assert verdicts(lst, lambda: (lst.remove_at(1), swap_far(lst))) == (False, False)
        lst = build_list([A, B] * 6)
        assert verdicts(lst, lambda: (lst.add_at(1, A), swap_far(lst))) == (False, False)

    def test_ghost_change_without_matching_writes(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=frozenset({"unlink-skip-relink"}))
        for x in (A, B, A):
            lst.add(x)
        assert verdicts(lst, lambda: lst.remove_at(1)) == (False, False)
        lst = build_list([A, B, A])

        def drop_middle():
            lst.replace_ghost(lst.ghost[:1] + lst.ghost[2:])
            lst.size -= 1

        assert verdicts(lst, drop_middle) == (False, False)
        lst = build_list([A, B, A, B, A])

        def splice_unlinked():
            nl = list(lst.ghost)
            nl.insert(2, lst.store.alloc(None, B, None))
            lst.replace_ghost(nl)
            lst.size += 1

        assert verdicts(lst, splice_unlinked) == (False, False)

    def test_fresh_node_outside_the_ghost(self):
        lst = build_list([A, B])
        assert verdicts(lst, lambda: lst.store.alloc(None, A, None)) == (False, True)

        def alloc_two_link_one():
            lst.store.alloc(None, A, None)
            lst.add(B)

        assert verdicts(lst, alloc_two_link_one) == (False, True)

        def link_one_alloc_two():
            lst.add(B)
            lst.store.alloc(None, A, None)

        assert verdicts(lst, link_one_alloc_two) == (False, True)

    def test_unallocated_ghost_entry(self):
        lst = build_list([A, B])

        def append_unallocated():
            lst.replace_ghost([*lst.ghost, 999])
            lst.size += 1

        assert verdicts(lst, append_unallocated) == (False, False)

    def test_rolled_back_node_in_the_ghost(self):
        lst = build_list([A, B])

        def link_then_forget():
            with lst.trial():
                node = lst.store.alloc(lst.last, A, None)
            lst.replace_ghost([*lst.ghost, node])
            lst.size += 1

        assert verdicts(lst, link_then_forget) == (False, False)

    def test_record_freed_behind_the_stores_back(self):
        # the store forgets the last node, through a rollback the list
        # never sees, and no call journaled it
        lst = build_list([A, B])
        mark = lst.store.open_journal()
        lst.add(A)
        assert check_invariant(lst) == []
        pre = tuple(lst.ghost)
        lst.store.rollback(mark)
        nothing = ([], range(len(lst.store), len(lst.store)))
        assert exit_invariant_holds(lst, [], nothing) is None
        assert compared_exit(lst, pre, nothing) is None
        assert check_invariant(lst) != []

    def test_tampered_header(self):
        lst = build_list([A, B, A])
        for name, value in (("size", 2), ("first", lst.last), ("last", lst.first)):
            old = getattr(lst, name)
            assert verdicts(lst, lambda: setattr(lst, name, value)) == (False, False), name
            setattr(lst, name, old)
        lst = build_list([A])
        last = lst.last

        def empty_but_last_kept():
            lst.poll_first()
            lst.last = last

        assert verdicts(lst, empty_but_last_kept) == (False, False)

    def test_write_inside_an_unchanged_ghost(self):
        for field, target in (("next", 3), ("prev", 1)):
            lst = build_list([A, B, A, B])
            nl = lst.ghost
            setter = getattr(lst.store, f"set_{field}")
            assert verdicts(lst, lambda: setter(nl[1], nl[target])) == (False, False), field

    def test_covered_changes_pass(self):
        lst = build_list([A, B, A, B])
        assert verdicts(lst, lambda: lst.set_at(2, NULL)) == (True, True)
        assert verdicts(lst, lambda: lst.add_at(2, B)) == (True, True)
        assert verdicts(lst, lambda: lst.remove_at(3)) == (True, True)
        assert verdicts(lst, lambda: lst.poll_last()) == (True, True)
        assert verdicts(lst, lambda: lst.clear()) == (True, True)


class TestEditLocation:
    """Hand-built calls aimed at how the scoped check locates the edit:
    the fresh node at an end, the edit's neighbours, the written nodes."""

    def test_fresh_last_node_whose_predecessor_was_not_linked(self):
        lst = build_list([A, B] * 6)

        def append_unlinked():
            node = lst.store.alloc(lst.last, A, None)
            lst.replace_ghost([*lst.ghost, node])
            lst.last = node
            lst.size += 1

        assert verdicts(lst, append_unlinked) == (False, False)
        lst = build_list([A, B] * 6)
        assert verdicts(lst, lambda: lst.add(A)) == (True, True)

    def test_fresh_first_node(self):
        lst = build_list([A, B] * 6)
        assert verdicts(lst, lambda: lst.add_first(B)) == (True, True)

        def prepend_unlinked():
            node = lst.store.alloc(None, B, lst.first)
            lst.replace_ghost([node, *lst.ghost])
            lst.first = node
            lst.size += 1

        assert verdicts(lst, prepend_unlinked) == (False, False)

    def test_middle_removal_with_one_neighbour_relinked(self):
        for relinked in ("prev", "next"):
            lst = build_list([A, B] * 6)
            nl = lst.ghost

            def remove_fifth():
                pred, x, succ = nl[4], nl[5], nl[6]
                if relinked == "prev":
                    lst.store.set_prev(succ, pred)
                else:
                    lst.store.set_next(pred, succ)
                lst.store.clear_node(x)
                lst.replace_ghost(nl[:5] + nl[6:])
                lst.size -= 1

            assert verdicts(lst, remove_fifth) == (False, False), relinked

    def test_middle_removal(self):
        # the removed node is read from the journal; when the neighbours
        # still point at it, the edit-site links fail
        for faults, expected in ((frozenset(), (True, True)),
                                 (frozenset({"unlink-skip-relink"}), (False, False))):
            lst = new_list(8, SizePolicy.FAIL_FAST, faults=faults)
            for x in [A, B] * 50:
                lst.add(x)
            assert verdicts(lst, lambda: lst.remove_at(50)) == expected, faults

    def test_written_node_far_from_the_edit(self):
        for edit in ("add", "add_first", "poll_first", "poll_last", "peek_first"):
            lst = build_list([A, B] * 30)
            nl = lst.ghost

            def edit_and_relink_far():
                getattr(lst, edit)(*((A,) if edit.startswith("add") else ()))
                lst.store.set_next(nl[30], nl[32])

            assert verdicts(lst, edit_and_relink_far) == (False, False), edit

    def test_written_node_outside_the_ghost(self):
        lst = build_list([A, B] * 6)
        garbage = lst.first
        lst.poll_first()

        def edit_and_write_garbage():
            lst.add(A)
            lst.store.set_next(garbage, lst.first)
            lst.store.set_item(garbage, B)

        assert verdicts(lst, edit_and_write_garbage) == (True, True)

    def test_fresh_id_in_the_ghost_twice(self):
        for at_end in (True, False):
            lst = build_list([A, B] * 6)

            def add_and_alias():
                if at_end:
                    lst.add(A)
                    nl = list(lst.ghost)
                    nl[3] = nl[-1]
                else:
                    lst.add_first(A)
                    nl = list(lst.ghost)
                    nl[-3] = nl[0]
                lst.replace_ghost(nl)

            assert verdicts(lst, add_and_alias) == (False, False), at_end

    def test_unjournaled_break_at_the_far_end(self):
        # a link changed behind the journal, at the end away from the edit
        for edit, end in (("add", "first"), ("add_first", "last")):
            lst = build_list([A, B] * 6)

            def edit_and_break_end():
                getattr(lst, edit)(A)
                if end == "first":
                    lst.store.raw_write(lst.first, "prev", lst.last)
                else:
                    lst.store.raw_write(lst.last, "next", lst.first)

            assert verdicts(lst, edit_and_break_end) == (False, False), edit

    def test_unjournaled_break_at_either_end_of_a_call_that_edits_nothing(self):
        # with no edit to locate, the check still reads both ends
        for end in ("first", "last"):
            lst = build_list([A, B] * 6)

            def read_and_break_end():
                lst.get(3)
                if end == "first":
                    lst.store.raw_write(lst.first, "prev", lst.last)
                else:
                    lst.store.raw_write(lst.last, "next", lst.first)

            assert verdicts(lst, read_and_break_end) == (False, False), end

    def test_each_position_is_read_once(self, monkeypatch):
        # an end inside the edit's window is not read again as an end, nor
        # is a node written away from it: an end, or one written twice
        reads = []
        links_agree = heapmodel.NodeStore.links_agree

        def recorded(store, seq, positions):
            reads.append(list(positions))
            return links_agree(store, seq, positions)

        def rewrite(lst):  # both ends' outer links and both of position 2's, unchanged
            nl, store = lst.ghost, lst.store
            store.set_prev(nl[0], None)
            store.set_next(nl[-1], None)
            store.set_next(nl[2], nl[3])
            store.set_prev(nl[2], nl[1])

        monkeypatch.setattr(heapmodel.NodeStore, "links_agree", recorded)
        for op, args in (("add", (A,)), ("add_first", (A,)), ("add_at", (6, A)), ("get", (3,)),
                         ("remove_first", ()), ("remove_last", ()), ("remove_at", (6,))):
            for rewritten in (False, True):
                lst = build_list([A, B] * 6)
                mark = lst.open_savepoint()
                apply_op(lst, op, args)
                if rewritten:
                    rewrite(lst)
                journal, edits = lst.close_savepoint(mark)
                reads.clear()
                assert exit_invariant_holds(lst, edits, read(lst, journal)), op
                [at] = reads
                assert len(set(at)) == len(at), (op, at)
                assert not rewritten or {0, 2, len(lst.ghost) - 1} <= set(at), (op, at)


class TestRunCheckedCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        walk = counting("walk_chain", heapmodel.walk_chain)
        monkeypatch.setattr(heapmodel, "walk_chain", walk)
        monkeypatch.setattr(listcore, "walk_chain", walk)
        check = counting("check_invariant", check_invariant)
        monkeypatch.setattr(ghostspec, "check_invariant", check)
        monkeypatch.setattr(difftest, "check_invariant", check)
        return counts

    def test_passing_scoped_check_walks_nothing(self, calls):
        lst = new_list(8, SizePolicy.FAIL_FAST, probes=True)
        for i in range(127):
            lst.add(ALPHABET[i % len(ALPHABET)])
        steps = [
            ("add", (A,)), ("get", (5,)), ("set_at", (3, B)), ("remove_at", (60,)),
            ("add_first", (NULL,)), ("add_at", (200, A)), ("last_index_of", (B,)),
            ("poll_last", ()), ("remove_item", (A,)), ("clear", ()), ("poll_first", ()),
            ("add", (B,)),
        ]
        for op, args in steps:
            try:
                run_checked(lst, op, args)
            except ListError:
                pass
        assert calls == {"check_invariant": len(steps)}

    def test_fallback_walks_and_checks_in_full(self, calls):
        lst = new_list(8, SizePolicy.FAIL_FAST, probes=True,
                       faults=frozenset({"unlink-skip-relink"}))
        for x in (A, B, A):
            lst.add(x)
        with pytest.raises(ContractViolation) as exc:
            run_checked(lst, "remove_at", (1,))
        assert calls == {"check_invariant": 2, "walk_chain": 1}
        assert exc.value.violations[-1][0] == "invariant"

    def test_carried_steps_check_no_entry_and_step_the_oracle_once(self, calls, monkeypatch):
        steps = gen_script(3, 8, 400, ADD_HEAVY_WEIGHTS).steps
        monkeypatch.setattr(ghostspec, "oracle_apply", lambda *a: pytest.fail("second oracle step"))
        result = full_failfast(steps, frozenset())
        assert result.aborted["failfast"] is None and len(result.oracles["failfast"].items) == 127
        assert calls == {}

    def test_carried_invariant_steps_check_nothing_in_full(self, calls):
        result = run_script(gen_script(3, 8, 400, ADD_HEAVY_WEIGHTS), CheckMode.INVARIANT,
                            policies=(SizePolicy.FAIL_FAST,))
        assert result.total("failfast") == 0 and len(result.oracles["failfast"].items) == 127
        assert calls == {}


@contextmanager
def carried_entries(plain: bool = False):
    """Route ``run_script``'s checked steps through a wrapper that runs
    the full ``check_invariant`` and reads the chain beside every entry,
    asserting the state the run carries into it; yields the ops entered.
    With ``plain``, each step goes through the public ``run_checked``
    instead, which runs the full entry check and computes its own
    verdict."""
    entered = []
    real = ghostspec.checked_step

    def beside(lst, op, args, model=None):
        failures = check_invariant(lst)
        assert not failures, (op, failures)
        assert tuple(lst.items()) == entry_items(model), op
        entered.append(op)
        if not plain:
            return real(lst, op, args, model)
        try:
            result = run_checked(lst, op, args)
        except ListError as e:
            return ("error", e.kind), e, ()
        return ("value", result), None, ()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(difftest, "checked_step", beside)
        yield entered


def entry_items(model):
    """The oracle's items before the call ``model`` judges: its state
    after the call with the logged edit undone, on a copy."""
    _, a, edits = model
    before = ModelList(a.items, a.width, a.bounded)
    before.undo(edits)
    return tuple(before.items)


def full_failfast(steps, faults):
    return run_script(OpScript(0, 8, tuple(steps)), CheckMode.FULL,
                      policies=(SizePolicy.FAIL_FAST,), faults=faults)


def outputs(result):
    return ([d.to_json() for d in result.divergences["failfast"]],
            result.aborted, result.oracles["failfast"].items)


class TestCarriedEntry:
    def test_generated_scripts_all_faults_both_mixes(self):
        aborted = 0
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    with carried_entries() as entered:
                        result = full_failfast(gen_script(seed, 8, 400, weights).steps, faults)
                    # every step entered carried, up to the one that aborted
                    stop = result.aborted["failfast"]
                    assert len(entered) == (400 if stop is None else stop + 1), (fault, seed)
                    aborted += stop is not None
                    assert fault is not None or stop is None
        assert aborted

    @settings(max_examples=60, deadline=None)
    @given_drawn_script
    def test_drawn_scripts_match_the_plain_path(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        steps = drawn_steps(prefix, ops, data)
        with carried_entries() as entered:
            carried = full_failfast(steps, faults)
        with carried_entries(plain=True):
            plain = full_failfast(steps, faults)
        assert entered
        assert outputs(carried) == outputs(plain)

    def test_plain_call_still_checks_the_entry_state(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, probes=True)
        for x in (A, B, A):
            run_checked(lst, "add", (x,))
        # a link changed outside any journal, as statespace and tests do
        lst.store.raw_write(lst.ghost[1], "next", None)
        with pytest.raises(UsageError, match=r"invariant broken before get: \[\('C6'"):
            run_checked(lst, "get", (0,))

    @pytest.mark.parametrize("probes", [False, True])
    def test_checks_require_failfast(self, probes):
        # an Unchecked list breaks the invariant once its size wraps, so
        # it is refused the loop probes when it is built
        if not probes:
            assert new_list(8, SizePolicy.UNCHECKED, probes=probes).probes is False
        else:
            with pytest.raises(UsageError, match="Unchecked list cannot be checked"):
                new_list(8, SizePolicy.UNCHECKED, probes=probes)


#: the oracle's logged edit kinds
EDIT_KINDS = {1: "insert", -1: "remove", 0: "replace", None: "clear"}


@contextmanager
def edit_verdicts():
    """Run a whole read of the chain's items beside every ``full`` step's
    edit comparison (``_same_items``), asserting that edits judged equal
    leave the chain holding the oracle's items; yields each comparison's
    kind: the oracle's edit ("insert", "remove", "replace", "clear", or
    "none") where the edits matched, "whole read" where they did not."""
    kinds = []
    real = ghostspec._same_items

    def beside(lst, edit, journal, model):
        same = real(lst, edit, journal, model)
        _, a, edits = model
        if same:
            assert tuple(lst.items()) == tuple(a.items)
            kinds.append(EDIT_KINDS[edits[0][0]] if edits else "none")
        else:
            kinds.append("whole read")
        return same

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghostspec, "_same_items", beside)
        yield kinds


Z = Atom("z")  # in no generated script


class TestEditComparison:
    """Under ``full``, a step that wrote and that the scoped exit check
    vouched for compares the list's ghost edit and item writes with the
    oracle's logged edit. Its proof obligation: beside every step whose
    edits it judged equal, a whole read of the chain's items equals the
    oracle's items. A step that wrote nothing is judged by its result
    alone (``TestNothingWritten``), so no comparison finds no edit on
    either side."""

    def test_generated_scripts_all_faults_both_mixes(self):
        kinds = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    with edit_verdicts() as seen:
                        full_failfast(gen_script(seed, 8, 400, weights).steps, faults)
                    kinds.update(seen)
        assert all(kinds[k] > 100 for k in ("insert", "remove", "replace")), kinds
        assert kinds["clear"] and not kinds["none"], kinds

    @settings(max_examples=60, deadline=None)
    @given_drawn_script
    def test_drawn_scripts(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        with edit_verdicts() as seen:
            full_failfast(drawn_steps(prefix, ops, data), faults)
        # the first add of a prefix writes to an empty list, where every call vouches
        assert seen or not prefix

    @staticmethod
    def step_and_write(op, args, node_at, compare=True):
        """Run ``op`` through ``checked_step`` on a checked list of 12
        items, as a call that first writes ``Z`` into the item of the node
        ``node_at(lst)`` picks, through the journaled setter (a removal's
        clearing stays the call's last write). Without ``compare``, the
        scoped exit check never vouches, so the chain's items are read
        whole. Returns the kinds of the edit comparisons and the
        ContractViolation raised, or None."""
        lst = build_list([A, B] * 6, probes=True)
        node = node_at(lst)
        real = listcore.apply_op

        def write_and_call(state, op, args):
            state.store.set_item(node, Z)
            return real(state, op, args)

        model = model_for(tuple(lst.items()), 8, op, args)
        with pytest.MonkeyPatch.context() as mp, edit_verdicts() as seen:
            mp.setattr(listcore, "apply_op", write_and_call)
            if not compare:
                mp.setattr(ghostspec, "exit_invariant_holds", lambda *a: None)
            try:
                ghostspec.checked_step(lst, op, args, model)
            except ContractViolation as e:
                return seen, e
        return seen, None

    @pytest.mark.parametrize("op, args", [
        ("add", (A,)), ("add_first", (B,)), ("add_at", (6, A)), ("remove_at", (5,)),
        ("set_at", (3, B)), ("get", (1,)), ("remove_at", (12,)),
    ])
    def test_item_write_away_from_the_edit(self, op, args):
        seen, compared = self.step_and_write(op, args, lambda lst: lst.ghost[9])
        assert seen == ["whole read"] and "post" in compared.categories()
        unseen, whole = self.step_and_write(op, args, lambda lst: lst.ghost[9], compare=False)
        assert not unseen
        assert str(compared) == str(whole)

    @pytest.mark.parametrize("op, args, at, kind", [
        ("set_at", (3, B), 3, "replace"), ("remove_at", (5,), 5, "remove"),
        ("add_at", (6, A), 6, "whole read"), ("remove_at", (5,), 6, "whole read"),
        ("set_at", (3, B), 4, "whole read"),
    ])
    def test_item_write_at_the_edit_site(self, op, args, at, kind):
        """A write the call itself overwrites, or to the node it removes,
        leaves the edits equal (only the answer, the written item, is
        wrong); a write to the edit's neighbour does not, and a whole
        read names the items."""
        seen, compared = self.step_and_write(op, args, lambda lst: lst.ghost[at])
        assert seen == [kind] and "post" in compared.categories()
        named = [w for _, w in compared.violations if w.startswith("chain items")]
        assert bool(named) == (kind == "whole read"), compared

    @pytest.mark.parametrize("op, args, instead", [
        ("add_first", (B,), lambda lst: lst.add(B)),
        ("add", (A,), lambda lst: lst.add(B)),
        ("remove_at", (2,), lambda lst: lst.remove_at(3)),
        ("set_at", (3, B), lambda lst: lst.set_at(3, Z)),
        ("set_at", (3, B), lambda lst: lst.set_at(4, B)),
    ])
    def test_an_edit_other_than_the_oracles(self, op, args, instead):
        """The list makes one edit of the kind the oracle logged, at
        another position or with another item: the edits differ, and a
        whole read names the items."""
        lst = build_list([A, B] * 6, probes=True)
        model = model_for(tuple(lst.items()), 8, op, args)
        with pytest.MonkeyPatch.context() as mp, edit_verdicts() as seen:
            mp.setattr(listcore, "apply_op", lambda state, op, args: instead(state))
            with pytest.raises(ContractViolation) as e:
                ghostspec.checked_step(lst, op, args, model)
        assert seen == ["whole read"]
        assert any(w.startswith("chain items") for _, w in e.value.violations)

    def test_item_write_outside_the_chain(self):
        def garbage(lst):
            node = lst.first
            lst.poll_first()
            return node

        # the frame check names the write; the chain's items are the oracle's
        seen, violation = self.step_and_write("add", (A,), garbage)
        assert seen == ["insert"] and violation.categories() == {"frame"}


def filled(n, width=8, probes=False):
    return build_list([ALPHABET[i % len(ALPHABET)] for i in range(n)], width, probes=probes)


class TestFlatRecordReads:
    """A passing ``full`` step reads nodes only where the call acted.
    Beyond the list's own work, counted by the same call on a list
    without probes, the number of nodes read does not grow with the list's length.
    This counts node reads, not time, so it is exact."""

    @pytest.fixture
    def reads(self, node_reads):
        """``reads(fn, *args)``: the nodes ``fn(*args)`` reads through the
        store's public reads (``node_reads``)."""

        def reads(fn, *args):
            node_reads.clear()
            try:
                fn(*args)
            except ListError:
                pass
            return len(node_reads)

        return reads

    def harness_reads(self, reads, n, width, op, args):
        checked, plain = filled(n, width, probes=True), filled(n, width)
        model = model_for(tuple(checked.items()), width, op, args)
        return (reads(ghostspec.checked_step, checked, op, args, model)
                - reads(apply_op, plain, op, args))

    @pytest.mark.parametrize("op, args_at", [
        ("add", lambda n: (A,)), ("add_first", lambda n: (B,)),
        ("add_at", lambda n: (n // 2, A)), ("remove_at", lambda n: (n // 2,)),
        ("set_at", lambda n: (n // 2, Z)), ("poll_last", lambda n: ()),
    ])
    def test_passing_step_at_8_and_120_nodes(self, reads, op, args_at):
        assert (self.harness_reads(reads, 8, 8, op, args_at(8))
                == self.harness_reads(reads, 120, 8, op, args_at(120)))

    def test_refused_add_at_capacity(self, reads):
        # capacity is 127 nodes at width 8 and 32,767 at width 16
        assert (self.harness_reads(reads, 127, 8, "add", (A,))
                == self.harness_reads(reads, 32767, 16, "add", (A,)))


@contextmanager
def scoped_steps(plain: bool = False):
    """Route ``run_script``'s scoped exit checks through a wrapper that
    runs the full ``check_invariant`` beside every one that passed, and
    the whole comparison (``compared_exit``, on an entry ghost copied
    before the step) beside every one; yields the verdicts of the scoped
    checks, in order, as whether each vouched. With ``plain``, every
    scoped check answers None, so the full check runs after every step,
    as it does without the carry."""
    seen = []
    entry = []
    real, real_step = ghostspec.exit_invariant_holds, ghostspec.checked_step

    def step(lst, op, args, model=None):
        entry[:] = [tuple(lst.ghost)]
        return real_step(lst, op, args, model)

    def beside(lst, edits, journal):
        journal = (list(journal[0]), journal[1])  # the writes, read once
        edit = real(lst, edits, journal)
        assert_same_edit(edit, compared_exit(lst, entry[0], journal), entry[0])
        if edit:
            failures = check_invariant(lst)
            assert not failures, failures
        seen.append(bool(edit))
        return None if plain else edit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghostspec, "exit_invariant_holds", beside)
        mp.setattr(difftest, "checked_step", step)
        yield seen


def invariant_failfast(steps, faults):
    return run_script(OpScript(0, 8, tuple(steps)), CheckMode.INVARIANT,
                      policies=(SizePolicy.FAIL_FAST,), faults=faults)


class TestCarriedInvariantMode:
    def test_generated_scripts_all_faults_both_mixes(self):
        verdicts = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    with scoped_steps() as seen:
                        result = invariant_failfast(gen_script(seed, 8, 400, weights).steps, faults)
                    verdicts.update((fault, holds) for holds in seen)
                    assert fault is not None or result.total("failfast") == 0, seed
        # every fault-free scoped check passed; under faults some fell back
        assert verdicts[None, True] > 1000 and verdicts[None, False] == 0
        assert all(verdicts[fault, True] for fault in FAULTS)
        assert verdicts["unlink-skip-relink", False] and verdicts["add-skip-checksize", False]

    @settings(max_examples=60, deadline=None)
    @given_drawn_script
    def test_drawn_scripts_match_the_plain_path(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        steps = drawn_steps(prefix, ops, data)
        with scoped_steps() as seen:
            carried = invariant_failfast(steps, faults)
        with scoped_steps(plain=True):
            plain = invariant_failfast(steps, faults)
        event(f"scoped checks passed: {all(seen)}")
        assert outputs(carried) == outputs(plain)

    def test_fallback_then_carry_resumes_after_a_passing_full_check(self, monkeypatch):
        """``unlink-skip-relink`` breaks the chain; the full check reports
        it after each step until ``clear`` leaves an empty, valid list,
        and from the next step on the scoped check judges again, or the
        nothing-written exit for a call that wrote nothing."""
        log = []
        real_full, real_step = ghostspec.check_invariant, difftest.checked_step
        seen = spy_exit(monkeypatch)
        real_scoped = ghostspec.exit_invariant_holds

        def scoped(lst, edits, journal):
            log.append("scoped")
            return real_scoped(lst, edits, journal)

        def step(*a):
            # a checked step that ran neither check took the nothing-written
            # exit, with nothing taken out of the stretch
            seen.clear()
            got = real_step(*a)
            if "scoped" not in seen and not got[2]:
                (entries, fresh), edits = seen["taken"]
                assert not (entries or fresh or edits)
                log.append("unchanged")
            return got

        def full(lst):
            failures = real_full(lst)
            log.append("full-failed" if failures else "full")
            return failures

        # the full check runs in the step after a failed scoped check, and
        # in the run itself while the invariant is broken
        monkeypatch.setattr(ghostspec, "exit_invariant_holds", scoped)
        monkeypatch.setattr(difftest, "checked_step", step)
        monkeypatch.setattr(ghostspec, "check_invariant", full)
        monkeypatch.setattr(difftest, "check_invariant", full)
        steps = [("add", (A,)), ("add", (B,)), ("add", (A,)), ("remove_at", (1,)),
                 ("size", ()), ("clear", ()), ("add", (B,)), ("get", (0,))]
        result = invariant_failfast(steps, frozenset({"unlink-skip-relink"}))
        assert log == (["scoped"] * 4 + ["full-failed", "full-failed", "full"]
                       + ["scoped", "unchanged"])
        divs = result.divergences["failfast"]
        assert [(d.step, d.kind) for d in divs] == [(3, "InvariantViolation"), (4, "InvariantViolation")]
        assert result.aborted["failfast"] is None


def exit_kind(op, outcome):
    """What a step that wrote nothing was: a query, a refused add, a poll
    on an empty list, a removal that found no match, or else the
    operation and its outcome (a clear on an empty list, an index out of
    bounds)."""
    spec = OP_SPECS[op]
    if not spec.mutating:
        return "query"
    if outcome == ("error", "illegal_state"):
        return "refused add"
    if op.startswith("poll"):
        return "poll on an empty list"
    if spec.equality_branches:
        return "removal with no match"
    return f"{op} {outcome}"


def spy_exit(mp):
    """Patch, through ``mp``, the list's ``take`` and ``close_savepoint``,
    the scoped exit check and the frame check, and return a dict that
    records, until it is cleared: what the last savepoint closed or taken
    held (``"taken"``: the raw journal and the ghost edits), and whether
    the scoped exit check (``"scoped"``) or the frame check (``"frame"``)
    ran. A checked step that ran neither took the nothing-written exit."""
    seen = {}
    real_scoped, real_frame = ghostspec.exit_invariant_holds, ghostspec.frame_check

    def closing(real):
        def spy(lst, *mark):
            seen["taken"] = real(lst, *mark)
            return seen["taken"]
        return spy

    def ran(name, real):
        def spy(*a):
            seen[name] = True
            return real(*a)
        return spy

    for name in ("take", "close_savepoint"):
        mp.setattr(listcore.JavaLinkedList, name, closing(getattr(listcore.JavaLinkedList, name)))
    mp.setattr(ghostspec, "exit_invariant_holds", ran("scoped", real_scoped))
    mp.setattr(ghostspec, "frame_check", ran("frame", real_frame))
    return seen


@contextmanager
def nothing_written_exits():
    """Beside every checked step of ``run_script`` that takes the
    nothing-written exit, run the general path on the same state, journal
    and log: the scoped exit check, the edit comparison, the operation's
    footprint and the frame check. The scoped check must vouch with no
    ghost edit, as must the whole comparison with the entry ghost (copied
    before the call) at position 0; the chain's items must be the entry
    items (read whole before the call, and again after it), an edit
    comparison that finds them the oracle's must be right, and the frame
    check, given the exit ghost, must find nothing. Under ``invariant``,
    where the run has no oracle model, the footprint is positioned by one
    built before the call. Yields each exit's ``exit_kind``."""
    kinds = []
    real_step = ghostspec.checked_step
    real_scoped, real_frame = ghostspec.exit_invariant_holds, ghostspec.frame_check

    with pytest.MonkeyPatch.context() as mp:
        seen = spy_exit(mp)

        def step(lst, op, args, model=None):
            header = (lst.first, lst.last, lst.size)
            items, ghost = tuple(lst.items()), tuple(lst.ghost)
            assert model is None or entry_items(model) == items
            oracle = model or model_for(items, lst.width, op, args)
            seen.clear()
            outcome, error, failures = real_step(lst, op, args, model)
            if "scoped" not in seen and "frame" not in seen:
                raw, edits = seen["taken"]
                journal = read(lst, raw)
                pre = PreObservation(header, len(ghost))
                assert real_scoped(lst, edits, journal) == NO_EDIT
                assert compared_exit(lst, ghost, journal) == (ghost, 0)
                assert items == tuple(lst.items())
                if _same_items(lst, NO_EDIT, journal, oracle):
                    assert items == tuple(oracle[1].items)
                fp = (EMPTY_FOOTPRINT if outcome[0] == "error"
                      else OP_SPECS[op].footprint(ghost, oracle[1], args, oracle[2]))
                assert real_frame(pre, lst, journal, fp, lst.ghost) == []
                kinds.append(exit_kind(op, outcome))
            return outcome, error, failures

        mp.setattr(difftest, "checked_step", step)
        yield kinds


CHECKED_RUNS = {"invariant": invariant_failfast, "full": full_failfast}


class TestNothingWritten:
    """A checked step whose journal is empty, which allocated nothing and
    whose header and ghost are those of entry exits in its entry state,
    with no exit check, post-item derivation or frame check. Its proof
    obligation: beside every such step, the general path vouches with the
    entry ghost, derives the entry items and finds no frame violation."""

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    def test_generated_scripts_all_faults_both_mixes(self, mode):
        kinds = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    with nothing_written_exits() as seen:
                        CHECKED_RUNS[mode](gen_script(seed, 8, 400, weights).steps, faults)
                    kinds.update(seen)
        assert all(kinds[k] for k in ("refused add", "query", "removal with no match",
                                      "poll on an empty list")), kinds

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    @settings(max_examples=60, deadline=None)
    @given_drawn_script
    def test_drawn_scripts(self, mode, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        with nothing_written_exits() as seen:
            CHECKED_RUNS[mode](drawn_steps(prefix, ops, data), faults)
        for kind in seen:
            event(kind)

    @staticmethod
    def step_after(change, mode, op="get", args=(3,)):
        """Run ``op`` through ``checked_step`` on a list of 12 items under
        check mode ``mode`` ("invariant" or "full"), as a call that first
        makes ``change(lst)``. Returns whether the step took the
        nothing-written exit, whether the scoped exit check ran, and what
        the step reported: each failing invariant clause, and the category
        of each other violation."""
        full = mode == "full"
        lst = build_list([A, B] * 6, probes=full)
        real = listcore.apply_op

        def change_and_call(state, op, args):
            change(state)
            return real(state, op, args)

        model = model_for(tuple(lst.items()), 8, op, args) if full else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listcore, "apply_op", change_and_call)
            seen = spy_exit(mp)
            try:
                _, _, failures = ghostspec.checked_step(lst, op, args, model)
                reported = [cid for cid, _ in failures]
            except ContractViolation as e:
                reported = [w.split(":")[0] if cat == "invariant" else cat
                            for cat, w in e.violations]
        took = "scoped" not in seen and "frame" not in seen
        return took, "scoped" in seen, reported

    def test_a_wrong_result_raises_the_general_paths_violation(self):
        """Under ``full``, a carried step that wrote nothing and answered
        wrong gets the general path's ContractViolation:
        ``lastindexof-off-by-one``, on a list without loop probes, answers
        one position low and writes nothing."""
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=frozenset({"lastindexof-off-by-one"}))
        for x in (A, B, A):
            lst.add(x)
        lst.carry()
        model = model_for((A, B, A), 8, "last_index_of", (A,))
        posts = []
        real = ghostspec._post_vs_model
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_exit(mp)
            mp.setattr(ghostspec, "_post_vs_model", lambda *a: posts.append(a[2]) or real(*a))
            with pytest.raises(ContractViolation) as e:
                ghostspec.checked_step(lst, "last_index_of", (A,), model)
        (entries, fresh), edits = seen["taken"]
        assert not (entries or fresh or edits) and posts == [("value", 1)]
        assert str(e.value) == ("last_index_of[non-null]: "
                                "[post] result ('value', 1) != documented Value(2)")

    @pytest.mark.parametrize("answer", [True, None])
    def test_an_oracle_edit_takes_the_general_path(self, answer):
        """A carried call that wrote nothing while the oracle's rule logged
        an edit (an add the list skipped, answering ``answer``) is not
        judged by its result alone: the chain is read whole and its items
        named, with the wrong answer, if any, before them."""
        lst = build_list([A, B] * 6, probes=True)
        lst.carry()
        model = model_for(tuple(lst.items()), 8, "add", (A,))
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_exit(mp)
            mp.setattr(listcore, "apply_op", lambda state, op, args: answer)
            with pytest.raises(ContractViolation) as e:
                ghostspec.checked_step(lst, "add", (A,), model)
        (entries, fresh), edits = seen["taken"]
        assert not (entries or fresh or edits) and "frame" not in seen
        witnesses = [w for _, w in e.value.violations]
        assert e.value.categories() == {"post"} and len(witnesses) == (1 if answer else 2)
        assert witnesses[-1].startswith("chain items ")

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    def test_item_written_back_takes_the_general_path(self, mode):
        def write_back(lst):
            node = lst.ghost[5]
            old = lst.store.item(node)
            lst.store.set_item(node, Z)
            lst.store.set_item(node, old)

        assert self.step_after(write_back, mode) == (False, True, [])
        assert self.step_after(lambda lst: None, mode) == (True, False, [])

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    def test_size_change_without_a_store_write_reports_c1(self, mode):
        def grow(lst):
            lst.size += 1

        took, _, reported = self.step_after(grow, mode)
        assert not took and "C1" in reported

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    def test_ghost_append_without_a_store_write_reports_c1(self, mode):
        def append(lst):
            lst.ghost.append(lst.ghost[0])

        took, _, reported = self.step_after(append, mode)
        assert not took and "C1" in reported

    @pytest.mark.parametrize("mode", sorted(CHECKED_RUNS))
    def test_allocation_without_a_write_takes_the_general_path(self, mode):
        # a node outside the chain breaks no clause, but no query's frame
        # allows it
        took, scoped, reported = self.step_after(lambda lst: lst.store.alloc(None, Z, None), mode)
        assert not took and scoped
        assert reported == (["frame"] if mode == "full" else [])
