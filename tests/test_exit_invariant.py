"""The journal-scoped exit check of ``run_checked``, and the entry
state ``run_script`` carries from one checked step to the next.

``exit_invariant_holds`` re-checks the class invariant only where a
call's journal says the call could have broken it. Its proof obligation:
on every state reached from one where the invariant held, its verdict
equals the full ``check_invariant`` verdict. Hand-built calls outside
the three ghost changes it understands must make it fall back (answer
False), and a passing scoped check must spare ``run_checked`` every walk
and the second full check.

A carried step skips the entry check and reads its pre-state items from
the run's oracle. Its proof obligation: at every carried entry the full
invariant holds and the chain's items are the carried oracle items.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

from overlist import difftest, ghostspec, heapmodel, listcore, oracle
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, OpScript, gen_script, run_script
from overlist.errors import ChainCorruption, ContractViolation, ListError, UsageError
from overlist.ghostspec import check_invariant, exit_invariant_holds, run_checked
from overlist.heapmodel import NULL, Atom
from overlist.listcore import FAULTS, CheckMode, SizePolicy, apply_op, new_list
from overlist.ops import ALPHABET, INDEX, OP_SPECS
from overlist.statespace import build_list

A, B = Atom("a"), Atom("b")


def verdicts(lst, change):
    """Run ``change()`` on ``lst`` under a journal; return the scoped and
    the full exit verdicts. The invariant must hold on entry."""
    assert check_invariant(lst).ok
    pre = tuple(lst.ghost.node_list)
    mark = lst.store.open_journal()
    try:
        change()
    finally:
        journal = lst.store.close_journal(mark)
    return exit_invariant_holds(lst, pre, journal), check_invariant(lst).ok


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((0, 1, 126, 127)) | st.integers(0, 127),
        st.sampled_from((None, *FAULTS)),
        st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=30),
        st.data(),
    )
    def test_drawn_calls_from_any_length(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=faults)
        for i in range(prefix):
            lst.add(ALPHABET[i % len(ALPHABET)])
        steps = [
            (op, tuple(
                data.draw(st.integers(-1, prefix + 2) if kind == INDEX else st.sampled_from(ALPHABET))
                for kind in OP_SPECS[op].args
            ))
            for op in ops
        ]
        for op, outcome, scoped, full in replay_verdicts(lst, steps):
            event(f"{op}: {outcome}")
            assert scoped == full, (fault, op)


class TestFallback:
    """Calls the scoped argument does not cover answer False."""

    def test_two_ghost_edits(self):
        lst = build_list([A, B])
        assert verdicts(lst, lambda: (lst.add(A), lst.add(B))) == (False, True)
        assert verdicts(lst, lambda: (lst.add(A), lst.remove_first())) == (False, True)

    def test_removal_or_insert_with_a_far_ghost_swap(self):
        def swap_far(nl):
            nl[4], nl[5] = nl[5], nl[4]

        lst = build_list([A, B] * 6)
        nl = lst.ghost.node_list
        assert verdicts(lst, lambda: (lst.remove_at(1), swap_far(nl))) == (False, False)
        lst = build_list([A, B] * 6)
        nl = lst.ghost.node_list
        assert verdicts(lst, lambda: (lst.add_at(1, A), swap_far(nl))) == (False, False)

    def test_ghost_change_without_matching_writes(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=frozenset({"unlink-skip-relink"}))
        for x in (A, B, A):
            lst.add(x)
        assert verdicts(lst, lambda: lst.remove_at(1)) == (False, False)
        lst = build_list([A, B, A])

        def drop_middle():
            del lst.ghost.node_list[1]
            lst.size -= 1

        assert verdicts(lst, drop_middle) == (False, False)
        lst = build_list([A, B, A, B, A])

        def splice_unlinked():
            lst.ghost.node_list.insert(2, lst.store.alloc(None, B, None))
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
            lst.ghost.node_list.append(999)
            lst.size += 1

        assert verdicts(lst, append_unallocated) == (False, False)

    def test_rolled_back_node_in_the_ghost(self):
        lst = build_list([A, B])

        def link_then_forget():
            with lst.trial():
                node = lst.store.alloc(lst.last, A, None)
            lst.ghost.node_list.append(node)
            lst.size += 1

        assert verdicts(lst, link_then_forget) == (False, False)

    def test_record_freed_behind_the_stores_back(self):
        lst = build_list([A, B, A])
        assert verdicts(lst, lambda: lst.store._records.pop(lst.last)) == (False, False)

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
            nl = lst.ghost.node_list
            setter = getattr(lst.store, f"set_{field}")
            assert verdicts(lst, lambda: setter(nl[1], nl[target])) == (False, False), field

    def test_covered_changes_pass(self):
        lst = build_list([A, B, A, B])
        assert verdicts(lst, lambda: lst.set_at(2, NULL)) == (True, True)
        assert verdicts(lst, lambda: lst.add_at(2, B)) == (True, True)
        assert verdicts(lst, lambda: lst.remove_at(3)) == (True, True)
        assert verdicts(lst, lambda: lst.poll_last()) == (True, True)
        assert verdicts(lst, lambda: lst.clear()) == (True, True)


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
        monkeypatch.setattr(
            ghostspec, "check_invariant", counting("check_invariant", check_invariant)
        )
        return counts

    def test_passing_scoped_check_walks_nothing(self, calls):
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL)
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
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL,
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


@contextmanager
def carried_entries(plain: bool = False):
    """Route ``run_script``'s checked calls through a wrapper that runs
    the full ``check_invariant`` and reads the chain beside every carried
    entry, asserting the carried state; yields the ops entered carried.
    With ``plain``, the carried state is dropped, so every step runs the
    full entry check and computes its own verdict."""
    entered = []
    real = difftest.run_checked

    def beside(lst, op, args=(), *, carried=None):
        if carried is not None:
            report = check_invariant(lst)
            assert report.ok, (op, report.failures())
            assert tuple(lst.items()) == carried[0].items, op
            entered.append(op)
        return real(lst, op, args, carried=None if plain else carried)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(difftest, "run_checked", beside)
        yield entered


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
    @given(
        st.sampled_from((0, 1, 126, 127)) | st.integers(0, 127),
        st.sampled_from((None, *FAULTS)),
        st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=30),
        st.data(),
    )
    def test_drawn_scripts_match_the_plain_path(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        steps = [("add", (ALPHABET[i % len(ALPHABET)],)) for i in range(prefix)]
        steps += [
            (op, tuple(
                data.draw(st.integers(-1, prefix + 2) if kind == INDEX else st.sampled_from(ALPHABET))
                for kind in OP_SPECS[op].args
            ))
            for op in ops
        ]
        with carried_entries() as entered:
            carried = full_failfast(steps, faults)
        with carried_entries(plain=True):
            plain = full_failfast(steps, faults)
        assert entered
        assert outputs(carried) == outputs(plain)

    def test_plain_call_still_checks_the_entry_state(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL)
        for x in (A, B, A):
            run_checked(lst, "add", (x,))
        # a link changed outside any journal, as statespace and tests do
        lst.store.record(lst.ghost.node_list[1]).next = None
        with pytest.raises(UsageError, match=r"invariant broken before get: \[\('C6'"):
            run_checked(lst, "get", (0,))

    def test_carried_state_requires_failfast(self):
        lst = new_list(8, SizePolicy.UNCHECKED, CheckMode.FULL)
        empty = oracle.AbstractList((), 8, bounded=False)
        with pytest.raises(UsageError, match="requires a FailFast list"):
            run_checked(lst, "size", (), carried=(empty, *oracle.oracle_apply(empty, "size", ())))
