"""The journal-scoped exit check of ``run_checked``.

``exit_invariant_holds`` re-checks the class invariant only where a
call's journal says the call could have broken it. Its proof obligation:
on every state reached from one where the invariant held, its verdict
equals the full ``check_invariant`` verdict. Hand-built calls outside
the three ghost changes it understands must make it fall back (answer
False), and a passing scoped check must spare ``run_checked`` every walk
and the second full check.
"""

from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from overlist import ghostspec, heapmodel, listcore
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, gen_script
from overlist.errors import ChainCorruption, ContractViolation, ListError
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
