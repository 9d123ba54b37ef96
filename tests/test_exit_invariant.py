"""The journal-scoped exit check of ``checked_step``, and the entry
state ``run_script`` carries from one checked step to the next.

``exit_invariant_holds`` re-checks the class invariant only where a
call's journal says the call could have broken it. Its proof obligation:
on every state reached from one where the invariant held, its verdict
equals the full ``check_invariant`` verdict. Hand-built calls outside
the three ghost changes it understands must make it fall back (answer
None), and a passing scoped check must spare ``run_checked`` every walk
and the second full check.

Under ``full``, ``run_script`` sends each step to ``checked_step`` with
no entry check, judged against the oracle verdict and items it carries.
Its proof obligation: at every step's entry the full invariant holds and
the chain's items are the carried oracle items, and the outputs equal
those of sending every step through the public ``run_checked``.

Under ``full``, a step whose scoped check vouched derives its post-state
items from the carried entry items, the ghost edit the scoped check
located and the journal's item writes, instead of reading the chain.
Its proof obligation: beside every such step, a whole read of the
chain's items equals the derived ones, and a violation found through
the derived items has the text a whole read gives. A passing step then
reads as many nodes at 120 nodes as at 8, beyond the list's own work.

Under ``invariant``, ``checked_step`` judges each step by the scoped
exit check while the invariant holds, and runs the full check only when
that does not vouch for the state. Its proof obligation: beside every
step whose scoped check passed, the full invariant holds.

Under both, a step that wrote nothing (an empty journal, no allocation,
and the header and ghost of entry) skips the scoped check, the post-item
derivation and the frame check. Its proof obligation: beside every such
step, that general path vouches with the entry ghost, derives the entry
items and finds no frame violation; a call that writes and writes back,
allocates, or changes the size or ghost behind the store takes the
general path.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

from overlist import difftest, ghostspec, heapmodel, listcore
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, OpScript, gen_script, run_script
from overlist.errors import ChainCorruption, ContractViolation, ListError, UsageError
from overlist.ghostspec import (PreObservation, _post_items, check_invariant,
                                 exit_invariant_holds, frame_check, run_checked)
from overlist.heapmodel import NULL, Atom
from overlist.listcore import FAULTS, CheckMode, SizePolicy, apply_op, new_list
from overlist.oracle import ALPHABET, EMPTY_FOOTPRINT, INDEX, OP_SPECS, AbstractList, oracle_apply
from overlist.statespace import build_list

A, B = Atom("a"), Atom("b")


def verdicts(lst, change):
    """Run ``change()`` on ``lst`` under a journal; return the scoped and
    the full exit verdicts, the scoped one as whether it located an edit.
    The invariant must hold on entry."""
    assert check_invariant(lst) == []
    pre = tuple(lst.ghost)
    mark = lst.store.open_journal()
    try:
        change()
    finally:
        journal = lst.store.close_journal(mark)
    return bool(exit_invariant_holds(lst, pre, journal)), not check_invariant(lst)


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
        def swap_far(nl):
            nl[4], nl[5] = nl[5], nl[4]

        lst = build_list([A, B] * 6)
        nl = lst.ghost
        assert verdicts(lst, lambda: (lst.remove_at(1), swap_far(nl))) == (False, False)
        lst = build_list([A, B] * 6)
        nl = lst.ghost
        assert verdicts(lst, lambda: (lst.add_at(1, A), swap_far(nl))) == (False, False)

    def test_ghost_change_without_matching_writes(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, faults=frozenset({"unlink-skip-relink"}))
        for x in (A, B, A):
            lst.add(x)
        assert verdicts(lst, lambda: lst.remove_at(1)) == (False, False)
        lst = build_list([A, B, A])

        def drop_middle():
            del lst.ghost[1]
            lst.size -= 1

        assert verdicts(lst, drop_middle) == (False, False)
        lst = build_list([A, B, A, B, A])

        def splice_unlinked():
            lst.ghost.insert(2, lst.store.alloc(None, B, None))
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
            lst.ghost.append(999)
            lst.size += 1

        assert verdicts(lst, append_unallocated) == (False, False)

    def test_rolled_back_node_in_the_ghost(self):
        lst = build_list([A, B])

        def link_then_forget():
            with lst.trial():
                node = lst.store.alloc(lst.last, A, None)
            lst.ghost.append(node)
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
        assert exit_invariant_holds(lst, pre, nothing) is None
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
            lst.ghost.append(node)
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
            lst.ghost.insert(0, node)
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
                del nl[5]
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
            nl = lst.ghost

            def add_and_alias():
                if at_end:
                    lst.add(A)
                    nl[3] = nl[-1]
                else:
                    lst.add_first(A)
                    nl[-3] = nl[0]

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
        assert tuple(lst.items()) == model[0], op
        entered.append(op)
        if not plain:
            return real(lst, op, args, model)
        try:
            result = run_checked(lst, op, args)
        except ListError as e:
            return ("error", e.kind), e, ()
        return ("value", result), result, ()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(difftest, "checked_step", beside)
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
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL)
        for x in (A, B, A):
            run_checked(lst, "add", (x,))
        # a link changed outside any journal, as statespace and tests do
        lst.store.raw_write(lst.ghost[1], "next", None)
        with pytest.raises(UsageError, match=r"invariant broken before get: \[\('C6'"):
            run_checked(lst, "get", (0,))

    @pytest.mark.parametrize("mode", list(CheckMode))
    def test_checks_require_failfast(self, mode):
        # an Unchecked list breaks the invariant once its size wraps, so
        # it is refused any check mode but OFF when it is built
        if mode is CheckMode.OFF:
            assert new_list(8, SizePolicy.UNCHECKED, mode).check_mode is CheckMode.OFF
        else:
            with pytest.raises(UsageError, match="Unchecked list cannot be checked"):
                new_list(8, SizePolicy.UNCHECKED, mode)


@contextmanager
def derived_items():
    """Run a whole read of the chain's items beside every ``full`` step
    whose post-state items ``checked_step`` did not read whole, asserting
    the two are equal; yields each such step's kind. A step the scoped
    exit check vouched for derived its items from the located ghost edit
    (an "insert", a "remove", an "item write" or "links only"); a step
    that wrote nothing ("unchanged") took the entry items, which
    ``_post_vs_model`` receives with the entry ghost as the chain."""
    kinds = []
    exits = [False]
    real_items, real_exit, real_post = (
        ghostspec._post_items, ghostspec._wrote_nothing, ghostspec._post_vs_model)

    def beside(lst, pre, edit, journal):
        derived = real_items(lst, pre, edit, journal)
        assert derived == tuple(lst.items())
        entries, _ = journal
        d = len(edit[0]) - len(pre.ghost)
        kinds.append("insert" if d > 0 else "remove" if d < 0
                     else "item write" if "item" in entries[1::3] else "links only")
        return derived

    def wrote_nothing(lst, header, ghost, journal):
        exits[0] = real_exit(lst, header, ghost, journal)
        return exits[0]

    def post_vs_model(lst, verdict, abs_post, outcome, chain, items):
        if exits[0]:
            assert chain == tuple(lst.chain()) and items == tuple(lst.items())
            kinds.append("unchanged")
        return real_post(lst, verdict, abs_post, outcome, chain, items)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghostspec, "_post_items", beside)
        mp.setattr(ghostspec, "_wrote_nothing", wrote_nothing)
        mp.setattr(ghostspec, "_post_vs_model", post_vs_model)
        yield kinds


Z = Atom("z")  # in no generated script


class TestDerivedItems:
    """Under ``full``, a step the scoped exit check vouched for derives
    its post-state items from the entry items, the ghost edit and the
    journal's item writes. Its proof obligation: beside every such step,
    a whole read of the chain's items equals the derived ones."""

    def test_generated_scripts_all_faults_both_mixes(self):
        kinds = Counter()
        for fault in (None, *FAULTS):
            faults = frozenset() if fault is None else frozenset({fault})
            for weights in (ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS):
                for seed in range(6):
                    with derived_items() as seen:
                        full_failfast(gen_script(seed, 8, 400, weights).steps, faults)
                    kinds.update(seen)
        assert all(kinds[k] > 100 for k in ("insert", "remove", "item write", "unchanged")), kinds

    @settings(max_examples=60, deadline=None)
    @given_drawn_script
    def test_drawn_scripts(self, prefix, fault, ops, data):
        faults = frozenset() if fault is None else frozenset({fault})
        with derived_items() as seen:
            full_failfast(drawn_steps(prefix, ops, data), faults)
        # the first step runs on an empty list, where every call that
        # writes vouches
        assert seen

    @staticmethod
    def step_and_write(op, args, node_at, derive=True):
        """Run ``op`` through ``checked_step`` on a checked list of 12
        items, as a call that first writes ``Z`` into the item of the node
        ``node_at(lst)`` picks, through the journaled setter (a removal's
        clearing stays the call's last write). Without ``derive``, the
        scoped exit check never vouches, so the chain's items are read
        whole. Returns the kinds of the derived steps and the
        ContractViolation raised, or None."""
        lst = build_list([A, B] * 6, check_mode=CheckMode.FULL)
        node = node_at(lst)
        real = listcore.apply_op

        def write_and_call(state, op, args):
            state.store.set_item(node, Z)
            return real(state, op, args)

        items = tuple(lst.items())
        model = (items, *oracle_apply(AbstractList(items, 8), op, args))
        with pytest.MonkeyPatch.context() as mp, derived_items() as seen:
            mp.setattr(listcore, "apply_op", write_and_call)
            if not derive:
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
        seen, derived = self.step_and_write(op, args, lambda lst: lst.ghost[9])
        assert seen and "post" in derived.categories()
        unseen, whole = self.step_and_write(op, args, lambda lst: lst.ghost[9], derive=False)
        assert not unseen
        assert str(derived) == str(whole)

    def test_item_write_outside_the_chain(self):
        def garbage(lst):
            node = lst.first
            lst.poll_first()
            return node

        # the frame check names the write; the derived items are the chain's
        seen, violation = self.step_and_write("add", (A,), garbage)
        assert seen == ["insert"] and violation.categories() == {"frame"}


def filled(n, width=8, check_mode=CheckMode.OFF):
    return build_list([ALPHABET[i % len(ALPHABET)] for i in range(n)], width, check_mode=check_mode)


class TestFlatRecordReads:
    """A passing ``full`` step reads nodes only where the call acted.
    Beyond the list's own work, counted by the same call on an ``OFF``
    list, the number of nodes read does not grow with the list's length.
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
        checked, plain = filled(n, width, CheckMode.FULL), filled(n, width)
        items = tuple(checked.items())
        model = (items, *oracle_apply(AbstractList(items, width), op, args))
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
    runs the full ``check_invariant`` beside every one that passed;
    yields the verdicts of the scoped checks, in order, as whether each
    located an edit. With ``plain``, every scoped check answers None, so
    the full check runs after every step, as it does without the carry."""
    seen = []
    real = ghostspec.exit_invariant_holds

    def beside(lst, pre, journal):
        edit = real(lst, pre, journal)
        if edit:
            failures = check_invariant(lst)
            assert not failures, failures
        seen.append(bool(edit))
        return None if plain else edit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghostspec, "exit_invariant_holds", beside)
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
        real_scoped, real_full = ghostspec.exit_invariant_holds, ghostspec.check_invariant
        real_exit = ghostspec._wrote_nothing

        def scoped(lst, pre, journal):
            log.append("scoped")
            return real_scoped(lst, pre, journal)

        def wrote_nothing(lst, header, ghost, journal):
            took = real_exit(lst, header, ghost, journal)
            if took:
                log.append("unchanged")
            return took

        def full(lst):
            failures = real_full(lst)
            log.append("full-failed" if failures else "full")
            return failures

        # the full check runs in the step after a failed scoped check, and
        # in the run itself while the invariant is broken
        monkeypatch.setattr(ghostspec, "exit_invariant_holds", scoped)
        monkeypatch.setattr(ghostspec, "_wrote_nothing", wrote_nothing)
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


@contextmanager
def nothing_written_exits():
    """Beside every checked step of ``run_script`` that takes the
    nothing-written exit, run the general path on the same state and
    journal: the scoped exit check, the post-item derivation, the
    operation's footprint and the frame check. The scoped check must
    vouch with the entry ghost and position 0, the derivation must give
    the entry items (read whole before the call, and again after it), and
    the frame check must find nothing. Yields each exit's ``exit_kind``."""
    kinds = []
    taken = []
    real_step, real_exit = ghostspec.checked_step, ghostspec._wrote_nothing

    def wrote_nothing(lst, header, ghost, journal):
        took = real_exit(lst, header, ghost, journal)
        taken[:] = [(header, ghost, journal)] if took else []
        return took

    def step(lst, op, args, model=None):
        items = tuple(lst.items())
        assert model is None or model[0] == items
        outcome, result, failures = real_step(lst, op, args, model)
        if taken:
            header, ghost, journal = taken.pop()
            pre = PreObservation(items, header, ghost)
            assert exit_invariant_holds(lst, ghost, journal) == (ghost, 0)
            assert _post_items(lst, pre, (ghost, 0), journal) == items == tuple(lst.items())
            fp = EMPTY_FOOTPRINT if outcome[0] == "error" else OP_SPECS[op].footprint(pre, args)
            assert frame_check(pre, lst, journal, fp, ghost) == []
            kinds.append(exit_kind(op, outcome))
        return outcome, result, failures

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghostspec, "_wrote_nothing", wrote_nothing)
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
        lst = build_list([A, B] * 6, check_mode=CheckMode.FULL if full else CheckMode.OFF)
        real = listcore.apply_op

        def change_and_call(state, op, args):
            change(state)
            return real(state, op, args)

        items = tuple(lst.items())
        model = (items, *oracle_apply(AbstractList(items, 8), op, args)) if full else None
        log = []
        real_exit, real_scoped = ghostspec._wrote_nothing, ghostspec.exit_invariant_holds

        def wrote_nothing(*a):
            took = real_exit(*a)
            if took:
                log.append("exit")
            return took

        def scoped(*a):
            log.append("scoped")
            return real_scoped(*a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listcore, "apply_op", change_and_call)
            mp.setattr(ghostspec, "_wrote_nothing", wrote_nothing)
            mp.setattr(ghostspec, "exit_invariant_holds", scoped)
            try:
                _, _, failures = ghostspec.checked_step(lst, op, args, model)
                reported = [cid for cid, _ in failures]
            except ContractViolation as e:
                reported = [w.split(":")[0] if cat == "invariant" else cat
                            for cat, w in e.violations]
        return "exit" in log, "scoped" in log, reported

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
