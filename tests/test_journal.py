"""Undo journal: ``NodeStore`` savepoints and rollback,
``JavaLinkedList.trial`` and the journal's reading of what a call
changed.

A trial must leave the list exactly as a ``fingerprint`` taken before
the call saw it, whatever the call did in between: succeed, raise, be
refused at capacity, clear the whole chain, or run nested in another
trial or under the checks of ``run_checked``. States past capacity on
the Unchecked policy are included, since the census probes exactly
those. The node changes a frame check reads from a closed journal must
equal the diff of whole-heap snapshots taken before and after, on the
same states.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from overlist import difftest
from overlist.difftest import ADD_HEAVY_WEIGHTS, gen_script, prepare_overflow, run_op
from overlist.errors import ChainCorruption, ContractViolation, ListError, UsageError
from overlist.ghostspec import Footprint, checked_step, frame_check, observe, run_checked
from overlist.heapmodel import NULL, Atom, NodeStore, diff, snapshot
from overlist.listcore import CheckMode, SizePolicy, apply_op, new_list
from overlist.oracle import ALPHABET, INDEX, OP_SPECS, AbstractList, oracle_apply

A, B = Atom("a"), Atom("b")

MUTATING = sorted(name for name, spec in OP_SPECS.items() if spec.mutating)
FIELD_POSITION = {"prev": 0, "item": 1, "next": 2}  # in a snapshot record
#: permits every header and ghost change, so a frame check reports only
#: changed node fields and allocations
NODES_ONLY = Footprint(header_fields=frozenset({"first", "last", "size"}), ghost=True)


def add_heavy_state(policy, prefix_seed, prefix_len, check_mode=CheckMode.OFF):
    lst = new_list(8, policy, check_mode)
    for name, args in gen_script(prefix_seed, 8, prefix_len, ADD_HEAVY_WEIGHTS).steps:
        run_op(lst, name, args)
    return lst


def draw_args(lst, op, data):
    """Arguments for ``op``; indices range one past each end of the chain."""
    n = len(lst.chain())
    return tuple(
        data.draw(st.integers(-1, n + 1) if kind == INDEX else st.sampled_from(ALPHABET))
        for kind in OP_SPECS[op].args
    )


def fingerprint(lst):
    """Everything a rollback must restore."""
    return snapshot(lst.store), (lst.first, lst.last, lst.size), list(lst.ghost)


class TestNodeStoreJournal:
    def test_rollback_restores_writes_and_forgets_allocations(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        n1 = store.alloc(n0, B, None)
        store.set_next(n0, n1)
        before = store.copy()
        mark = store.open_journal()
        n2 = store.alloc(n1, NULL, None)
        store.set_next(n1, n2)
        store.set_item(n0, B)
        store.set_item(n0, NULL)
        store.set_prev(n1, None)
        store.rollback(mark)
        assert n2 not in store and len(store) == 2
        assert snapshot(store).next_id == snapshot(before).next_id
        for nid in (n0, n1):
            r, b = store.record(nid), before.record(nid)
            assert (r.prev, r.item, r.next) == (b.prev, b.item, b.next)
        assert store.alloc(None, A, None) == n2  # the forgotten id is free again

    def test_writes_outside_a_journal_are_not_recorded(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        store.set_item(n0, B)
        store.rollback(store.open_journal())
        assert store.record(n0).item == B

    def test_close_keeps_the_writes(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        mark = store.open_journal()
        n1 = store.alloc(n0, B, None)
        store.set_next(n0, n1)
        entries, fresh = store.close_journal(mark)
        assert (entries, fresh) == ([n0, "next", None], range(n1, n1 + 1))
        assert store.record(n0).next == n1 and n1 in store
        assert store._journal is None

    def test_misuse_is_a_usage_error(self):
        store = NodeStore()
        mark = store.open_journal()
        store.close_journal(mark)
        # a closed savepoint, and one never opened, cannot be closed again
        for stale in (mark, (0, 0)):
            with pytest.raises(UsageError):
                store.rollback(stale)
            with pytest.raises(UsageError):
                store.close_journal(stale)

    def test_only_the_innermost_savepoint_closes(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        outer = store.open_journal()
        store.set_item(n0, B)
        inner = store.open_journal()
        store.set_item(n0, NULL)
        for undo in (store.close_journal, store.rollback):
            with pytest.raises(UsageError):
                undo(outer)
        assert store.record(n0).item == NULL  # the refused calls changed nothing
        store.rollback(inner)
        assert store.record(n0).item == B
        store.rollback(outer)
        assert store.record(n0).item == A and store._journal is None

    def test_inner_savepoints_report_and_undo_only_their_own_writes(self):
        """A closed inner savepoint's writes stay in the outer one; a
        rolled-back one's leave no trace."""
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        outer = store.open_journal()
        store.set_item(n0, B)
        inner = store.open_journal()
        n1 = store.alloc(n0, NULL, None)
        store.set_next(n0, n1)
        assert store.close_journal(inner) == ([n0, "next", None], range(n1, n1 + 1))
        undone = store.open_journal()
        store.set_prev(n0, n1)
        store.alloc(n1, A, None)
        store.rollback(undone)
        entries, fresh = store.close_journal(outer)
        assert entries == [n0, "item", A, n0, "next", None]
        assert fresh == range(n1, n1 + 1)


class TestTrial:
    def test_changes_are_visible_inside_and_gone_after(self):
        lst = new_list(8)
        for x in (A, B, NULL):
            lst.add(x)
        before = fingerprint(lst)
        with lst.trial():
            lst.clear()
            lst.add_first(B)
            assert lst.items() == [B] and lst.size == 1
        assert fingerprint(lst) == before
        assert lst.items() == [A, B, NULL]

    def test_rolls_back_when_the_body_raises(self):
        lst = new_list(8)
        lst.add(A)
        before = fingerprint(lst)
        with pytest.raises(RuntimeError):
            with lst.trial():
                lst.remove_first()
                raise RuntimeError("probe failed")
        assert fingerprint(lst) == before
        assert lst.store._journal is None

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(list(SizePolicy)),
        prefix_seed=st.integers(0, 10_000),
        prefix_len=st.integers(0, 400),
        op=st.sampled_from(MUTATING),
        data=st.data(),
    )
    def test_trial_equals_a_pre_op_copy(self, policy, prefix_seed, prefix_len, op, data):
        """Any state an add-heavy script reaches (past capacity on
        Unchecked, at capacity with refusals on FailFast), then one
        mutating call inside a trial."""
        lst = add_heavy_state(policy, prefix_seed, prefix_len)
        args = draw_args(lst, op, data)
        reference = fingerprint(lst)
        with lst.trial():
            run_op(lst, op, args)  # value, ListError or refusal alike
        assert fingerprint(lst) == reference
        assert lst.store._journal is None

    @pytest.mark.parametrize("policy", list(SizePolicy))
    @pytest.mark.parametrize("wrap", [False, True])
    def test_every_mutating_call_on_the_overflow_states(self, policy, wrap):
        """The census states themselves: a wrapped or negative size on
        Unchecked, a list at capacity that refuses every add on FailFast."""
        lst, _ = prepare_overflow(8, policy, wrap)
        reference = fingerprint(lst)
        n = len(lst.chain())
        for op in MUTATING:
            grid = [(-1, 0, 1, n // 2, n - 1, n, n + 1) if kind == INDEX else ALPHABET
                    for kind in OP_SPECS[op].args]
            for args in itertools.product(*grid):
                with lst.trial():
                    run_op(lst, op, args)
                assert fingerprint(lst) == reference, (op, args)


def checked_journal(lst, op, args):
    """The journal entries and fresh-id bounds ``run_checked`` reads for
    one call on ``lst``."""
    store, closed = lst.store, []
    close = store.close_journal

    def recording_close(mark):
        closed.append(close(mark))
        return closed[-1]

    store.close_journal = recording_close
    try:
        run_checked(lst, op, args)
    except ListError:
        pass
    finally:
        del store.close_journal
    (entries, fresh), = closed
    return entries, (fresh.start, fresh.stop)


class TestNesting:
    """Savepoints nest: a trial inside a trial, or a checked call inside
    a trial, undoes or reads only its own writes."""

    @settings(max_examples=100, deadline=None)
    @given(
        policy=st.sampled_from(list(SizePolicy)),
        prefix_seed=st.integers(0, 10_000),
        prefix_len=st.integers(0, 400),
        outer=st.sampled_from(MUTATING),
        op=st.sampled_from(MUTATING),
        data=st.data(),
    )
    def test_a_call_in_a_nested_trial(self, policy, prefix_seed, prefix_len, outer, op, data):
        lst = add_heavy_state(policy, prefix_seed, prefix_len)
        before = fingerprint(lst)
        with lst.trial():
            run_op(lst, outer, draw_args(lst, outer, data))
            inside = fingerprint(lst)
            with lst.trial():
                run_op(lst, op, draw_args(lst, op, data))
            assert fingerprint(lst) == inside
        assert fingerprint(lst) == before
        assert lst.store._journal is None

    @settings(max_examples=100, deadline=None)
    @given(
        prefix_seed=st.integers(0, 10_000),
        prefix_len=st.integers(0, 400),
        op=st.sampled_from(MUTATING),
        data=st.data(),
    )
    def test_a_checked_call_in_a_trial(self, prefix_seed, prefix_len, op, data):
        """FailFast at and below capacity: the trial undoes the checked
        call, and the call's journal is the one it has with no trial open."""
        lst = add_heavy_state(SizePolicy.FAIL_FAST, prefix_seed, prefix_len, CheckMode.FULL)
        args = draw_args(lst, op, data)
        before = fingerprint(lst)
        with lst.trial():
            in_trial = checked_journal(lst, op, args)
        assert fingerprint(lst) == before
        assert in_trial == checked_journal(lst, op, args)


@pytest.mark.parametrize("policy", list(SizePolicy))
def test_census_leaves_the_prepared_states_unchanged(monkeypatch, policy):
    """The census prepares one list: it probes the sign flip, adds the
    rest of the wrap items to the same list, and probes again. At each
    stage's first probe, and after the last one, the list must be the
    state a fresh preparation builds (node ids, records, header and
    ghost), and the oracle state must hold that list's items, so a write
    that any probe leaked shows at the next stage or at the end."""
    probe = difftest._probe_classification
    for width in (8, 16):
        stages = []  # (oracle state, list, fingerprint) at each stage's first probe

        def recording_probe(impl, abs_state, method, args):
            if not stages or stages[-1][0] is not abs_state:
                stages.append((abs_state, impl, fingerprint(impl)))
            return probe(impl, abs_state, method, args)

        monkeypatch.setattr(difftest, "_probe_classification", recording_probe)
        difftest.census(width, policy)
        (flip_state, lst, flip_print), (wrap_state, wrap_lst, wrap_print) = stages
        assert wrap_lst is lst
        flip, _ = prepare_overflow(width, policy, wrap=False)
        assert flip_print == fingerprint(flip), width
        assert flip_state.items == tuple(flip.items()), width
        wrap, _ = prepare_overflow(width, policy, wrap=True)
        assert wrap_print == fingerprint(wrap) == fingerprint(lst), width
        assert wrap_state.items == tuple(wrap.items()), width


def raw_writes(store, data, count):
    """Setter sequences no list operation makes: arbitrary links, writes
    that restore the old value, and writes to freshly allocated nodes.
    Writes go to the six newest nodes, so fresh ones are hit often."""
    for _ in range(count):
        kind = data.draw(st.sampled_from(("alloc", "prev", "next", "item", "restore")))
        ids = sorted(store.ids())[-6:]
        if kind == "alloc" or not ids:
            store.alloc(None, NULL, None)
            continue
        node = data.draw(st.sampled_from(ids))
        if kind == "item":
            store.set_item(node, data.draw(st.sampled_from(ALPHABET)))
        elif kind == "restore":
            old = store.record(node).item
            store.set_item(node, B if old != B else A)
            store.set_item(node, old)
        else:
            link = data.draw(st.sampled_from([None] + ids))
            (store.set_prev if kind == "prev" else store.set_next)(node, link)


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(list(SizePolicy)),
    prefix_seed=st.integers(0, 10_000),
    prefix_len=st.integers(0, 400),
    op=st.sampled_from(MUTATING) | st.just("raw writes"),
    data=st.data(),
)
def test_journal_changes_equal_the_snapshot_diff(policy, prefix_seed, prefix_len, op, data):
    """On the states of ``test_trial_equals_a_pre_op_copy``, one mutating
    call (value, ListError or refusal alike) or a raw setter sequence:
    read from the journal, the frame check names the same changed
    fields, with the same old and new values, and the same fresh ids as
    ``diff`` of snapshots."""
    lst = add_heavy_state(policy, prefix_seed, prefix_len)
    store = lst.store
    pre, before = observe(lst), snapshot(store)
    mark = store.open_journal()
    if op == "raw writes":
        raw_writes(store, data, data.draw(st.integers(0, 12)))
    else:
        run_op(lst, op, draw_args(lst, op, data))
    journal = store.close_journal(mark)
    after = snapshot(store)
    reference = diff(before, after)
    expected = [
        ("frame", f"node {nid}.{name}: {before.records[nid][FIELD_POSITION[name]]!r} -> "
                  f"{after.records[nid][FIELD_POSITION[name]]!r}")
        for nid, name in sorted(reference.changed)
    ]
    if reference.fresh:
        expected.append(("frame", f"unexpected allocation of nodes {sorted(reference.fresh)}"))
    assert frame_check(pre, lst, journal, NODES_ONLY, tuple(lst.ghost)) == expected


class TestRunCheckedClosesTheJournal:
    """Whatever a checked call raises, the store's journal is closed and
    the next checked call on the same list runs."""

    def test_after_a_loop_probe_violation(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL,
                       faults=frozenset({"lastindexof-off-by-one"}))
        for x in (A, B):
            run_checked(lst, "add", (x,))
        with pytest.raises(ContractViolation, match="last_index_of.loop"):
            run_checked(lst, "last_index_of", (A,))
        assert lst.store._journal is None
        assert run_checked(lst, "add", (B,)) is True
        assert lst.items() == [A, B, B]

    def test_after_chain_corruption(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL,
                       faults=frozenset({"unlink-skip-relink"}))
        for _ in range(10):
            lst.add(A)
        # the fault leaves the successor's prev on the removed node, so
        # a backward walk from the last node falls off after three steps
        apply_op(lst, "remove_at", (7,))
        # a checked step assumes the invariant whose entry check would
        # refuse this state
        abs_pre = AbstractList((A,) * 9, 8)
        with pytest.raises(ChainCorruption):
            checked_step(lst, "get", (5,), (abs_pre.items, *oracle_apply(abs_pre, "get", (5,))))
        assert lst.store._journal is None
        model = (abs_pre.items, *oracle_apply(abs_pre, "add_first", (B,)))
        assert checked_step(lst, "add_first", (B,), model)[0] == ("value", None)
        assert lst.items()[0] == B


def setter_unlink(lst, x, relink=True):
    """The store writes of unlinking ``x`` with one setter per field: the
    relinks, then prev, item and next of ``x``."""
    store = lst.store
    rec = store.record(x)
    pred, succ = rec.prev, rec.next
    if pred is not None and relink:
        store.set_next(pred, succ)
    if succ is not None and relink:
        store.set_prev(succ, pred)
    store.set_prev(x, None)
    store.set_item(x, NULL)
    store.set_next(x, None)


class TestClearingJournalsLikeTheSetters:
    """``unlink`` and ``clear`` null a node's fields in one store call; the
    journal reads as if the three setters had run in prev, item, next
    order, and a rollback restores the list."""

    ITEMS = (A, B, NULL, A, B)

    def journaled(self, lst, body):
        mark = lst.store.open_journal()
        body()
        entries, fresh = lst.store.close_journal(mark)
        return entries, fresh

    @pytest.mark.parametrize("faults", [frozenset(), frozenset({"unlink-skip-relink"})])
    @pytest.mark.parametrize("position", range(len(ITEMS)))
    def test_unlink(self, faults, position):
        lst, twin = (new_list(8, SizePolicy.UNCHECKED, faults=faults) for _ in range(2))
        for x in self.ITEMS:
            lst.add(x)
            twin.add(x)
        reference = fingerprint(lst)
        x = lst.chain()[position]
        with lst.trial():
            entries = self.journaled(lst, lambda: lst.unlink(x))
        assert fingerprint(lst) == reference

        relink = "unlink-skip-relink" not in faults
        assert entries == self.journaled(twin, lambda: setter_unlink(twin, x, relink))

    @pytest.mark.parametrize("check_mode", [CheckMode.OFF, CheckMode.FULL])
    def test_clear(self, check_mode):
        lst, twin = (new_list(8, SizePolicy.FAIL_FAST, check_mode) for _ in range(2))
        for x in self.ITEMS:
            lst.add(x)
            twin.add(x)
        reference = fingerprint(lst)
        with lst.trial():
            entries = self.journaled(lst, lst.clear)
            assert lst.items() == [] and lst.size == 0
        assert fingerprint(lst) == reference

        def setters():
            for node in twin.chain():
                twin.store.set_prev(node, None)
                twin.store.set_item(node, NULL)
                twin.store.set_next(node, None)

        assert entries == self.journaled(twin, setters)
