"""Undo journal: ``NodeStore`` rollback and ``JavaLinkedList.trial``.

A trial must leave the list exactly as a pre-call ``copy()`` saw it,
whatever the call did in between: succeed, raise, be refused at
capacity, or clear the whole chain. States past capacity on the
Unchecked policy are included, since the census probes exactly those.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from overlist import difftest
from overlist.difftest import ADD_HEAVY_WEIGHTS, gen_script, prepare_overflow, run_op
from overlist.errors import UsageError
from overlist.heapmodel import NULL, Atom, NodeStore
from overlist.listcore import SizePolicy, new_list
from overlist.ops import ALPHABET, INDEX, OP_SPECS

A, B = Atom("a"), Atom("b")

MUTATING = sorted(name for name, spec in OP_SPECS.items() if spec.mutating)


def fingerprint(lst):
    """Everything a rollback must restore."""
    store = lst.store
    records = {nid: (r.prev, r.item, r.next) for nid, r in store._records.items()}
    return records, store._next_id, (lst.first, lst.last, lst.size), list(lst.ghost.node_list)


class TestNodeStoreJournal:
    def test_rollback_restores_writes_and_forgets_allocations(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        n1 = store.alloc(n0, B, None)
        store.set_next(n0, n1)
        before = store.copy()
        store.open_journal()
        n2 = store.alloc(n1, NULL, None)
        store.set_next(n1, n2)
        store.set_item(n0, B)
        store.set_item(n0, NULL)
        store.set_prev(n1, None)
        store.rollback()
        assert n2 not in store and len(store) == 2
        assert store._next_id == before._next_id
        for nid in (n0, n1):
            r, b = store.record(nid), before.record(nid)
            assert (r.prev, r.item, r.next) == (b.prev, b.item, b.next)
        assert store.alloc(None, A, None) == n2  # the forgotten id is free again

    def test_writes_outside_a_journal_are_not_recorded(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        store.set_item(n0, B)
        store.open_journal()
        store.rollback()
        assert store.record(n0).item == B

    def test_misuse_is_a_usage_error(self):
        store = NodeStore()
        with pytest.raises(UsageError):
            store.rollback()
        store.open_journal()
        with pytest.raises(UsageError):
            store.open_journal()


class TestTrial:
    def test_changes_are_visible_inside_and_gone_after(self):
        lst = new_list(8)
        for x in (A, B, NULL):
            lst.add(x)
        before = fingerprint(lst)
        with lst.trial():
            lst.clear()
            lst.add_first(B)
            assert lst.items() == [B] and lst.size.value == 1
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
        lst = new_list(8, policy)
        for name, args in gen_script(prefix_seed, 8, prefix_len, ADD_HEAVY_WEIGHTS).steps:
            run_op(lst, name, args)
        n = len(lst.chain())
        args = tuple(
            data.draw(st.integers(-1, n + 1) if kind == INDEX else st.sampled_from(ALPHABET))
            for kind in OP_SPECS[op].args
        )
        reference = lst.copy()
        with lst.trial():
            run_op(lst, op, args)  # value, ListError or refusal alike
        assert fingerprint(lst) == fingerprint(reference)
        assert lst.store._journal is None

    @pytest.mark.parametrize("policy", list(SizePolicy))
    @pytest.mark.parametrize("wrap", [False, True])
    def test_every_mutating_call_on_the_overflow_states(self, policy, wrap):
        """The census states themselves: a wrapped or negative size on
        Unchecked, a list at capacity that refuses every add on FailFast."""
        lst, _ = prepare_overflow(8, policy, wrap)
        reference = fingerprint(lst.copy())
        n = len(lst.chain())
        for op in MUTATING:
            grid = [(-1, 0, 1, n // 2, n - 1, n, n + 1) if kind == INDEX else ALPHABET
                    for kind in OP_SPECS[op].args]
            for args in itertools.product(*grid):
                with lst.trial():
                    run_op(lst, op, args)
                assert fingerprint(lst) == reference, (op, args)


@pytest.mark.parametrize("policy", list(SizePolicy))
def test_census_leaves_the_prepared_states_unchanged(monkeypatch, policy):
    states = difftest.build_overflow_states(8, policy)
    references = [fingerprint(lst.copy()) for lst, _ in states]
    monkeypatch.setattr(difftest, "build_overflow_states", lambda width, policy: states)
    difftest.census(8, policy)
    assert [fingerprint(lst) for lst, _ in states] == references
