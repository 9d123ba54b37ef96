"""Explicit heap model: items, node store, chain walking, snapshot diffs."""

import copy
import pickle
import sys
from functools import partial
from unittest import mock

import pytest

from overlist import heapmodel
from overlist.errors import ChainCorruption, CycleDetected, DanglingLink, UsageError
from overlist.ghostspec import check_invariant
from overlist.heapmodel import (
    NULL,
    Atom,
    NodeStore,
    NullItem,
    diff,
    item_test,
    items_equal,
    snapshot,
    walk_chain,
)
from overlist.listcore import new_list
from overlist.oracle import first_index, last_index, observe_equal, value

A, B = Atom("a"), Atom("b")


def three_chain():
    """Store holding null <-> a <-> b as a well-formed chain."""
    store = NodeStore()
    n0 = store.alloc(None, NULL, None)
    n1 = store.alloc(n0, A, None)
    n2 = store.alloc(n1, B, None)
    store.set_next(n0, n1)
    store.set_next(n1, n2)
    return store, [n0, n1, n2]


class TestItems:
    def test_null_singleton_identity(self):
        assert items_equal(NULL, NULL)
        assert not items_equal(NULL, A)
        assert not items_equal(A, NULL)

    def test_atoms_compare_by_token(self):
        assert items_equal(A, Atom("a"))
        assert not items_equal(A, B)

    def test_repr(self):
        assert repr(NULL) == "null"

    def test_equality_both_ways(self):
        assert Atom("a") == Atom("a") and not Atom("a") != Atom("a")
        assert Atom("a") != Atom("b") and Atom("b") != Atom("a")
        assert NullItem() == NullItem() and NullItem() == NULL and NULL == NullItem()
        for x, y in ((Atom("a"), NullItem()), (NullItem(), Atom("a"))):
            assert not x == y and x != y

    def test_atom_and_null_answer_each_other_in_one_call(self):
        assert Atom("a").__eq__(NULL) is False
        assert NULL.__eq__(Atom("a")) is False
        assert Atom("a").__eq__(Atom("a")) is True

    def test_foreign_types_are_left_to_the_other_operand(self):
        for item in (Atom("a"), NULL):
            assert item.__eq__("a") is NotImplemented
            assert item != "a" and "a" != item and item != "null"
            assert item == mock.ANY and mock.ANY == item

    def test_equal_items_hash_equal(self):
        assert hash(Atom("a")) == hash(Atom("a")) == hash(("a",))
        assert hash(NullItem()) == hash(NULL) == hash(())
        assert len({Atom("a"), Atom("a"), NullItem(), NULL}) == 2


def python_calls_in_heapmodel(fn) -> list[str]:
    """The names of the Python functions of ``heapmodel`` that ``fn()``
    calls, one per call. ``item_test`` (called once per search) is left
    out: it compares no element."""
    exempt = {item_test.__code__}
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == heapmodel.__file__ and code not in exempt:
            calls.append(code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestItemsAreTuples:
    """``Atom(token)`` is the tuple ``(token,)`` and ``NullItem()`` the
    empty tuple, so items compare and hash in C."""

    def test_tuple_relations(self):
        assert Atom("a") == ("a",) and NULL == () and NullItem() == ()
        assert all(isinstance(item, tuple) for item in (A, NULL, NullItem()))
        assert Atom("a").token == "a" and repr(Atom("a")) == "a" and str(NULL) == "null"

    def test_null_stays_truthy(self):
        assert bool(NULL) is True and bool(NullItem()) is True and bool(A) is True

    @pytest.mark.parametrize("round_trip", [
        copy.copy,
        copy.deepcopy,
        *(partial(lambda p, x: pickle.loads(pickle.dumps(x, p)), p)
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    @pytest.mark.parametrize("item", [Atom("a"), NULL, NullItem()])
    def test_copies_are_equal_items_of_the_same_class(self, round_trip, item):
        dup = round_trip(item)
        assert type(dup) is type(item) and dup == item and repr(dup) == repr(item)

    def test_searches_make_no_python_call_per_compared_item(self):
        """An absent atom and null against 1,000 atoms: the list's
        searches, the oracle's, and a comparison of two equal item
        tuples built from distinct instances."""
        lst = new_list(16)
        for i in range(1000):
            lst.add(Atom(f"t{i % 10}"))
        items = tuple(lst.items())
        copies = tuple(Atom(item.token) for item in items)
        targets = (Atom("absent"), NullItem())

        def search():
            for target in targets:
                found, last = lst.index_of(target), lst.last_index_of(target)
                assert type(found) is type(last) is int and found == last == -1
                assert not lst.contains(target)
                assert not lst.remove_first_occurrence(target)
                assert not lst.remove_last_occurrence(target)
                assert first_index(items, target) is None
                assert last_index(items, target) is None
            assert observe_equal(("value", copies), value(items)) == "agree"

        # one store search per list search, which picks the link it follows
        assert python_calls_in_heapmodel(search) == ["find", "_links"] * 5 * len(targets)


class TestNodeStore:
    def test_ids_monotone_never_reused(self):
        store = NodeStore()
        ids = [store.alloc(None, A, None) for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_record_roundtrip(self):
        store, [n0, n1, n2] = three_chain()
        rec = store.record(n1)
        assert (rec.prev, rec.item, rec.next) == (n0, A, n2)

    def test_unallocated_access_rejected(self):
        store = NodeStore()
        with pytest.raises(DanglingLink):
            store.record(0)
        with pytest.raises(UsageError):
            store.alloc(99, A, None)

    def test_link_checks_name_the_role(self):
        store, [n0, n1, n2] = three_chain()
        for call, message in (
            (lambda: store.alloc(99, A, None), "prev refers to unallocated node 99"),
            (lambda: store.alloc(None, A, 98), "next refers to unallocated node 98"),
            (lambda: store.set_prev(n1, 97), "prev refers to unallocated node 97"),
            (lambda: store.set_next(n1, 96), "next refers to unallocated node 96"),
        ):
            with pytest.raises(UsageError) as info:
                call()
            assert str(info.value) == message
        assert len(store) == 3 and store.record(n1).prev == n0 and store.record(n1).next == n2
        for call in (lambda: store.set_prev(95, None), lambda: store.set_next(95, None),
                     lambda: store.clear_node(95)):
            with pytest.raises(DanglingLink) as info:
                call()
            assert info.value.node_id == 95

    def test_clear_node_nulls_all_three_fields(self):
        store, [n0, n1, n2] = three_chain()
        assert store.clear_node(n1) == n2
        rec = store.record(n1)
        assert (rec.prev, rec.item, rec.next) == (None, NULL, None)
        assert store.clear_node(n1) is None

    def test_cleared_nodes_persist(self):
        # unlinked nodes stay in the store; the model never frees
        store, [n0, n1, n2] = three_chain()
        store.set_prev(n1, None)
        store.set_item(n1, NULL)
        store.set_next(n1, None)
        assert n1 in store
        assert len(store) == 3

    def test_copy_is_independent(self):
        store, [n0, n1, n2] = three_chain()
        clone = store.copy()
        clone.set_item(n1, B)
        assert store.record(n1).item == A


class TestWalkChain:
    def test_empty(self):
        assert walk_chain(NodeStore(), None) == []

    def test_full_walk(self):
        store, ids = three_chain()
        assert walk_chain(store, ids[0]) == ids
        assert walk_chain(store, ids[1]) == ids[1:]

    def test_self_loop_detected(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        store.set_next(n0, n0)
        with pytest.raises(CycleDetected):
            walk_chain(store, n0)

    def test_dangling_link_is_chain_corruption(self):
        # a hand-built link to a node the store never allocated
        store, [n0, n1, n2] = three_chain()
        store.raw_write(n2, "next", 99)
        with pytest.raises(DanglingLink) as exc:
            walk_chain(store, n0)
        assert exc.value.node_id == 99
        assert isinstance(exc.value, ChainCorruption)
        assert not isinstance(exc.value, UsageError)
        assert str(exc.value) == "dangling link to unallocated node 99"

    def test_cycle_back_to_head_witness(self):
        store, [n0, n1, n2] = three_chain()
        store.set_next(n2, n0)
        with pytest.raises(CycleDetected) as exc:
            walk_chain(store, n0)
        assert (exc.value.node_id, exc.value.steps) == (n0, 3)
        assert str(exc.value) == f"cycle detected at node {n0} after 3 steps"

    def test_cycle_into_middle_witness(self):
        # a garbage record lets the walk run past the chain's three nodes
        # before the store's length stops it
        store, [n0, n1, n2] = three_chain()
        store.alloc(None, A, None)
        store.set_next(n2, n1)
        with pytest.raises(CycleDetected) as exc:
            walk_chain(store, n0)
        assert (exc.value.node_id, exc.value.steps) == (n1, 3)
        assert str(exc.value) == f"cycle detected at node {n1} after 3 steps"

    def test_dangling_link_mid_chain_witness(self):
        store, [n0, n1, n2] = three_chain()
        store.raw_write(n0, "next", 99)
        with pytest.raises(DanglingLink) as exc:
            walk_chain(store, n0)
        assert exc.value.node_id == 99
        assert str(exc.value) == "dangling link to unallocated node 99"

    def test_bulk_reads_in_order_and_dangling_rejected(self):
        store, [n0, n1, n2] = three_chain()
        assert store.prevs([n2, n0]) == [n1, None]
        assert store.items([n2, n0]) == [B, NULL]
        assert store.nexts([n2, n0]) == [None, n1]
        for read in (store.prevs, store.items, store.nexts):
            with pytest.raises(DanglingLink) as exc:
                read([n1, 99, 98])
            assert exc.value.node_id == 99

    def test_two_cycle_detected(self):
        store, [n0, n1, n2] = three_chain()
        store.set_next(n2, n1)
        with pytest.raises(CycleDetected) as exc:
            walk_chain(store, n0)
        assert exc.value.node_id == n1


class TestOutOfRangeIds:
    """Ids below 0 and at or past ``len(store)`` name no node. A store
    kept in id-indexed lists must not read a negative id from the end of
    a list, so each of these is pinned to the error a missing id gets."""

    @pytest.fixture(params=["negative", "past-the-end"])
    def bad(self, request):
        store, ids = three_chain()
        return store, ids, -1 if request.param == "negative" else len(store)

    def test_not_in_store(self, bad):
        store, _, bad_id = bad
        assert bad_id not in store

    def test_reads_raise_dangling_link(self, bad):
        store, _, bad_id = bad
        for read in (store.record, lambda i: next(store.walk(i)),
                     lambda i: store.find(i, item_test(Atom("z")), "prev")):
            with pytest.raises(DanglingLink) as info:
                read(bad_id)
            assert info.value.node_id == bad_id

    def test_links_to_it_are_refused_with_their_text(self, bad):
        store, [n0, n1, n2], bad_id = bad
        for call, role in (
            (lambda: store.link(bad_id, A, None), "prev"),
            (lambda: store.link(None, A, bad_id), "next"),
            (lambda: store.link(n0, A, bad_id), "next"),
            (lambda: store.alloc(bad_id, A, None), "prev"),
            (lambda: store.set_prev(n1, bad_id), "prev"),
            (lambda: store.set_next(n1, bad_id), "next"),
        ):
            with pytest.raises(UsageError) as info:
                call()
            assert str(info.value) == f"{role} refers to unallocated node {bad_id}"
        assert len(store) == 3 and walk_chain(store, n0) == [n0, n1, n2]

    def test_writes_to_it_raise_dangling_link(self, bad):
        store, _, bad_id = bad
        for write in (lambda: store.set_prev(bad_id, None), lambda: store.set_next(bad_id, None),
                      lambda: store.set_item(bad_id, A), lambda: store.clear_node(bad_id)):
            with pytest.raises(DanglingLink) as info:
                write()
            assert info.value.node_id == bad_id

    @pytest.mark.parametrize("at", [0, 2])
    def test_walk_chain_names_the_link(self, bad, at):
        store, ids, bad_id = bad
        store.raw_write(ids[at], "next", bad_id)
        with pytest.raises(DanglingLink) as info:
            walk_chain(store, ids[0])
        assert info.value.node_id == bad_id
        with pytest.raises(DanglingLink) as info:
            walk_chain(store, bad_id)
        assert info.value.node_id == bad_id

    def test_prev_walk_names_the_link(self, bad):
        store, ids, bad_id = bad
        store.raw_write(ids[1], "prev", bad_id)
        with pytest.raises(DanglingLink) as info:
            store.find(ids[2], item_test(Atom("z")), "prev")
        assert info.value.node_id == bad_id

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_ghost_entry_fails_c3_at_its_position(self, bad, at):
        store, ids, bad_id = bad
        lst = new_list()
        lst.store = store
        lst.first, lst.last, lst.size = ids[0], ids[-1], 3
        lst.ghost[:] = ids
        lst.ghost[at] = bad_id
        failed = dict(check_invariant(lst))
        assert failed["C3"] == f"nodeList[{at}]={bad_id} unallocated"

    def test_list_refuses_it(self, bad):
        store, ids, bad_id = bad
        lst = new_list()
        for item in (NULL, A, B):
            lst.add(item)
        with pytest.raises(UsageError, match=f"^node {bad_id} not allocated$"):
            lst.unlink(bad_id)
        with pytest.raises(UsageError, match=f"^succ {bad_id} not allocated$"):
            lst.link_before(A, bad_id)
        assert lst.items() == [NULL, A, B] and lst.chain() == ids


def is_chain(store, seq):
    """The four-clause chain definition over a non-empty sequence (first
    prev absent, last next absent, prev and next links agree with the
    sequence), read off invariant clauses C5 and C6 of a list whose ghost
    is ``seq`` and whose header names its ends."""
    if not seq:
        return False
    lst = new_list()
    lst.store = store
    lst.first, lst.last, lst.size = seq[0], seq[-1], len(seq)
    lst.ghost[:] = seq
    failed = dict(check_invariant(lst))
    return "C5" not in failed and "C6" not in failed


class TestIsChain:
    def test_well_formed(self):
        store, ids = three_chain()
        assert is_chain(store, ids)

    def test_empty_sequence_is_not_a_chain(self):
        # the predicate talks about nonempty sequences only
        assert not is_chain(NodeStore(), [])

    def test_first_prev_must_be_absent(self):
        store, ids = three_chain()
        store.set_prev(ids[0], ids[2])
        assert not is_chain(store, ids)

    def test_last_next_must_be_absent(self):
        store, ids = three_chain()
        store.set_next(ids[2], ids[0])
        assert not is_chain(store, ids)

    def test_next_links_must_agree(self):
        store, ids = three_chain()
        store.set_next(ids[0], ids[2])
        assert not is_chain(store, ids)

    def test_prev_links_must_agree(self):
        store, ids = three_chain()
        store.set_prev(ids[2], ids[0])
        assert not is_chain(store, ids)

    def test_singleton(self):
        store = NodeStore()
        n0 = store.alloc(None, A, None)
        assert is_chain(store, [n0])


class TestSnapshotDiff:
    def test_no_change(self):
        store, ids = three_chain()
        before = snapshot(store)
        d = diff(before, snapshot(store))
        assert not d
        assert d.changed == frozenset() and d.fresh == frozenset()

    def test_field_level_changes(self):
        store, [n0, n1, n2] = three_chain()
        before = snapshot(store)
        store.set_item(n1, B)
        store.set_next(n0, n2)
        d = diff(before, snapshot(store))
        assert d.changed == frozenset({(n1, "item"), (n0, "next")})
        assert d.fresh == frozenset()

    def test_fresh_nodes(self):
        store, ids = three_chain()
        before = snapshot(store)
        n3 = store.alloc(None, B, None)
        d = diff(before, snapshot(store))
        assert d.fresh == frozenset({n3})
        assert d.changed == frozenset()
