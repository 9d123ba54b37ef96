"""Explicit heap model: node store, chain walking, snapshot diffs."""

import pytest

from overlist.errors import ChainCorruption, CycleDetected, DanglingLink, UsageError
from overlist.heapmodel import (
    NULL,
    Atom,
    NodeStore,
    diff,
    is_chain,
    items_equal,
    snapshot,
    walk_chain,
)

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
        store.record(n2).next = 99
        with pytest.raises(DanglingLink) as exc:
            walk_chain(store, n0)
        assert exc.value.node_id == 99
        assert isinstance(exc.value, ChainCorruption)
        assert not isinstance(exc.value, UsageError)
        assert str(exc.value) == "dangling link to unallocated node 99"

    def test_two_cycle_detected(self):
        store, [n0, n1, n2] = three_chain()
        store.set_next(n2, n1)
        with pytest.raises(CycleDetected) as exc:
            walk_chain(store, n0)
        assert exc.value.node_id == n1


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
