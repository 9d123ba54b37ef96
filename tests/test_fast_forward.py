"""``JavaLinkedList.fast_forward`` against ``add()`` of each item.

The census prepares its two overflow states with the fast-forward, so
on every state it touches it must leave the list exactly as the single
adds do: header, size and ghost, the store's length and every node's
three fields, and the number of the first refused add. Widths 8 and 16,
both policies, from an empty list, a short one, the sign-flip state and
a list at the maximum size.
"""

import pytest

from overlist.cli import main
from overlist.difftest import _add_each, _stage_items, census
from overlist.errors import UsageError
from overlist.heapmodel import NULL, Atom, NodeStore
from overlist.listcore import JavaLinkedList, SizePolicy, new_list
from overlist.oracle import ALPHABET

A, B = Atom("a"), Atom("b")


def fingerprint(lst):
    store = lst.store
    ids = store.ids()
    return (lst.first, lst.last, lst.size, list(lst.ghost), len(store),
            store.prevs(ids), store.items(ids), store.nexts(ids))


def added(width, policy, items):
    lst = new_list(width, policy)
    _add_each(lst, items)
    return lst


#: start states, each built with single adds
STARTS = {
    "empty": lambda width, policy: new_list(width, policy),
    "short": lambda width, policy: added(width, policy, (A, NULL, B)),
    "sign-flip": lambda width, policy: added(width, policy, _stage_items(width)[0]),
    # FailFast: at capacity; Unchecked: one add before the sign flips
    "at-max": lambda width, policy: added(width, policy, (NULL,) * ((1 << (width - 1)) - 1)),
}


def runs(width):
    """The item sequences fed from each start state; ``rest`` after the
    sign flip is the census's second stage."""
    flip, rest = map(tuple, _stage_items(width))
    return {"none": (), "one": (A,), "mixed": ALPHABET * 3, "mixed-list": list(ALPHABET * 3),
            "flip": flip, "rest": rest}


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("policy", list(SizePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("width", [8, 16])
def test_equals_single_adds(width, policy, start):
    """Inside a trial, so the fast-forward journals into an open
    savepoint whose rollback must restore the entry state exactly; the
    ``rest`` run is also made on a fresh start, with no journal open."""
    lst = STARTS[start](width, policy)
    entry = fingerprint(lst)
    for name, items in runs(width).items():
        with lst.trial():
            expected = (_add_each(lst, items), fingerprint(lst))
        assert fingerprint(lst) == entry, name
        with lst.trial():
            assert (lst.fast_forward(items), fingerprint(lst)) == expected, name
        assert fingerprint(lst) == entry, name
        if name == "rest":
            plain = STARTS[start](width, policy)
            assert (plain.fast_forward(items), fingerprint(plain)) == expected


@pytest.mark.parametrize("policy", list(SizePolicy), ids=lambda p: p.value)
def test_first_refusal(policy):
    """FailFast takes ``max_size - size`` items and counts the next as
    the first refusal; Unchecked takes them all, its size wrapping."""
    lst = added(8, policy, (A,) * 100)
    refusal = lst.fast_forward((B,) * 60)
    if policy is SizePolicy.FAIL_FAST:
        assert refusal == 28 and lst.size == 127 and len(lst.ghost) == 127
        assert lst.fast_forward((B,)) == 1 and len(lst.store) == 127
    else:
        assert refusal is None and lst.size == 160 - 256 and len(lst.ghost) == 160


def test_the_ghost_shares_the_store_ids():
    """The new ghost entries are the very int objects the new nodes'
    ``next`` and ``prev`` fields hold, so keeping them costs no int
    object per node."""
    lst = new_list(16, SizePolicy.UNCHECKED)
    _add_each(lst, (A, B))
    lst.fast_forward((NULL,) * 1000)
    ghost, store = lst.ghost, lst.store
    for i in range(1, len(ghost) - 1):
        assert ghost[i + 1] is store.next(ghost[i])
        assert ghost[i] is store.prev(ghost[i + 1])


class TestLinkRun:
    def test_journals_only_the_write_to_prev(self):
        store = NodeStore()
        head = store.link(None, A, None)
        mark = store.open_journal()
        assert store.link_run(head, (B, NULL)) == [1, 2]
        entries, fresh = store.close_journal(mark)
        assert (list(store.writes(entries)), fresh) == ([(head, "next", None)], range(1, 3))
        assert store.nexts(store.ids()) == [1, 2, None]
        assert store.prevs(store.ids()) == [None, 0, 1]

    def test_rollback_drops_the_run(self):
        store = NodeStore()
        head = store.link(None, A, None)
        mark = store.open_journal()
        store.link_run(head, (B,) * 5)
        store.rollback(mark)
        assert len(store) == 1 and store.next(head) is None

    def test_an_empty_run_writes_nothing(self):
        store = NodeStore()
        head = store.link(None, A, None)
        mark = store.open_journal()
        assert store.link_run(head, ()) == []
        assert store.close_journal(mark) == ([], range(1, 1))

    def test_unallocated_prev_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unallocated node 3"):
            NodeStore().link_run(3, (A,))


class TestWhoAddsForReal:
    """``repro`` reproduces the bug with the list's own adds; only the
    census, which prepares, fast-forwards."""

    @pytest.fixture
    def adds(self, monkeypatch):
        calls = []
        real = JavaLinkedList.add

        def add(lst, item):
            calls.append(item)
            return real(lst, item)

        monkeypatch.setattr(JavaLinkedList, "add", add)
        return calls

    def test_repro_makes_every_add(self, adds, capsys):
        assert main(["repro", "4", "--width", "8"]) == 0
        assert len(adds) == 256

    def test_census_makes_none(self, adds, monkeypatch):
        fast = []
        real = JavaLinkedList.fast_forward
        monkeypatch.setattr(JavaLinkedList, "fast_forward",
                            lambda lst, items: fast.append(len(items)) or real(lst, items))
        census(8, SizePolicy.UNCHECKED)
        assert adds == [] and fast == [128, 128]
