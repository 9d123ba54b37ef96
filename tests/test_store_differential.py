"""The array-backed ``NodeStore`` against the dict-backed store it
replaced (``dict_store``), step by step.

Hypothesis draws sequences of allocations, links, setter writes, node
and chain clears, raw field writes and nested savepoints, with ids drawn from the
allocated ones, None and ids that name no node: negative ones, the next
id and ids past it. Both stores run each step; after it they must agree
on its outcome (the value, or the error's type, text and node id), on
every node's fields, ``len``, ``ids()`` and membership, and on what a
savepoint's close hands back: the writes its journal entries record
(``NodeStore.writes``) and its fresh-id range.
The reads the array store adds (per-field and bulk reads, ``find``,
``follow``, ``links_agree``, item walks) must answer what the same reads
made through the reference's records answer.
"""

from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import dict_store
from overlist.errors import DanglingLink
from overlist.heapmodel import NULL, Atom, NodeStore, NullItem, item_test, items_equal, walk_chain
from overlist.oracle import ALPHABET, MARKER

ITEMS = (NULL, Atom("a"), Atom("b"))
LINKS = ("next", "prev")


def outcome(call):
    try:
        return ("value", call())
    except Exception as e:  # the errors are compared, not handled
        return ("error", type(e).__name__, str(e), getattr(e, "node_id", None))


def fields(store):
    """Every node's fields, through the records both stores offer."""
    return [(r.prev, r.item, r.next) for r in map(store.record, list(store.ids()))]


def ends(ref, node, link):
    """Whether following ``link`` from ``node`` reaches None or an id that
    names no node, so a search that never matches returns."""
    seen = set()
    while node is not None and node in ref:
        if node in seen:
            return False
        seen.add(node)
        node = getattr(ref.record(node), link)
    return True


def reference_find(ref, node, target, link):
    """The search with Java's null split (``item_test``), one call per
    node; ``NodeStore.find`` compares with ``==`` instead."""
    matches = item_test(target)
    steps = 0
    while node is not None:
        rec = ref.record(node)
        if matches(rec.item):
            return steps, node
        node = getattr(rec, link)
        steps += 1
    return steps, None


def reference_follow(ref, node, steps, link):
    for _ in range(steps):
        node = getattr(ref.record(node), link)
    return node


def reference_links_agree(ref, seq, positions):
    last = len(seq) - 1
    for i in positions:
        try:
            rec = ref.record(seq[i])
        except DanglingLink:
            return False
        if rec.prev != (seq[i - 1] if i else None) or rec.next != (seq[i + 1] if i < last else None):
            return False
    return True


@lru_cache(maxsize=None)
def node_id_strategy(n):
    """An allocated id three times in four, else None or an id that names
    no node, in a store of ``n`` nodes."""
    unallocated = st.sampled_from([None, -1, -n - 1, n, n + 3])
    if not n:
        return unallocated
    allocated = st.integers(0, n - 1)
    return st.one_of(allocated, allocated, allocated, unallocated)


def node_ids(data, n):
    return data.draw(node_id_strategy(n))


def step(data, new, ref, marks):
    """Draw one write or savepoint step and run it on both stores; return
    both outcomes."""
    n = len(ref)
    kind = data.draw(st.sampled_from(
        ("alloc", "link", "link", "set_prev", "set_next", "set_item", "clear_node",
         "clear_chain", "raw", "open", "open", "close", "rollback")))
    if kind in ("alloc", "link"):
        prev, item, next_ = node_ids(data, n), data.draw(st.sampled_from(ITEMS)), node_ids(data, n)
        return [outcome(lambda s=s: getattr(s, kind)(prev, item, next_)) for s in (new, ref)]
    if kind in ("set_prev", "set_next"):
        node, value = node_ids(data, n), node_ids(data, n)
        return [outcome(lambda s=s: getattr(s, kind)(node, value)) for s in (new, ref)]
    if kind == "set_item":
        node, item = node_ids(data, n), data.draw(st.sampled_from(ITEMS))
        return [outcome(lambda s=s: s.set_item(node, item)) for s in (new, ref)]
    if kind in ("clear_node", "clear_chain"):
        node = node_ids(data, n)
        return [outcome(lambda s=s: getattr(s, kind)(node)) for s in (new, ref)]
    if kind == "raw":
        # a write the setters would refuse: how negative tests corrupt a chain
        node, name = node_ids(data, n), data.draw(st.sampled_from(("prev", "next")))
        value = node_ids(data, n)
        return [outcome(lambda: new.raw_write(node, name, value)),
                outcome(lambda: setattr(ref.record(node), name, value))]
    if kind == "open":
        marks.append((new.open_journal(), ref.open_journal()))
        # at each mark, the writes journaled before it and the next id: the
        # journal lengths differ, as the dict store journals a chain clear
        # per node
        return [(sum(1 for _ in NodeStore.writes(s._journal[:mark[0]])), mark[1])
                for s, mark in zip((new, ref), marks[-1])]
    if not marks:
        return None
    # mostly the innermost savepoint, else the outermost (refused while it
    # is not the innermost)
    at = data.draw(st.sampled_from([len(marks) - 1] * 3 + [0]))
    return end_savepoint(new, ref, marks, at, "close_journal" if kind == "close" else "rollback")


def end_savepoint(new, ref, marks, at, call):
    """Close or roll back the savepoint ``marks[at]`` on both stores;
    return both outcomes, each close's journal entries as the writes they
    record, read by ``NodeStore.writes`` (the dict store's are the
    setters' entries alone)."""
    new_mark, ref_mark = marks[at]
    got = outcome(lambda: getattr(new, call)(new_mark))
    expected = outcome(lambda: getattr(ref, call)(ref_mark))
    if got[0] == "value":
        del marks[at]
        got, expected = (("value", None if closed is None else
                          (list(NodeStore.writes(closed[0])), closed[1]))
                         for _, closed in (got, expected))
    return [got, expected]


def assert_same_state(new, ref):
    """Both stores answer every read alike, from every allocated id and
    from ids that name no node."""
    assert len(new) == len(ref)
    assert list(new.ids()) == list(ref.ids())
    assert fields(new) == fields(ref)
    n = len(ref)
    allocated = list(range(n))
    probes = [None, -2, -1, n, n + 1, *allocated]
    for node in probes:
        assert (node in new) == (node in ref), node
        for name in ("prev", "item", "next"):
            assert outcome(lambda: getattr(new, name)(node)) == outcome(
                lambda: getattr(ref.record(node), name)), (name, node)
    # bulk reads: DanglingLink names the first unallocated id
    # -1 where the newest node stands reads that node's fields if the
    # sign is not checked
    id_lists = ([], allocated, [*allocated, -1], [*allocated[:-1], -1], [-1], [n - 1, n, -1],
                allocated[::-1] + [None])
    for ids in id_lists:
        for name in ("prev", "item", "next"):
            assert outcome(lambda: getattr(new, name + "s")(ids)) == outcome(
                lambda: [getattr(r, name) for r in map(ref.record, ids)]), (name, ids)
        # ``allocated`` is the starting chain until a step rewires it
        positions = range(len(ids))
        assert new.links_agree(ids, positions) == reference_links_agree(ref, ids, positions)
    # walks and searches from every kind of start: no node, the oldest,
    # middle and newest node
    for start in dict.fromkeys([None, -1, n, *allocated[:: max(n // 2, 1)], n - 1]):
        assert outcome(lambda: walk_chain(new, start)) == outcome(
            lambda: dict_store.walk_chain(ref, start))
        bound = n + 2  # a cyclic chain walks forever
        assert outcome(lambda: list(islice(new.walk(start), bound))) == outcome(
            lambda: [r.item for r in islice(ref.walk(start), bound)])
        for link in LINKS:
            for steps in (0, 1, n // 2, n + 1):
                assert outcome(lambda: new.follow(start, steps, link)) == outcome(
                    lambda: reference_follow(ref, start, steps, link))
            if ends(ref, start, link):
                for target in ITEMS:
                    assert outcome(lambda: new.find(start, target, link)) == outcome(
                        lambda: reference_find(ref, start, target, link))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_store_matches_the_dict_store(data):
    new, ref = NodeStore(), dict_store.NodeStore()
    for store in (new, ref):  # a chain to start from
        node = None
        for item in ITEMS:
            node = store.link(node, item, None)
    # half the runs write inside a savepoint from the start, so every write
    # is journaled, and the unwinding below compares the whole journal
    marks = [(new.open_journal(), ref.open_journal())] if data.draw(st.booleans()) else []
    for _ in range(data.draw(st.integers(1, 30))):
        outcomes = step(data, new, ref, marks)
        if outcomes is not None:
            got, expected = outcomes
            assert got == expected
        assert_same_state(new, ref)
    while marks:
        call = data.draw(st.sampled_from(("close_journal", "rollback")))
        got, expected = end_savepoint(new, ref, marks, len(marks) - 1, call)
        assert got == expected and got[0] == "value"
        assert_same_state(new, ref)


def test_the_draws_reach_every_outcome():
    """The differential run is not vacuous: the fixed draws below make
    allocations, refusals of each kind, dangling reads, a chain clear
    that meets a node twice, and a rollback that forgets nodes, on both
    stores alike."""
    new, ref = NodeStore(), dict_store.NodeStore()
    outer = (new.open_journal(), ref.open_journal())
    for s in (new, ref):
        a = s.link(None, ITEMS[1], None)
        s.link(a, ITEMS[2], None)
    for call in (lambda s: s.link(-1, NULL, None), lambda s: s.set_next(0, 5),
                 lambda s: s.set_prev(-1, None), lambda s: s.record(2),
                 lambda s: s.clear_chain(5), lambda s: s.close_journal(("stale",))):
        got, expected = outcome(lambda: call(new)), outcome(lambda: call(ref))
        assert got == expected and got[0] == "error"
    marks = [(new.open_journal(), ref.open_journal())]
    for s in (new, ref):
        s.set_next(1, 0)
        s.clear_chain(0)
    got, expected = end_savepoint(new, ref, marks, 0, "close_journal")
    # the set_next, then nodes 0, 1 and 0 again, three fields each
    assert got == expected and [w[0] for w in got[1][0]] == [1] + [0] * 3 + [1] * 3 + [0] * 3
    new.rollback(outer[0])
    ref.rollback(outer[1])
    assert len(new) == len(ref) == 0 and list(new.ids()) == []


def test_equality_on_items_is_items_equal():
    """``find`` tests ``item == target``: on the item domain that is
    ``items_equal``, so null equals only null and an ``Atom`` only an
    ``Atom`` of its token, fresh instances included."""
    fresh = (NullItem(), *(Atom(item.token) for item in ALPHABET if item is not NULL))
    domain = (NULL, *ALPHABET, MARKER, *fresh)
    for target in domain:
        for item in domain:
            assert (item == target) is (target == item) is items_equal(target, item), (target, item)


@pytest.mark.parametrize("bad", [-1, 3, 99, "x", 1.5])
@pytest.mark.parametrize("link", LINKS)
def test_a_link_that_is_no_id_is_a_dangling_link(bad, link):
    """A link that names no node, an int out of range or no int at all,
    gives ``DanglingLink`` naming it from ``find`` as from ``walk_chain``,
    whether the search starts there or meets it on the way."""
    store = NodeStore()
    ids = store.link_run(None, [Atom("a"), Atom("b"), Atom("c")])
    start = ids[0] if link == "next" else ids[-1]
    searches = [lambda: store.find(bad, MARKER, link), lambda: store.find(start, MARKER, link)]
    walks = [lambda: walk_chain(store, bad), lambda: walk_chain(store, ids[0])]
    store.raw_write(ids[1], link, bad)
    for call in searches + (walks if link == "next" else []):
        with pytest.raises(DanglingLink) as e:
            call()
        assert e.value.node_id == bad
