"""``NodeStore.link``, ``find`` and ``walk`` on the list's per-add and
per-node paths.

The linking methods make one ``link`` call where they used to make an
``alloc`` and a ``set_prev`` or ``set_next`` per neighbour; the element
searches follow the chain with ``find`` and ``to_array`` walks it, where
they used to make a ``record`` call per node; ``clear_node`` reads the
node's fields inline. The reference implementations below are the
earlier code, answering in the list's types (plain ints, a tuple). On
filled lists at widths 8 and 16 (up to and past capacity), both
policies, each injected fault and corrupted states, run outside a store
savepoint and inside one, each call must give the same outcome (the
value, or the error's type and message and a ``DanglingLink``'s node
id) and leave the same records, journal entries, header and ghost.
"""

import gc
import random
import sys

import pytest

from overlist.errors import DanglingLink, IllegalStateError, UsageError
from overlist.heapmodel import NULL, Atom, NodeStore, item_test, snapshot
from overlist.listcore import FAULTS, CheckMode, SizePolicy, new_list
from overlist.statespace import random_state

A, B, Y, Z = Atom("a"), Atom("b"), Atom("y"), Atom("z")
FILL = (A, NULL, B)  # the items of a filled list, in turn, then Z last
TARGETS = (A, NULL, Z, Y)  # Y is never in a list


# -- reference: the earlier store calls -----------------------------------------


def inc(lst, n):
    """``n + 1`` as a W-bit Java int: MAX + 1 wraps to MIN."""
    return lst.min_size if n == lst.max_size else n + 1


def reference_link_last(lst, item):
    if lst.guards_growth:
        lst.check_size()
    old_last = lst.last
    node = lst.store.alloc(old_last, item, None)
    lst.last = node
    if old_last is None:
        lst.first = node
    else:
        lst.store.set_next(old_last, node)
    lst.size = inc(lst, lst.size)
    lst.ghost.append(node)


def reference_link_first(lst, item):
    if lst.guards_growth:
        lst.check_size()
    old_first = lst.first
    node = lst.store.alloc(None, item, old_first)
    lst.first = node
    if old_first is None:
        lst.last = node
    else:
        lst.store.set_prev(old_first, node)
    lst.size = inc(lst, lst.size)
    lst.ghost.insert(0, node)


def reference_link_before(lst, item, succ):
    if succ not in lst.store:
        raise UsageError(f"succ {succ} not allocated")
    if lst.guards_growth:
        lst.check_size()
    pred = lst.store.record(succ).prev
    node = lst.store.alloc(pred, item, succ)
    lst.store.set_prev(succ, node)
    if pred is None:
        lst.first = node
    else:
        lst.store.set_next(pred, node)
    lst.size = inc(lst, lst.size)
    nl = lst.ghost
    try:
        nl.insert(nl.index(succ), node)
    except ValueError:
        pass


def reference_index_of(lst, target):
    matches = item_test(target)
    index = 0
    node = lst.first
    while node is not None:
        rec = lst.store.record(node)
        if matches(rec.item):
            return index
        index = inc(lst, index)
        node = rec.next
    return -1


def reference_last_index_of(lst, target):
    index = lst.size
    if "lastindexof-off-by-one" in lst.faults:
        index = lst._dec(index)
    matches = item_test(target)
    node = lst.last
    while node is not None:
        if lst.check_mode is CheckMode.FULL:
            lst._last_index_probe(index, node, matches)
        index = lst._dec(index)
        rec = lst.store.record(node)
        if matches(rec.item):
            return index
        node = rec.prev
    return -1


def reference_remove_occurrence(link):
    def remove(lst, target):
        matches = item_test(target)
        node = lst.first if link == "next" else lst.last
        while node is not None:
            rec = lst.store.record(node)
            if matches(rec.item):
                lst.unlink(node)
                return True
            node = getattr(rec, link)
        return False

    return remove


def reference_to_array(lst):
    if lst.size < 0:
        lst.to_array()  # NegativeArraySizeError, as before
    out = []
    node = lst.first
    for _ in range(lst.size):
        rec = lst.store.record(node)
        out.append(rec.item)
        node = rec.next
    return tuple(out)


def reference_clear_node(store, node_id):
    """``clear_node`` by its contract: the three setters, in order."""
    old_next = store.record(node_id).next
    store.set_prev(node_id, None)
    store.set_item(node_id, NULL)
    store.set_next(node_id, None)
    return old_next


def reference_clear(lst):
    node = lst.first
    ghost_pos = 0
    while node is not None:
        if lst.check_mode is CheckMode.FULL:
            lst._clear_probe(node, ghost_pos)
        node = reference_clear_node(lst.store, node)
        ghost_pos += 1
    lst.first = lst.last = None
    lst.size = 0
    lst.ghost.clear()


REFERENCE = {
    "link_last": reference_link_last,
    "link_first": reference_link_first,
    "link_before": reference_link_before,
    "index_of": reference_index_of,
    "last_index_of": reference_last_index_of,
    "remove_first_occurrence": reference_remove_occurrence("next"),
    "remove_last_occurrence": reference_remove_occurrence("prev"),
    "to_array": reference_to_array,
    "clear": reference_clear,
}


# -- states and calls -------------------------------------------------------------


def filled(width, policy, fault, n, cut=False):
    """``n`` add() calls (those refused at capacity included), the last
    one of ``Z``, so a search can match past the size's wrap; with
    ``cut``, then one removal from the middle, which under
    ``unlink-skip-relink`` leaves the cleared node linked."""
    faults = frozenset() if fault is None else frozenset({fault})
    mode = CheckMode.FULL if policy is SizePolicy.FAIL_FAST else CheckMode.OFF
    lst = new_list(width, policy, mode, faults)
    for i in range(n):
        try:
            lst.add(Z if i == n - 1 else FILL[i % 3])
        except IllegalStateError:
            pass
    if cut:
        lst.unlink(lst.ghost[len(lst.ghost) // 2])
    return lst


def dangling(lst, where):
    """Point the header's ``first`` or ``last``, or the middle node's
    ``next`` or ``prev``, at an unallocated id."""
    unallocated = len(lst.store)
    if where in ("first", "last"):
        setattr(lst, where, unallocated)
    else:
        # the setters refuse a dangling link, so write the field
        lst.store.raw_write(lst.ghost[len(lst.ghost) // 2], where, unallocated)
    return lst


def clone(lst):
    dup = new_list(lst.width, lst.policy, lst.check_mode, lst.faults)
    dup.store = lst.store.copy()
    dup.first, dup.last, dup.size = lst.first, lst.last, lst.size
    dup.ghost = list(lst.ghost)
    return dup


def ends(store, node, link):
    """Whether following ``link`` from ``node`` reaches None or an
    unallocated id: a search on a cyclic chain that never matches does
    not end, before or after the change."""
    seen = set()
    while node is not None and node in store:
        if node in seen:
            return False
        seen.add(node)
        node = getattr(store.record(node), link)
    return True


def calls(lst, targets=TARGETS):
    """The calls compared on ``lst``: every link method next to the ends,
    the middle and an unallocated node; each search for every item of
    ``targets`` where its walk ends; ``to_array``; ``clear``."""
    nl = lst.ghost
    succs = {lst.first, lst.last, nl[len(nl) // 2] if nl else None, len(lst.store), None}
    out = [("link_last", (B,)), ("link_first", (B,))]
    out += [("link_before", (B, s)) for s in sorted(succs, key=str)]
    forward, backward = ends(lst.store, lst.first, "next"), ends(lst.store, lst.last, "prev")
    for target in targets:
        if forward:
            out += [("index_of", (target,)), ("remove_first_occurrence", (target,))]
        if backward:
            out += [("last_index_of", (target,)), ("remove_last_occurrence", (target,))]
    return out + [("to_array", ()), ("clear", ())]


def outcome(call):
    """A call's value with its type, so an int answer never equals a
    ``JInt`` or a tuple a list; or its error."""
    try:
        r = call()
        return ("value", type(r), r)
    except Exception as e:  # corrupted states raise chain errors and misuse
        return ("error", type(e).__name__, str(e), getattr(e, "node_id", None),
                getattr(e, "violations", None))


def header(lst):
    return lst.first, lst.last, lst.size, list(lst.ghost)


def run_new(lst, op, args):
    return getattr(lst, op)(*args)


def run_reference(lst, op, args):
    return REFERENCE[op](lst, *args)


def outside(lst, op, args, run):
    """A call on a copy of ``lst`` with no savepoint open; the whole heap,
    header and ghost afterwards."""
    dup = clone(lst)
    got = outcome(lambda: run(dup, op, args))
    return got, snapshot(dup.store), header(dup)


def inside(lst, op, args, run):
    """A call on ``lst`` inside a savepoint: its outcome, journal entries
    and fresh ids, the current value of each field it wrote, the fresh
    records, header and ghost. An enclosing savepoint then rolls ``lst``
    back for the next call."""
    store = lst.store
    saved = header(lst)
    outer = store.open_journal()
    mark = store.open_journal()
    try:
        got = outcome(lambda: run(lst, op, args))
        entries, fresh = store.close_journal(mark)
        written = [getattr(store.record(nid), name) for nid, name in zip(entries[::3], entries[1::3])]
        fresh_records = [(r.prev, r.item, r.next) for r in map(store.record, fresh)]
        return got, list(entries), fresh, written, fresh_records, header(lst)
    finally:
        store.rollback(outer)
        lst.first, lst.last, lst.size, lst.ghost = saved


def assert_same(lst, call_list, outside_ops=None):
    """New and reference agree on each call inside a savepoint and, for
    the calls named in ``outside_ops`` (all when None), outside one."""
    for op, args in call_list:
        assert inside(lst, op, args, run_new) == inside(lst, op, args, run_reference), (op, args)
        if outside_ops is None or op in outside_ops:
            assert outside(lst, op, args, run_new) == outside(lst, op, args, run_reference), (op, args)


# -- same as the reference --------------------------------------------------------


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("policy", list(SizePolicy))
@pytest.mark.parametrize("width", [8, 16])
def test_same_on_filled_lists(width, policy, fault):
    """Lists from empty to past capacity: at width 8 every call inside and
    outside a savepoint; at width 16 the capacity list (2^15 + 1 adds)
    runs every call inside one, searching for the first item and for the
    last (or, refused, a missing) one, and the linking calls outside."""
    sizes = (0, 1, 2, 3, 7, 127, 129) if width == 8 else (0, 1, 3, 7)
    for n in sizes:
        for cut in (False, True) if n >= 3 else (False,):
            lst = filled(width, policy, fault, n, cut)
            assert_same(lst, calls(lst))
    if width == 16:
        lst = filled(width, policy, fault, (1 << 15) + 1)
        assert_same(lst, calls(lst, (A, Z)), outside_ops={"link_last", "link_first"})


@pytest.mark.parametrize("width", [8, 16])
def test_same_on_corrupted_states(width):
    """``random_state``'s wrong headers, links and ghosts, half of them
    under FULL checks, and filled lists with a dangling header or link,
    so a probe meets a dangling node."""
    for seed in range(300):
        lst = random_state(random.Random(seed), width, 8)
        if seed % 2:
            lst.check_mode = CheckMode.FULL
        assert_same(lst, calls(lst))
    for policy in SizePolicy:
        for n in (1, 3, 7):
            for where in ("first", "last", "next", "prev"):
                lst = dangling(filled(width, policy, None, n), where)
                assert_same(lst, calls(lst))


def test_corrupted_states_reach_the_error_paths():
    """The corrupted states above are not vacuous: the calls raise a
    DanglingLink on an allocated-id walk and at the end of a short chain,
    a probe violation and a UsageError for an unallocated successor."""
    seen = set()
    for seed in range(300):
        lst = random_state(random.Random(seed), 8, 8)
        if seed % 2:
            lst.check_mode = CheckMode.FULL
        for op, args in calls(lst):
            got = inside(lst, op, args, run_new)[0]
            if got[0] == "error":
                seen.add((got[1], got[3] is None) if got[1] == "DanglingLink" else got[1])
    assert {("DanglingLink", True), ("DanglingLink", False), "ContractViolation",
            "UsageError"} <= seen


# -- the primitives themselves ----------------------------------------------------


def test_link_journals_as_alloc_and_setters():
    """``link(p, x, n)`` journals ``set_prev(n, ·)`` then ``set_next(p, ·)``
    and refuses an unallocated neighbour as ``alloc`` does."""
    store = NodeStore()
    a = store.link(None, A, None)
    b = store.link(a, B, None)
    mark = store.open_journal()
    c = store.link(a, Z, b)
    entries, fresh = store.close_journal(mark)
    assert entries == [b, "prev", a, a, "next", b] and fresh == range(c, c + 1)
    assert (store.record(a).next, store.record(b).prev) == (c, c)
    rec = store.record(c)
    assert (rec.prev, rec.item, rec.next) == (a, Z, b)
    for prev, next in ((7, None), (None, 7), (7, 8)):
        with pytest.raises(UsageError) as new:
            store.link(prev, A, next)
        with pytest.raises(UsageError) as ref:
            store.alloc(prev, A, next)
        assert str(new.value) == str(ref.value)
    assert len(store) == 3


def test_walk_is_lazy_and_names_the_dangling_node():
    store = NodeStore()
    a = store.link(None, A, None)
    b = store.link(a, B, None)
    assert list(store.walk(a)) == [A, B]
    assert list(store.walk(None)) == []
    store.raw_write(b, "next", 9)  # dangling: the setters refuse one
    walk = store.walk(a)
    assert [next(walk), next(walk)] == [A, B]  # nothing past b read yet
    with pytest.raises(DanglingLink) as e:
        next(walk)
    assert e.value.node_id == 9
    with pytest.raises(UsageError):
        store.find(a, item_test(A), "item")


# -- call counts ------------------------------------------------------------------


def python_calls(fn):
    """Python-level calls ``fn`` makes, by function name (generator
    resumptions count as calls), ``fn`` itself excluded. The collector is
    off meanwhile: a ``gc.callbacks`` entry is a Python call too."""
    counts = {}

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_name
            counts[name] = counts.get(name, 0) + 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    counts[fn.__name__] -= 1
    return {name: k for name, k in counts.items() if k}


def test_accepted_add_makes_three_calls():
    """On a width-16 FailFast list an accepted add calls ``add``,
    ``link_last`` and ``NodeStore.link``, and nothing else (the store
    appends to its field lists, so no record is built); a refused add
    still raises through ``check_size``."""
    k = 1000
    lst = new_list(16, SizePolicy.FAIL_FAST)
    lst.add(A)

    def adds():
        for _ in range(k):
            lst.add(NULL)

    assert python_calls(adds) == {"add": k, "link_last": k, "link": k}
    lst.size = lst.max_size

    def refused():
        with pytest.raises(IllegalStateError):
            lst.add(NULL)

    assert python_calls(refused)["check_size"] == 1


def test_search_miss_calls_per_node():
    """An ``index_of`` miss over 1,000 nodes makes at most two Python
    calls per node: one walk step and the element test."""
    n = 1000
    lst = new_list(16, SizePolicy.FAIL_FAST)
    for _ in range(n):
        lst.add(A)

    def miss():
        found = lst.index_of(Z)
        assert type(found) is int and found == -1

    assert sum(python_calls(miss).values()) <= 2 * n + 10
