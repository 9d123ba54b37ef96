"""Explicit heap model for list nodes.

Nodes live in an id-indexed store instead of pointing at each other
directly, so aliasing is a plain id comparison and corrupted or cyclic
shapes can be built for negative tests. The store keeps one list per
field (``prev``, ``item``, ``next``), indexed by node id, as JavaDL's
heap maps an object and a field to a value; a node is a position in the
three lists, and no object is built per node. Every read checks the id
first, since a negative index would read from the end of a list.

Ids are never reused; unlinked ("cleared") nodes stay allocated with
null fields, mirroring a heap where garbage persists until collection.
A journal rollback is the one exception: it forgets the nodes allocated
since its savepoint opened, together with every other change made
since. The journal also tells a frame check what a call wrote;
whole-heap ``snapshot``/``diff`` are only the reference that tests
compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import eq
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CycleDetected, DanglingLink, UsageError

NodeId = int

#: the field slot of the journal entry ``NodeStore.clear_chain`` makes
_CLEARED = "cleared"


# Items are immutable tuples, so ``==`` and ``hash`` run in C: a search
# makes no Python call per element it compares. Equality stays by value:
# two fresh ``Atom("a")`` are equal, and so are ``Atom("a")`` and ``("a",)``.


class NullItem(tuple):
    """The Java ``null`` element: the empty tuple, still truthy."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls)

    # copy and pickle rebuild an item from these; tuple's own would pass
    # the contents as one argument
    def __getnewargs__(self):
        return ()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "null"


class Atom(tuple):
    """An opaque element with deterministic, side-effect free equality:
    the one-tuple ``(token,)``."""

    __slots__ = ()

    def __new__(cls, token: str):
        return tuple.__new__(cls, (token,))

    @property
    def token(self) -> str:
        return self[0]

    def __getnewargs__(self):
        return (self[0],)

    def __repr__(self) -> str:
        return self[0]


NULL = NullItem()

Item = NullItem | Atom


def items_equal(target: Item, item: Item) -> bool:
    """Element comparison with Java's ``o == null`` / ``o.equals(...)`` split."""
    if isinstance(target, NullItem):
        return isinstance(item, NullItem)
    return target == item


def item_test(target: Item) -> Callable[[Item], bool]:
    """``items_equal(target, ·)`` as a one-argument test: a search makes
    the null split once, not once per element it compares."""
    if isinstance(target, NullItem):
        return NullItem.__instancecheck__  # isinstance(item, NullItem)
    return partial(eq, target)  # target == item


class NodeRecord(NamedTuple):
    """One node's fields as ``NodeStore.record`` read them: a later write
    to the node does not show in the record. Records serve cold paths and
    tests; the list and the checks read the fields through the store's
    per-field and bulk reads, and ``NodeStore.raw_write`` is the one
    unchecked write."""

    prev: NodeId | None
    item: Item
    next: NodeId | None


def _select_all(values: list, ids) -> list:
    """``values`` at each id of the sequence ``ids``, in order;
    DanglingLink for the first unallocated one."""
    try:
        if not ids or min(ids) >= 0:
            return list(map(values.__getitem__, ids))
    except (IndexError, TypeError):  # past the end, or None
        pass
    n = len(values)
    raise DanglingLink(next(i for i in ids if not (isinstance(i, int) and 0 <= i < n)))


class NodeStore:
    """Owner of all nodes, kept in three lists indexed by node id, one per
    field (``prev``, ``item``, ``next``): JavaDL's heap, where a field read
    is ``select(heap, o, f)``. Ids are allocated densely from 0, so the ids
    in use are ``range(len(store))``; an id outside that range, negative
    or not, names no node and reading it raises DanglingLink.

    While a savepoint is open, every field write records the field's old
    value in the journal, so ``rollback`` can put the store back as it
    was when the savepoint opened, at a cost proportional to the writes
    made since rather than to the size of the heap. Savepoints nest; only
    the innermost open one can be closed or rolled back. ``rollback`` and
    ``writes`` alone read the journal's entries."""

    def __init__(self):
        self._prev: list[NodeId | None] = []
        self._item: list[Item] = []
        self._next: list[NodeId | None] = []
        self._journal: list | None = None  # per write: id, field, old value; see clear_chain
        self._marks: list[list[int]] = []  # open savepoints, innermost last

    def __contains__(self, node_id: NodeId) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self._item)

    def __len__(self) -> int:
        return len(self._item)

    def ids(self) -> range:
        return range(len(self._item))

    # alloc, link and the setters test their links inline rather than
    # through a helper: an add makes one link call, so every call counts

    def alloc(self, prev: NodeId | None, item: Item, next: NodeId | None) -> NodeId:
        node_id = len(self._item)
        if prev is not None and not 0 <= prev < node_id:
            raise UsageError(f"prev refers to unallocated node {prev}")
        if next is not None and not 0 <= next < node_id:
            raise UsageError(f"next refers to unallocated node {next}")
        self._prev.append(prev)
        self._item.append(item)
        self._next.append(next)
        return node_id

    def link(self, prev: NodeId | None, item: Item, next: NodeId | None) -> NodeId:
        """Allocate a node between ``prev`` and ``next`` and point both
        neighbours at it: ``alloc(prev, item, next)``, then
        ``set_prev(next, ·)`` and ``set_next(prev, ·)`` for each neighbour
        that is not None, in that order, with their journal entries and
        errors, in one call."""
        prevs, nexts = self._prev, self._next
        node_id = len(nexts)
        if prev is not None and not 0 <= prev < node_id:
            raise UsageError(f"prev refers to unallocated node {prev}")
        if next is not None and not 0 <= next < node_id:
            raise UsageError(f"next refers to unallocated node {next}")
        prevs.append(prev)
        self._item.append(item)
        nexts.append(next)
        journal = self._journal
        if next is not None:
            if journal is not None:
                journal += (next, "prev", prevs[next])
            prevs[next] = node_id
        if prev is not None:
            if journal is not None:
                journal += (prev, "next", nexts[prev])
            nexts[prev] = node_id
        return node_id

    def link_run(self, prev: NodeId | None, items) -> list[NodeId]:
        """Allocate one node per item of the sequence ``items``, chained
        in order after ``prev``, and point ``prev`` at the first: what
        ``link(last, item, None)`` for each item in turn writes, ``last``
        being ``prev`` and then each new node, in one call. Only the
        write to ``prev``'s ``next`` is journaled, as ``set_next`` would
        journal it; the new nodes are fresh, so a rollback drops them
        whole. Returns the new ids, one list whose ints the ``prev`` and
        ``next`` fields share, so a caller keeping them (the ghost) adds
        no int object per node."""
        prevs, nexts = self._prev, self._next
        start = len(nexts)
        if prev is not None and not 0 <= prev < start:
            raise UsageError(f"prev refers to unallocated node {prev}")
        ids = list(range(start, start + len(items)))
        if not ids:
            return ids
        # islice, not a slice: a slice is one more list of len(items)
        # entries, and the two raised the census's peak RSS at width 16
        # by about 1.5 MB
        prevs.append(prev)
        prevs += islice(ids, len(ids) - 1)
        self._item += items
        nexts += islice(ids, 1, None)
        nexts.append(None)
        if prev is not None:
            journal = self._journal
            if journal is not None:
                journal += (prev, "next", nexts[prev])
            nexts[prev] = ids[0]
        return ids

    # -- reads: DanglingLink for an id that names no node ------------------------
    # The per-field reads index inline rather than through a helper: the
    # list makes one or more per get, peek, set_at and unlink.

    def prev(self, node_id: NodeId) -> NodeId | None:
        try:
            if node_id >= 0:
                return self._prev[node_id]
        except (IndexError, TypeError):
            pass
        raise DanglingLink(node_id)

    def item(self, node_id: NodeId) -> Item:
        try:
            if node_id >= 0:
                return self._item[node_id]
        except (IndexError, TypeError):
            pass
        raise DanglingLink(node_id)

    def next(self, node_id: NodeId) -> NodeId | None:
        try:
            if node_id >= 0:
                return self._next[node_id]
        except (IndexError, TypeError):
            pass
        raise DanglingLink(node_id)

    def prevs(self, ids) -> list[NodeId | None]:
        """The ``prev`` of each id of the sequence ``ids``, in order;
        DanglingLink for the first unallocated one. So are ``items`` and
        ``nexts``."""
        return _select_all(self._prev, ids)

    def items(self, ids) -> list[Item]:
        return _select_all(self._item, ids)

    def nexts(self, ids) -> list[NodeId | None]:
        return _select_all(self._next, ids)

    def links_agree(self, seq, positions) -> bool:
        """Whether, at each of ``positions`` in the sequence of ids
        ``seq``, the node is allocated and its ``prev`` and ``next`` are
        the entries before and after it in ``seq`` (None past either
        end): the chain's links, read only where a caller names."""
        prevs, nexts = self._prev, self._next
        n = len(prevs)
        last = len(seq) - 1
        try:
            for i in positions:
                node = seq[i]
                if not 0 <= node < n:
                    return False
                if prevs[node] != (seq[i - 1] if i else None):
                    return False
                if nexts[node] != (seq[i + 1] if i < last else None):
                    return False
        except TypeError:  # None
            return False
        return True

    def record(self, node_id: NodeId) -> NodeRecord:
        """The node's three fields as they are now, read at once;
        DanglingLink for an id that names no node."""
        try:
            if node_id >= 0:
                return NodeRecord(self._prev[node_id], self._item[node_id], self._next[node_id])
        except (IndexError, TypeError):
            pass
        raise DanglingLink(node_id)

    def _links(self, link: str) -> list:
        if link == "next":
            return self._next
        if link == "prev":
            return self._prev
        raise UsageError(f"a chain follows next or prev links, not {link!r}")

    def walk(self, node: NodeId | None) -> Iterator[Item]:
        """Yield the items of the chain from ``node`` along its ``next``
        links until a None link, reading each node only when the caller
        asks for the next item; DanglingLink for an id that names no node.
        The walk keeps no visited set: on a cyclic chain it goes on, so a
        caller bounds it."""
        nexts, items = self._next, self._item
        while node is not None:
            if not 0 <= node < len(items):
                raise DanglingLink(node)
            yield items[node]
            node = nexts[node]

    def find(self, node: NodeId | None, matches: Callable[[Item], bool],
             link: str = "next") -> tuple[int, NodeId | None]:
        """Follow ``link`` from ``node`` to the first node whose item
        ``matches``. Returns how many nodes it passed and that node, or
        how many nodes it walked and None when the chain ends first;
        DanglingLink for an id that names no node. No visited set: on a
        cyclic chain without a match it does not return."""
        links, items = self._links(link), self._item
        n = len(items)
        steps = 0
        while node is not None:
            if not 0 <= node < n:
                raise DanglingLink(node)
            if matches(items[node]):
                return steps, node
            node = links[node]
            steps += 1
        return steps, None

    def follow(self, node: NodeId | None, steps: int, link: str = "next") -> NodeId | None:
        """The id ``steps`` links from ``node`` along ``link``;
        DanglingLink when a node on the way, None included, names no
        node."""
        links = self._links(link)
        n = len(links)
        try:
            for _ in range(steps):
                if not 0 <= node < n:
                    break
                node = links[node]
            else:
                return node
        except TypeError:  # None
            pass
        raise DanglingLink(node)

    # -- writes --------------------------------------------------------------

    def set_prev(self, node_id: NodeId, prev: NodeId | None) -> None:
        prevs = self._prev
        n = len(prevs)
        if prev is not None and not 0 <= prev < n:
            raise UsageError(f"prev refers to unallocated node {prev}")
        if node_id is None or not 0 <= node_id < n:
            raise DanglingLink(node_id)
        journal = self._journal
        if journal is not None:
            journal += (node_id, "prev", prevs[node_id])
        prevs[node_id] = prev

    def set_next(self, node_id: NodeId, next: NodeId | None) -> None:
        nexts = self._next
        n = len(nexts)
        if next is not None and not 0 <= next < n:
            raise UsageError(f"next refers to unallocated node {next}")
        if node_id is None or not 0 <= node_id < n:
            raise DanglingLink(node_id)
        journal = self._journal
        if journal is not None:
            journal += (node_id, "next", nexts[node_id])
        nexts[node_id] = next

    def set_item(self, node_id: NodeId, item: Item) -> None:
        items = self._item
        if node_id is None or not 0 <= node_id < len(items):
            raise DanglingLink(node_id)
        if self._journal is not None:
            self._journal += (node_id, "item", items[node_id])
        items[node_id] = item

    def clear_node(self, node_id: NodeId) -> NodeId | None:
        """Null all three fields of ``node_id``, journaled as ``set_prev``,
        ``set_item`` and ``set_next`` in that order would journal them;
        return the old ``next``."""
        prevs, items, nexts = self._prev, self._item, self._next
        if node_id is None or not 0 <= node_id < len(items):
            raise DanglingLink(node_id)
        old_next = nexts[node_id]
        journal = self._journal
        if journal is not None:
            journal += (node_id, "prev", prevs[node_id])
            journal += (node_id, "item", items[node_id])
            journal += (node_id, "next", old_next)
        prevs[node_id] = None
        items[node_id] = NULL
        nexts[node_id] = None
        return old_next

    def clear_chain(self, first: NodeId | None, probe: Callable | None = None) -> None:
        """``clear_node`` on each node of the chain from ``first`` in turn,
        following the old ``next`` links, in one call and one journal entry:
        the ids in walk order, ``_CLEARED``, their old ``prev`` and ``item``
        columns and the last one's old ``next``. ``probe(node, position)``,
        if given, runs first at each node, dangling or not. A node met again
        on a cycle is cleared again, and the walk ends at its nulled ``next``."""
        prevs, items, nexts = self._prev, self._item, self._next
        n = len(items)
        ids, old_prevs, old_items = [], [], []
        journal = self._journal
        node, position = first, 0
        try:
            while node is not None:
                if probe is not None:
                    probe(node, position)
                if not 0 <= node < n:
                    raise DanglingLink(node)
                if journal is not None:
                    ids.append(node)
                    old_prevs.append(prevs[node])
                    old_items.append(items[node])
                prevs[node] = None
                items[node] = NULL
                nexts[node], node = None, nexts[node]  # nulls, then steps to the old next
                position += 1
        finally:
            if ids:  # ``node`` is where the walk stopped: the last cleared node's old next
                journal += (ids, _CLEARED, (old_prevs, old_items, node))

    def raw_write(self, node_id: NodeId, field: str, value) -> None:
        """Write ``value`` into a field of an allocated node, checking
        neither the value nor the field's meaning, and journal nothing:
        how corrupted states (a dangling link, say) are built for negative
        tests. The setters are the checked, journaled writes."""
        if node_id not in self:
            raise DanglingLink(node_id)
        if field not in _FIELDS:
            raise UsageError(f"a node has prev, item and next fields, not {field!r}")
        getattr(self, "_" + field)[node_id] = value

    # -- savepoints ----------------------------------------------------------

    def open_journal(self) -> list[int]:
        """Open a savepoint and return its mark, ``[journal length, next
        id]`` at this point, which ``take`` moves; told apart by identity."""
        if self._journal is None:
            self._journal = []
        mark = [len(self._journal), len(self._item)]
        self._marks.append(mark)
        return mark

    def _pop(self, mark) -> tuple[list, int, range]:
        if not self._marks or self._marks[-1] is not mark:
            raise UsageError("the savepoint is not the innermost open one")
        self._marks.pop()
        journal = self._journal
        if not self._marks:
            self._journal = None
        return journal, mark[0], range(mark[1], len(self._item))

    def close_journal(self, mark) -> tuple[list, range]:
        """Close the savepoint ``mark``, keeping its writes; return the
        journal entries written and the range of ids allocated since it
        opened. An enclosing savepoint still holds those entries."""
        journal, start, fresh = self._pop(mark)
        return (journal if self._journal is None else journal[start:]), fresh

    def take(self, mark: list[int]) -> tuple[list, range]:
        """``close_journal`` of the one open savepoint, ``mark``, which
        opens again at this point with the same mark and a new journal."""
        if len(self._marks) != 1 or self._marks[0] is not mark:
            raise UsageError("only the one open savepoint can be taken from")
        fresh = range(mark[1], len(self._item))
        entries, self._journal, mark[1] = self._journal, [], fresh.stop
        return entries, fresh

    def rollback(self, mark) -> None:
        """Close the savepoint ``mark``, then undo every write and
        allocation made since it opened, newest first, so a field written
        twice gets back its first old value."""
        journal, start, fresh = self._pop(mark)
        prevs, items, nexts = self._prev, self._item, self._next
        fields = {"prev": prevs, "item": items, "next": nexts}
        backwards = reversed(journal)
        for old, name, node_id in islice(zip(backwards, backwards, backwards),
                                         (len(journal) - start) // 3):
            if name is _CLEARED:  # its nodes newest first too
                old_prevs, old_items, end = old
                for node, p, x, nx in zip(reversed(node_id), reversed(old_prevs),
                                          reversed(old_items), chain((end,), reversed(node_id))):
                    prevs[node], items[node], nexts[node] = p, x, nx
            else:
                fields[name][node_id] = old
        del journal[start:]
        for values in fields.values():
            del values[fresh.start:]

    @staticmethod
    def writes(entries, skip=None) -> Iterable[tuple[NodeId, str, object]]:
        """The writes a closed journal's ``entries`` record, oldest first,
        as (node id, field, old value): a ``clear_chain`` entry reads as
        ``clear_node``'s would, or not at all if its ids equal ``skip``."""
        it = iter(entries)
        if _CLEARED not in entries:  # setters' entries alone: read at C speed
            return zip(it, it, it)
        out = []
        for node_id, name, old in zip(it, it, it):
            if name is not _CLEARED:
                out.append((node_id, name, old))
            elif node_id != skip:
                old_prevs, old_items, end = old
                old_nexts = chain(islice(node_id, 1, None), (end,))
                for node, p, x, nx in zip(node_id, old_prevs, old_items, old_nexts):
                    out += (node, "prev", p), (node, "item", x), (node, "next", nx)
        return out

    def copy(self) -> "NodeStore":
        """A store with this one's nodes and ids, and no savepoint open."""
        dup = NodeStore()
        dup._prev, dup._item, dup._next = self._prev.copy(), self._item.copy(), self._next.copy()
        return dup


@dataclass(frozen=True)
class StoreSnapshot:
    """Immutable field-level copy of a store."""

    records: dict[NodeId, tuple[NodeId | None, Item, NodeId | None]]
    next_id: NodeId


def snapshot(store: NodeStore) -> StoreSnapshot:
    return StoreSnapshot(
        records=dict(enumerate(zip(store._prev, store._item, store._next))),
        next_id=len(store),
    )


@dataclass(frozen=True)
class StoreDiff:
    changed: frozenset[tuple[NodeId, str]]
    fresh: frozenset[NodeId]

    def __bool__(self) -> bool:
        return bool(self.changed or self.fresh)


_FIELDS = ("prev", "item", "next")


def diff(before: StoreSnapshot, after: StoreSnapshot) -> StoreDiff:
    """Exactly the (id, field) pairs whose values differ, plus fresh ids.

    Symmetric in membership: ids present on only one side are reported
    as fresh relative to the other.
    """
    changed = set()
    fresh = set(before.records.keys()) ^ set(after.records.keys())
    for nid in before.records.keys() & after.records.keys():
        b, a = before.records[nid], after.records[nid]
        for i, name in enumerate(_FIELDS):
            if b[i] != a[i]:
                changed.add((nid, name))
    return StoreDiff(frozenset(changed), frozenset(fresh))


def walk_chain(store: NodeStore, first: NodeId | None) -> list[NodeId]:
    """Follow ``next`` from ``first`` until absent; the result's length is
    the actual size. Raises CycleDetected when a node repeats, naming the
    first repeated node and the number of steps walked before it, and
    DanglingLink when a link names an unallocated node.

    A walk that ends visits only distinct allocated nodes, so it takes at
    most ``len(store)`` steps; the loop keeps no visited set. A walk that
    is still going after that many steps has repeated a node or reached an
    unallocated one, and one pass over the walked prefix tells which."""
    nexts = store._next
    n = len(nexts)
    seq: list[NodeId] = []
    append = seq.append
    node = first
    try:
        for _ in range(n):
            if node is None:
                return seq
            if node < 0:  # would read from the end of the list
                break
            append(node)
            node = nexts[node]
        else:
            if node is None:
                return seq
            append(node)
            seen: set[NodeId] = set()
            for steps, nid in enumerate(seq):
                if nid in seen:
                    raise CycleDetected(nid, steps)
                seen.add(nid)
    except (IndexError, TypeError):  # past the end, or not an id
        pass
    # every node walked was allocated and the next one is none of them
    raise DanglingLink(node)
