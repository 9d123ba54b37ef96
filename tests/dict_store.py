"""The dict-backed node store that ``overlist.heapmodel`` kept before it
moved to three field lists: a dict from node id to a slotted record.
It is the reference that ``test_store_differential.py`` runs beside the
array-backed store; its code, journal and error texts are the earlier
ones, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from overlist.errors import CycleDetected, DanglingLink, UsageError
from overlist.heapmodel import NULL, Item, NodeId


@dataclass(slots=True)
class NodeRecord:
    prev: NodeId | None
    item: Item
    next: NodeId | None


class NodeStore:
    """Owner of all node records; allocation ids are monotone and unique.

    While a savepoint is open, every field write records the field's old
    value in the journal, so ``rollback`` can put the store back as it
    was when the savepoint opened, at a cost proportional to the writes
    made since rather than to the size of the heap. Savepoints nest; only
    the innermost open one can be closed or rolled back."""

    def __init__(self):
        self._records: dict[NodeId, NodeRecord] = {}
        self._next_id: NodeId = 0
        self._journal: list | None = None  # flat: node id, field, old value per write
        self._marks: list[tuple[int, NodeId]] = []  # open savepoints, innermost last

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def ids(self):
        return self._records.keys()

    # alloc, link and the setters test their links inline rather than
    # through a helper: an add makes one link call, so every call counts

    def alloc(self, prev: NodeId | None, item: Item, next: NodeId | None) -> NodeId:
        records = self._records
        if prev is not None and prev not in records:
            raise UsageError(f"prev refers to unallocated node {prev}")
        if next is not None and next not in records:
            raise UsageError(f"next refers to unallocated node {next}")
        node_id = self._next_id
        self._next_id = node_id + 1
        records[node_id] = NodeRecord(prev, item, next)
        return node_id

    def link(self, prev: NodeId | None, item: Item, next: NodeId | None) -> NodeId:
        """Allocate a node between ``prev`` and ``next`` and point both
        neighbours at it: ``alloc(prev, item, next)``, then
        ``set_prev(next, ·)`` and ``set_next(prev, ·)`` for each neighbour
        that is not None, in that order, with their journal entries and
        errors, in one call."""
        records = self._records
        if prev is not None:
            try:
                before = records[prev]
            except KeyError:
                raise UsageError(f"prev refers to unallocated node {prev}") from None
        if next is not None:
            try:
                after = records[next]
            except KeyError:
                raise UsageError(f"next refers to unallocated node {next}") from None
        node_id = self._next_id
        self._next_id = node_id + 1
        records[node_id] = NodeRecord(prev, item, next)
        journal = self._journal
        if next is not None:
            if journal is not None:
                journal += (next, "prev", after.prev)
            after.prev = node_id
        if prev is not None:
            if journal is not None:
                journal += (prev, "next", before.next)
            before.next = node_id
        return node_id

    def record(self, node_id: NodeId) -> NodeRecord:
        try:
            return self._records[node_id]
        except KeyError:
            raise DanglingLink(node_id) from None

    def walk(self, node: NodeId | None, link: str = "next") -> Iterator[NodeRecord]:
        """Yield the records of the chain from ``node`` along its ``next``
        (or ``prev``) links until a None link, looking each one up only
        when the caller asks for it; DanglingLink for an unallocated id, as
        ``record`` raises. A caller that needs a node's id follows the same
        link: the id after a record is its ``next`` (or ``prev``). The walk
        keeps no visited set: on a cyclic chain it goes on, so a caller
        bounds it or stops at a match."""
        # Records, not (id, record) pairs: a tuple per node made the walk
        # slower than a record call per node. The yield sits outside the
        # try, so closing a walk left at a match costs less.
        records = self._records
        if link == "next":
            while node is not None:
                try:
                    rec = records[node]
                except KeyError:
                    raise DanglingLink(node) from None
                yield rec
                node = rec.next
        elif link == "prev":
            while node is not None:
                try:
                    rec = records[node]
                except KeyError:
                    raise DanglingLink(node) from None
                yield rec
                node = rec.prev
        else:
            raise UsageError(f"walk follows next or prev links, not {link!r}")

    def records(self, ids) -> list[NodeRecord]:
        """The records of ``ids``, in order; DanglingLink for the first
        unallocated one."""
        try:
            return list(map(self._records.__getitem__, ids))
        except KeyError as e:
            raise DanglingLink(e.args[0]) from None

    def set_prev(self, node_id: NodeId, prev: NodeId | None) -> None:
        records = self._records
        if prev is not None and prev not in records:
            raise UsageError(f"prev refers to unallocated node {prev}")
        try:
            rec = records[node_id]
        except KeyError:
            raise DanglingLink(node_id) from None
        journal = self._journal
        if journal is not None:
            journal += (node_id, "prev", rec.prev)
        rec.prev = prev

    def set_next(self, node_id: NodeId, next: NodeId | None) -> None:
        records = self._records
        if next is not None and next not in records:
            raise UsageError(f"next refers to unallocated node {next}")
        try:
            rec = records[node_id]
        except KeyError:
            raise DanglingLink(node_id) from None
        journal = self._journal
        if journal is not None:
            journal += (node_id, "next", rec.next)
        rec.next = next

    def set_item(self, node_id: NodeId, item: Item) -> None:
        rec = self.record(node_id)
        if self._journal is not None:
            self._journal += (node_id, "item", rec.item)
        rec.item = item

    def clear_node(self, node_id: NodeId) -> NodeId | None:
        """Null all three fields of ``node_id``, journaled as ``set_prev``,
        ``set_item`` and ``set_next`` in that order would journal them;
        return the old ``next``, so a caller walking the chain can go on."""
        try:
            rec = self._records[node_id]
        except KeyError:
            raise DanglingLink(node_id) from None
        old_next = rec.next
        journal = self._journal
        if journal is not None:
            # three extends, as the setters make them: one 9-slot extend
            # grows the list differently and raised the census's peak RSS
            # on the width-16 wrap state by about 0.3 MB
            journal += (node_id, "prev", rec.prev)
            journal += (node_id, "item", rec.item)
            journal += (node_id, "next", old_next)
        rec.prev = None
        rec.item = NULL
        rec.next = None
        return old_next

    def open_journal(self) -> tuple[int, NodeId]:
        """Open a savepoint and return its mark: the journal length and
        the next id at this point. Marks are told apart by identity."""
        if self._journal is None:
            self._journal = []
        mark = (len(self._journal), self._next_id)
        self._marks.append(mark)
        return mark

    def _pop(self, mark) -> tuple[list, int, range]:
        if not self._marks or self._marks[-1] is not mark:
            raise UsageError("the savepoint is not the innermost open one")
        self._marks.pop()
        journal = self._journal
        if not self._marks:
            self._journal = None
        return journal, mark[0], range(mark[1], self._next_id)

    def close_journal(self, mark) -> tuple[list, range]:
        """Close the savepoint ``mark``, keeping its writes; return the
        journal entries written and the range of ids allocated since it
        opened. An enclosing savepoint still holds those entries."""
        journal, start, fresh = self._pop(mark)
        return (journal if self._journal is None else journal[start:]), fresh

    def rollback(self, mark) -> None:
        """Close the savepoint ``mark``, then undo every write and
        allocation made since it opened."""
        journal, start, fresh = self._pop(mark)
        records = self._records
        backwards = reversed(journal)
        for old, name, node_id in islice(zip(backwards, backwards, backwards),
                                         (len(journal) - start) // 3):
            setattr(records[node_id], name, old)
        del journal[start:]
        for node_id in fresh:
            del records[node_id]
        self._next_id = fresh.start

    def copy(self) -> "NodeStore":
        dup = NodeStore()
        dup._records = {nid: NodeRecord(r.prev, r.item, r.next) for nid, r in self._records.items()}
        dup._next_id = self._next_id
        return dup


def walk_chain(store: NodeStore, first: NodeId | None) -> list[NodeId]:
    """Follow ``next`` from ``first`` until absent; the result's length is
    the actual size. Raises CycleDetected when a node repeats, naming the
    first repeated node and the number of steps walked before it, and
    DanglingLink when a link names an unallocated node.

    A walk that ends visits only distinct allocated nodes, so it takes at
    most ``len(store)`` steps; the loop keeps no visited set. A walk that
    is still going after that many steps has repeated a node or reached an
    unallocated one, and one pass over the walked prefix tells which."""
    records = store._records
    seq: list[NodeId] = []
    append = seq.append
    node = first
    try:
        for _ in range(len(records)):
            if node is None:
                return seq
            append(node)
            node = records[node].next
    except KeyError:
        raise DanglingLink(node) from None
    if node is None:
        return seq
    append(node)
    seen: set[NodeId] = set()
    for steps, nid in enumerate(seq):
        if nid in seen:
            raise CycleDetected(nid, steps)
        seen.add(nid)
    # every allocated node was walked once and the next one is none of them
    raise DanglingLink(node)
