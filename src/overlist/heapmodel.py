"""Explicit heap model for list nodes.

Nodes live in an id-indexed store instead of pointing at each other
directly, so aliasing is a plain id comparison, corrupted or cyclic
shapes can be built for negative tests, and before/after snapshots can
be diffed field by field for frame checking. Ids are never reused;
unlinked ("cleared") nodes stay allocated with null fields, mirroring a
heap where garbage persists until collection. A journal rollback is the
one exception: it forgets the nodes allocated since the journal opened,
together with every other change made since.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleDetected, DanglingLink, UsageError

NodeId = int


@dataclass(frozen=True)
class NullItem:
    """The Java ``null`` element."""

    def __repr__(self) -> str:
        return "null"


@dataclass(frozen=True)
class Atom:
    """An opaque element with deterministic, side-effect free equality."""

    token: str

    def __repr__(self) -> str:
        return self.token


NULL = NullItem()

Item = NullItem | Atom


def items_equal(target: Item, item: Item) -> bool:
    """Element comparison with Java's ``o == null`` / ``o.equals(...)`` split."""
    if isinstance(target, NullItem):
        return isinstance(item, NullItem)
    return target == item


@dataclass
class NodeRecord:
    prev: NodeId | None
    item: Item
    next: NodeId | None


class NodeStore:
    """Owner of all node records; allocation ids are monotone and unique.

    While a journal is open, every field write records the field's old
    value, so ``rollback`` can put the store back as it was when the
    journal opened, at a cost proportional to the writes made since
    rather than to the size of the heap."""

    def __init__(self):
        self._records: dict[NodeId, NodeRecord] = {}
        self._next_id: NodeId = 0
        self._journal: list[tuple[NodeId, str, object]] | None = None
        self._journal_start: NodeId = 0  # _next_id when the journal opened

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def ids(self):
        return self._records.keys()

    def _require(self, node_id: NodeId, role: str) -> None:
        if node_id is not None and node_id not in self._records:
            raise UsageError(f"{role} refers to unallocated node {node_id}")

    def alloc(self, prev: NodeId | None, item: Item, next: NodeId | None) -> NodeId:
        self._require(prev, "prev")
        self._require(next, "next")
        node_id = self._next_id
        self._next_id += 1
        self._records[node_id] = NodeRecord(prev, item, next)
        return node_id

    def record(self, node_id: NodeId) -> NodeRecord:
        try:
            return self._records[node_id]
        except KeyError:
            raise DanglingLink(node_id) from None

    def set_prev(self, node_id: NodeId, prev: NodeId | None) -> None:
        self._require(prev, "prev")
        rec = self.record(node_id)
        if self._journal is not None:
            self._journal.append((node_id, "prev", rec.prev))
        rec.prev = prev

    def set_next(self, node_id: NodeId, next: NodeId | None) -> None:
        self._require(next, "next")
        rec = self.record(node_id)
        if self._journal is not None:
            self._journal.append((node_id, "next", rec.next))
        rec.next = next

    def set_item(self, node_id: NodeId, item: Item) -> None:
        rec = self.record(node_id)
        if self._journal is not None:
            self._journal.append((node_id, "item", rec.item))
        rec.item = item

    def open_journal(self) -> None:
        if self._journal is not None:
            raise UsageError("a journal is already open")
        self._journal = []
        self._journal_start = self._next_id

    def rollback(self) -> None:
        """Undo every write and allocation since ``open_journal``, then
        close the journal."""
        journal, start = self._journal, self._journal_start
        if journal is None:
            raise UsageError("no journal is open")
        self._journal = None
        records = self._records
        for node_id, name, old in reversed(journal):
            setattr(records[node_id], name, old)
        for node_id in range(start, self._next_id):
            del records[node_id]
        self._next_id = start

    def copy(self) -> "NodeStore":
        dup = NodeStore()
        dup._records = {nid: NodeRecord(r.prev, r.item, r.next) for nid, r in self._records.items()}
        dup._next_id = self._next_id
        return dup


@dataclass(frozen=True)
class StoreSnapshot:
    """Immutable field-level copy of a store."""

    records: dict[NodeId, tuple[NodeId | None, Item, NodeId | None]]
    next_id: NodeId


def snapshot(store: NodeStore) -> StoreSnapshot:
    return StoreSnapshot(
        records={nid: (r.prev, r.item, r.next) for nid, r in store._records.items()},
        next_id=store._next_id,
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
    the actual size. Raises CycleDetected when a node repeats or the walk
    exceeds the number of allocated records, DanglingLink when a link
    names an unallocated node."""
    seq: list[NodeId] = []
    seen: set[NodeId] = set()
    node = first
    while node is not None:
        if node in seen or len(seq) > len(store):
            raise CycleDetected(node, len(seq))
        seen.add(node)
        seq.append(node)
        node = store.record(node).next
    return seq


def is_chain(store: NodeStore, seq: list[NodeId]) -> bool:
    """The four-clause chain definition; requires a non-empty sequence."""
    n = len(seq)
    if n == 0:
        return False
    for nid in seq:
        if nid not in store:
            raise UsageError(f"unallocated node {nid} in sequence")
    if store.record(seq[0]).prev is not None:
        return False
    if store.record(seq[-1]).next is not None:
        return False
    for i in range(1, n):
        if store.record(seq[i]).prev != seq[i - 1]:
            return False
    for i in range(n - 1):
        if store.record(seq[i]).next != seq[i + 1]:
            return False
    return True
