"""The linked list under test, width-parametric, in two policies.

``UNCHECKED`` reproduces the OpenJDK semantics faithfully, including the
size-field overflow; ``FAIL_FAST`` is the bounded variant that refuses
any size-increasing operation at capacity with an IllegalState error,
before touching the list. One code path serves both: the fix only adds a
capacity check on the size-increasing entry points.

A ghost sequence of node ids shadows the chain for the specification
layer. Ghost bookkeeping locates nodes by identity, so it stays equal to
the actual chain even when the cached size has wrapped. Production logic
never reads it.

For mutation-sensitivity experiments, known faults can be injected at
construction via ``faults`` (see FAULTS).
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum

from . import jint
from .errors import (
    ContractViolation,
    DanglingLink,
    IllegalStateError,
    IndexOutOfBoundsError,
    NegativeArraySizeError,
    NoSuchElementError,
    UsageError,
)
from .ghostspec import GhostState
from .heapmodel import NULL, Item, NodeId, NodeStore, NullItem, items_equal, walk_chain
from .jint import JInt, dec, from_unbounded, half, inc, max_value


class SizePolicy(Enum):
    UNCHECKED = "unchecked"
    FAIL_FAST = "failfast"


class CheckMode(Enum):
    OFF = "off"
    INVARIANT = "invariant"
    FULL = "full"


#: injectable faults for mutation-sensitivity experiments
FAULTS = (
    "unlink-skip-relink",  # drop the neighbor pointer updates in unlink
    "add-skip-checksize",  # FailFast adds skip the capacity check
    "lastindexof-off-by-one",  # backward search starts one position low
)


class JavaLinkedList:
    """Doubly linked list with a W-bit cached size field."""

    def __init__(
        self,
        width: int = 8,
        policy: SizePolicy = SizePolicy.FAIL_FAST,
        check_mode: CheckMode = CheckMode.OFF,
        faults: frozenset[str] = frozenset(),
    ):
        unknown = set(faults) - set(FAULTS)
        if unknown:
            raise UsageError(f"unknown faults {sorted(unknown)}")
        self.width = width
        self.max_size = max_value(width).value
        self.policy = policy
        self.check_mode = check_mode
        self.faults = frozenset(faults)
        self.store = NodeStore()
        self.first: NodeId | None = None
        self.last: NodeId | None = None
        self.size = JInt(0, width)
        self.ghost = GhostState()

    # -- harness helpers ----------------------------------------------------

    def copy(self) -> "JavaLinkedList":
        dup = JavaLinkedList(self.width, self.policy, self.check_mode, self.faults)
        dup.store = self.store.copy()
        dup.first = self.first
        dup.last = self.last
        dup.size = self.size
        dup.ghost = self.ghost.copy()
        return dup

    @contextmanager
    def trial(self):
        """Run the ``with`` body on this list, then put the list back as
        it was: node records, allocation counter, header and ghost. The
        store's journal undoes only what the body wrote."""
        header, ghost = (self.first, self.last, self.size), self.ghost
        self.ghost = ghost.copy()
        self.store.open_journal()
        try:
            yield
        finally:
            self.store.rollback()
            self.first, self.last, self.size = header
            self.ghost = ghost

    def chain(self) -> list[NodeId]:
        """Actual chain by walking next links; its length is the actual size."""
        return walk_chain(self.store, self.first)

    def items(self) -> list[Item]:
        return [self.store.record(nid).item for nid in self.chain()]

    # -- capacity -----------------------------------------------------------

    def is_max_size(self) -> bool:
        return self.size.value == self.max_size

    def check_size(self) -> None:
        if self.is_max_size():
            raise IllegalStateError(
                f"size {self.size.value} is at the {self.width}-bit maximum"
            )

    def _guard_growth(self) -> None:
        if self.policy is SizePolicy.FAIL_FAST and "add-skip-checksize" not in self.faults:
            self.check_size()

    # -- linking ------------------------------------------------------------

    def link_last(self, item: Item) -> None:
        self._guard_growth()
        old_last = self.last
        node = self.store.alloc(prev=old_last, item=item, next=None)
        self.last = node
        if old_last is None:
            self.first = node
        else:
            self.store.set_next(old_last, node)
        self.size = inc(self.size)
        self.ghost.node_list.append(node)

    def link_first(self, item: Item) -> None:
        self._guard_growth()
        old_first = self.first
        node = self.store.alloc(prev=None, item=item, next=old_first)
        self.first = node
        if old_first is None:
            self.last = node
        else:
            self.store.set_prev(old_first, node)
        self.size = inc(self.size)
        self.ghost.node_list.insert(0, node)

    def _check_ghost_index(self, node: NodeId, index: int | None) -> None:
        """A caller-supplied ghost position must hold ``node`` (checked
        only when checks are on)."""
        if index is None or self.check_mode is CheckMode.OFF:
            return
        nl = self.ghost.node_list
        if not 0 <= index < len(nl) or nl[index] != node:
            raise UsageError(f"ghost index {index} does not hold node {node}")

    def link_before(self, item: Item, succ: NodeId, succ_index: int | None = None) -> None:
        """Splice a new node in front of ``succ``. ``succ_index`` is the
        ghost position of ``succ``; it is validated when checks are on."""
        if succ not in self.store:
            raise UsageError(f"succ {succ} not allocated")
        self._check_ghost_index(succ, succ_index)
        self._guard_growth()
        pred = self.store.record(succ).prev
        node = self.store.alloc(prev=pred, item=item, next=succ)
        self.store.set_prev(succ, node)
        if pred is None:
            self.first = node
        else:
            self.store.set_next(pred, node)
        self.size = inc(self.size)
        nl = self.ghost.node_list
        try:
            nl.insert(nl.index(succ), node)
        except ValueError:
            # identity miss: as in unlink, the ghost already lost track of
            # succ, which only happens under injected faults
            pass

    def unlink(self, x: NodeId, x_index: int | None = None) -> Item:
        """Remove node ``x`` from the chain, clearing its fields; returns
        the removed item. ``x_index`` is the ghost position of ``x``."""
        if x not in self.store:
            raise UsageError(f"node {x} not allocated")
        self._check_ghost_index(x, x_index)
        rec = self.store.record(x)
        item, pred, succ = rec.item, rec.prev, rec.next
        relink = "unlink-skip-relink" not in self.faults

        if pred is None:
            self.first = succ
        elif relink:
            self.store.set_next(pred, succ)
        if succ is None:
            self.last = pred
        elif relink:
            self.store.set_prev(succ, pred)

        self.store.set_prev(x, None)
        self.store.set_item(x, NULL)
        self.store.set_next(x, None)
        self.size = dec(self.size)
        nl = self.ghost.node_list
        if x_index is not None and 0 <= x_index < len(nl) and nl[x_index] == x:
            del nl[x_index]
        else:
            # identity fallback; a miss means the ghost already lost track
            # of this node, which only happens under injected faults
            try:
                nl.remove(x)
            except ValueError:
                pass
        return item

    def unlink_first(self) -> Item:
        if self.first is None:
            raise NoSuchElementError("list is empty")
        return self.unlink(self.first, 0)

    def unlink_last(self) -> Item:
        if self.last is None:
            raise NoSuchElementError("list is empty")
        return self.unlink(self.last, len(self.ghost.node_list) - 1)

    # -- positional access --------------------------------------------------

    def node_at(self, index: int) -> NodeId:
        """Bidirectional walk: from first when index < size/2 (arithmetic
        halving), else backward from last. Callers must have range-checked
        the index against the cached size."""
        i = from_unbounded(index, self.width)
        if i.value < half(self.size).value:
            node = self.first
            for _ in range(i.value):
                node = self.store.record(node).next
        else:
            node = self.last
            for _ in range(self.size.value - 1 - i.value):
                node = self.store.record(node).prev
        if node is None:
            # the cached size promised more nodes than the links reach
            raise DanglingLink(None)
        return node

    def _check_element_index(self, index: int) -> None:
        # signed comparison against the cached size: a negative size makes
        # every element index invalid
        if not 0 <= index < self.size.value:
            raise IndexOutOfBoundsError(f"index {index}, size {self.size.value}")

    def _check_position_index(self, index: int) -> None:
        if not 0 <= index <= self.size.value:
            raise IndexOutOfBoundsError(f"index {index}, size {self.size.value}")

    def get(self, index: int) -> Item:
        self._check_element_index(index)
        return self.store.record(self.node_at(index)).item

    def set_at(self, index: int, item: Item) -> Item:
        self._check_element_index(index)
        node = self.node_at(index)
        old = self.store.record(node).item
        self.store.set_item(node, item)
        return old

    def add_at(self, index: int, item: Item) -> None:
        self._check_position_index(index)
        if index == self.size.value:
            self.link_last(item)
        else:
            self.link_before(item, self.node_at(index))

    def remove_at(self, index: int) -> Item:
        self._check_element_index(index)
        return self.unlink(self.node_at(index))

    # -- collection surface -------------------------------------------------

    def add(self, item: Item) -> bool:
        self.link_last(item)
        return True

    def size_field(self) -> JInt:
        """The raw cached size in both policies (the documented clamp
        lives in the oracle, not here)."""
        return self.size

    def index_of(self, target: Item) -> JInt:
        index = JInt(0, self.width)
        node = self.first
        while node is not None:
            rec = self.store.record(node)
            if items_equal(target, rec.item):
                return index
            index = inc(index)
            node = rec.next
        return JInt(-1, self.width)

    def last_index_of(self, target: Item) -> JInt:
        index = self.size
        if "lastindexof-off-by-one" in self.faults:
            index = dec(index)
        node = self.last
        while node is not None:
            if self.check_mode is CheckMode.FULL:
                self._last_index_probe(index, node, target)
            index = dec(index)
            if items_equal(target, self.store.record(node).item):
                return index
            node = self.store.record(node).prev
        return JInt(-1, self.width)

    def _last_index_probe(self, index: JInt, node: NodeId, target: Item) -> None:
        """Loop invariant of the backward search, checked at the head of
        each iteration: the counter stays in [1, size], the current node
        is the ghost entry at index-1, and nothing at or beyond ``index``
        matched."""
        nl = self.ghost.node_list
        violations = []
        if not 1 <= index.value <= self.size.value:
            violations.append(("probe", f"index {index.value} outside [1, {self.size.value}]"))
        elif index.value - 1 >= len(nl) or nl[index.value - 1] != node:
            violations.append(
                ("probe", f"node {node} is not nodeList[{index.value - 1}]")
            )
        else:
            for p in range(index.value, min(self.size.value, len(nl))):
                if items_equal(target, self.store.record(nl[p]).item):
                    violations.append(("probe", f"unreported match at position {p}"))
                    break
        if violations:
            raise ContractViolation("last_index_of.loop", violations)

    def contains(self, target: Item) -> bool:
        return self.index_of(target).value != -1

    def remove_item(self, target: Item) -> bool:
        return self.remove_first_occurrence(target)

    def remove_first_occurrence(self, target: Item) -> bool:
        node = self.first
        while node is not None:
            rec = self.store.record(node)
            if items_equal(target, rec.item):
                self.unlink(node)
                return True
            node = rec.next
        return False

    def remove_last_occurrence(self, target: Item) -> bool:
        node = self.last
        while node is not None:
            rec = self.store.record(node)
            if items_equal(target, rec.item):
                self.unlink(node)
                return True
            node = rec.prev
        return False

    def clear(self) -> None:
        """Unlink every node, clearing its fields; records stay allocated."""
        node = self.first
        ghost_pos = 0
        while node is not None:
            if self.check_mode is CheckMode.FULL:
                self._clear_probe(node, ghost_pos)
            rec = self.store.record(node)
            nxt = rec.next
            self.store.set_prev(node, None)
            self.store.set_item(node, NULL)
            self.store.set_next(node, None)
            node = nxt
            ghost_pos += 1
        self.first = None
        self.last = None
        self.size = JInt(0, self.width)
        self.ghost.node_list.clear()

    def _clear_probe(self, node: NodeId, ghost_pos: int) -> None:
        """Loop invariant of clear(): everything before the ghost index is
        already cleared and the current node is the ghost entry there
        (i.e. the successor of the previous iteration's node)."""
        nl = self.ghost.node_list
        violations = []
        if ghost_pos >= len(nl) or nl[ghost_pos] != node:
            violations.append(("probe", f"node {node} is not nodeList[{ghost_pos}]"))
        for p in range(min(ghost_pos, len(nl))):
            rec = self.store.record(nl[p])
            if rec.prev is not None or rec.next is not None or not isinstance(rec.item, NullItem):
                violations.append(("probe", f"nodeList[{p}] not cleared"))
                break
        if violations:
            raise ContractViolation("clear.loop", violations)

    def to_array(self) -> list[Item]:
        if self.size.value < 0:
            raise NegativeArraySizeError(f"size {self.size.value}")
        out = []
        node = self.first
        for _ in range(self.size.value):
            rec = self.store.record(node)
            out.append(rec.item)
            node = rec.next
        return out

    # -- deque surface (chain-based, no index arithmetic) ---------------------

    def add_first(self, item: Item) -> None:
        self.link_first(item)

    def add_last(self, item: Item) -> None:
        self.link_last(item)

    def get_first(self) -> Item:
        if self.first is None:
            raise NoSuchElementError("list is empty")
        return self.store.record(self.first).item

    def get_last(self) -> Item:
        if self.last is None:
            raise NoSuchElementError("list is empty")
        return self.store.record(self.last).item

    def peek_first(self) -> Item | None:
        return None if self.first is None else self.store.record(self.first).item

    def peek_last(self) -> Item | None:
        return None if self.last is None else self.store.record(self.last).item

    def poll_first(self) -> Item | None:
        return None if self.first is None else self.unlink_first()

    def poll_last(self) -> Item | None:
        return None if self.last is None else self.unlink_last()

    def remove_first(self) -> Item:
        return self.unlink_first()

    def remove_last(self) -> Item:
        return self.unlink_last()


def new_list(
    width: int = 8,
    policy: SizePolicy = SizePolicy.FAIL_FAST,
    check_mode: CheckMode = CheckMode.OFF,
    faults: frozenset[str] = frozenset(),
) -> JavaLinkedList:
    return JavaLinkedList(width, policy, check_mode, faults)


#: public operations addressable by name in scripts, contracts and reports
OPS = {
    "add": JavaLinkedList.add,
    "add_first": JavaLinkedList.add_first,
    "add_last": JavaLinkedList.add_last,
    "get": JavaLinkedList.get,
    "set_at": JavaLinkedList.set_at,
    "add_at": JavaLinkedList.add_at,
    "remove_at": JavaLinkedList.remove_at,
    "index_of": JavaLinkedList.index_of,
    "last_index_of": JavaLinkedList.last_index_of,
    "contains": JavaLinkedList.contains,
    "remove_item": JavaLinkedList.remove_item,
    "remove_first_occurrence": JavaLinkedList.remove_first_occurrence,
    "remove_last_occurrence": JavaLinkedList.remove_last_occurrence,
    "clear": JavaLinkedList.clear,
    "to_array": JavaLinkedList.to_array,
    "size": JavaLinkedList.size_field,
    "is_max_size": JavaLinkedList.is_max_size,
    "check_size": JavaLinkedList.check_size,
    "get_first": JavaLinkedList.get_first,
    "get_last": JavaLinkedList.get_last,
    "peek_first": JavaLinkedList.peek_first,
    "peek_last": JavaLinkedList.peek_last,
    "poll_first": JavaLinkedList.poll_first,
    "poll_last": JavaLinkedList.poll_last,
    "remove_first": JavaLinkedList.remove_first,
    "remove_last": JavaLinkedList.remove_last,
}


def apply_op(lst: JavaLinkedList, op: str, args: tuple = ()):
    if op not in OPS:
        raise UsageError(f"unknown operation {op!r}")
    return OPS[op](lst, *args)
