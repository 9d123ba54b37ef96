"""The linked list under test, width-parametric, in two policies.

``UNCHECKED`` reproduces the OpenJDK semantics faithfully, including the
size-field overflow; ``FAIL_FAST`` is the bounded variant that refuses
any size-increasing operation at capacity with an IllegalState error,
before touching the list. One code path serves both: the fix only adds a
capacity check on the size-increasing entry points.

A ghost sequence of node ids (the list ``ghost``) shadows the chain for
the specification layer. Ghost bookkeeping locates nodes by identity, so it
stays equal to the actual chain even when the cached size has wrapped.
Production logic never reads it.

``OPS`` maps each operation name to its method; it is derived from the
rows of ``oracle.OP_SPECS``, so an operation is named in one place.

For mutation-sensitivity experiments, known faults can be injected at
construction via ``faults`` (see FAULTS).
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from itertools import islice
from typing import Callable

from .errors import (
    ContractViolation,
    DanglingLink,
    IllegalStateError,
    IndexOutOfBoundsError,
    NegativeArraySizeError,
    NoSuchElementError,
    UsageError,
)
from .heapmodel import Item, NodeId, NodeStore, NullItem, item_test, walk_chain
from .jint import max_value, min_value, wrap
from .oracle import OP_SPECS


class SizePolicy(Enum):
    UNCHECKED = "unchecked"
    FAIL_FAST = "failfast"


class CheckMode(Enum):
    OFF = "off"
    INVARIANT = "invariant"
    FULL = "full"


def require_member(enum: type[Enum], value, name: str) -> None:
    """Policies and check modes are compared by identity, so any value
    that is not a member of its enum (its string value, say) is a
    UsageError rather than silently read as some other member."""
    if not isinstance(value, enum):
        raise UsageError(f"{name} must be a {enum.__name__}, got {value!r}")


#: injectable faults for mutation-sensitivity experiments
FAULTS = (
    "unlink-skip-relink",  # drop the neighbor pointer updates in unlink
    "add-skip-checksize",  # FailFast adds skip the capacity check
    "lastindexof-off-by-one",  # backward search starts one position low
)


class JavaLinkedList:
    """Doubly linked list with a W-bit cached size field. Its ``check_mode``
    checks no invariant (``run_script`` and ``run_checked`` do):
    ``INVARIANT`` only turns on ``unlink``'s ghost-index assertion, ``FULL``
    also the loop probes of ``last_index_of`` and ``clear``."""

    def __init__(
        self,
        width: int = 8,
        policy: SizePolicy = SizePolicy.FAIL_FAST,
        check_mode: CheckMode = CheckMode.OFF,
        faults: frozenset[str] = frozenset(),
    ):
        require_member(SizePolicy, policy, "policy")
        require_member(CheckMode, check_mode, "check_mode")
        unknown = set(faults) - set(FAULTS)
        if unknown:
            raise UsageError(f"unknown faults {sorted(unknown)}")
        if policy is SizePolicy.UNCHECKED and check_mode is not CheckMode.OFF:
            raise UsageError(
                "an Unchecked list cannot be checked: its size wraps at capacity, "
                "which breaks the class invariant"
            )
        self.width = width
        self.max_size = max_value(width).value
        self.min_size = min_value(width).value
        # the refusal's text: the size always equals the maximum when it is raised
        self._at_capacity = f"size {self.max_size} is at the {width}-bit maximum"
        self.policy = policy
        self.check_mode = check_mode
        self.faults = frozenset(faults)
        # whether the size-increasing entry points refuse growth at capacity
        self.guards_growth = policy is SizePolicy.FAIL_FAST and "add-skip-checksize" not in faults
        self.store = NodeStore()
        self.first: NodeId | None = None
        self.last: NodeId | None = None
        self.size = 0  # a Java int: kept in [min_size, max_size]
        self.ghost: list[NodeId] = []  # specification-only: the chain's node ids

    # -- harness helpers ----------------------------------------------------

    @contextmanager
    def trial(self):
        """Run the ``with`` body on this list, then put the list back as
        it was: node fields, allocation counter, header and ghost. The
        store's journal undoes only what the body wrote, so trials nest
        and checked calls may run inside one."""
        header, ghost = (self.first, self.last, self.size), self.ghost
        self.ghost = list(ghost)
        mark = self.store.open_journal()
        try:
            yield
        finally:
            self.store.rollback(mark)
            self.first, self.last, self.size = header
            self.ghost = ghost

    def chain(self) -> list[NodeId]:
        """Actual chain by walking next links; its length is the actual size."""
        return walk_chain(self.store, self.first)

    def items(self) -> list[Item]:
        return self.store.items(self.chain())

    # -- Java int arithmetic -------------------------------------------------

    def _dec(self, n: int) -> int:
        """``n - 1`` as a W-bit Java int: MIN - 1 wraps to MAX."""
        return self.max_size if n == self.min_size else n - 1

    # -- capacity -----------------------------------------------------------

    def is_max_size(self) -> bool:
        return self.size == self.max_size

    def check_size(self) -> None:
        if self.size == self.max_size:
            raise IllegalStateError(self._at_capacity)

    # -- linking ------------------------------------------------------------
    # Each size-increasing entry point guards growth and steps the size
    # inline, and links its node with one store call (link_before first
    # reads its successor's prev), so an accepted add makes no call beyond
    # link_last and NodeStore.link. check_size runs only at capacity, where
    # it raises the refusal (FailFast).

    def link_last(self, item: Item) -> None:
        size = self.size
        if size == self.max_size and self.guards_growth:
            self.check_size()
        old_last = self.last
        node = self.store.link(old_last, item, None)
        self.last = node
        if old_last is None:
            self.first = node
        self.size = self.min_size if size == self.max_size else size + 1
        self.ghost.append(node)

    def link_first(self, item: Item) -> None:
        size = self.size
        if size == self.max_size and self.guards_growth:
            self.check_size()
        old_first = self.first
        node = self.store.link(None, item, old_first)
        self.first = node
        if old_first is None:
            self.last = node
        self.size = self.min_size if size == self.max_size else size + 1
        self.ghost.insert(0, node)

    def link_before(self, item: Item, succ: NodeId) -> None:
        """Splice a new node in front of ``succ``."""
        try:
            pred = self.store.prev(succ)
        except DanglingLink:
            raise UsageError(f"succ {succ} not allocated") from None
        size = self.size
        if size == self.max_size and self.guards_growth:
            self.check_size()
        node = self.store.link(pred, item, succ)
        if pred is None:
            self.first = node
        self.size = self.min_size if size == self.max_size else size + 1
        nl = self.ghost
        try:
            nl.insert(nl.index(succ), node)
        except ValueError:
            # identity miss: as in unlink, the ghost already lost track of
            # succ, which only happens under injected faults
            pass

    def unlink(self, x: NodeId, x_index: int | None = None) -> Item:
        """Remove node ``x`` from the chain, clearing its fields; returns
        the removed item. ``x_index`` is the ghost position of ``x``; when
        checks are on, it must hold ``x``."""
        if x not in self.store:
            raise UsageError(f"node {x} not allocated")
        nl = self.ghost
        at_index = x_index is not None and 0 <= x_index < len(nl) and nl[x_index] == x
        if x_index is not None and not at_index and self.check_mode is not CheckMode.OFF:
            raise UsageError(f"ghost index {x_index} does not hold node {x}")
        store = self.store
        pred, item, succ = store.prev(x), store.item(x), store.next(x)
        relink = "unlink-skip-relink" not in self.faults

        if pred is None:
            self.first = succ
        elif relink:
            store.set_next(pred, succ)
        if succ is None:
            self.last = pred
        elif relink:
            store.set_prev(succ, pred)

        store.clear_node(x)
        self.size = self._dec(self.size)
        if at_index:
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
        return self.unlink(self.last, len(self.ghost) - 1)

    # -- positional access --------------------------------------------------

    def node_at(self, index: int) -> NodeId:
        """Bidirectional walk: from first when index < size >> 1 (Java's
        floor shift), else backward from last. Callers must have
        range-checked the index against the cached size."""
        if index < self.size >> 1:
            node = self.store.follow(self.first, index)
        else:
            node = self.store.follow(self.last, self.size - 1 - index, "prev")
        if node is None:
            # the cached size promised more nodes than the links reach
            raise DanglingLink(None)
        return node

    def _check_element_index(self, index: int) -> None:
        # signed comparison against the cached size: a negative size makes
        # every element index invalid
        if not 0 <= index < self.size:
            raise IndexOutOfBoundsError(f"index {index}, size {self.size}")

    def _check_position_index(self, index: int) -> None:
        if not 0 <= index <= self.size:
            raise IndexOutOfBoundsError(f"index {index}, size {self.size}")

    def get(self, index: int) -> Item:
        self._check_element_index(index)
        return self.store.item(self.node_at(index))

    def set_at(self, index: int, item: Item) -> Item:
        self._check_element_index(index)
        node = self.node_at(index)
        old = self.store.item(node)
        self.store.set_item(node, item)
        return old

    def add_at(self, index: int, item: Item) -> None:
        self._check_position_index(index)
        if index == self.size:
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

    def size_field(self) -> int:
        """The raw cached size in both policies (the documented clamp
        lives in the oracle, not here)."""
        return self.size

    # The element searches follow the chain with the store's ``find``, which
    # makes no Python call per node: the element test (items_equal with its
    # null split made once) runs in C. Java steps an int counter once per
    # node, wrapping at the ends of the int range, so the counter is
    # computed from the number of nodes passed: ``wrap(k)`` after k nodes
    # forward, ``wrap(start - k - 1)`` at the (k+1)-th node backward.

    def index_of(self, target: Item) -> int:
        steps, node = self.store.find(self.first, item_test(target))
        return -1 if node is None else wrap(steps, self.width)

    def last_index_of(self, target: Item) -> int:
        index = self.size
        if "lastindexof-off-by-one" in self.faults:
            index = self._dec(index)
        matches = item_test(target)
        if self.check_mode is not CheckMode.FULL:
            steps, node = self.store.find(self.last, matches, "prev")
            return -1 if node is None else wrap(index - steps - 1, self.width)
        # checked: Java's loop, with its invariant probed at each head,
        # before the node is read, so a probe of a dangling node reports
        node = self.last
        while node is not None:
            self._last_index_probe(index, node, matches)
            index = self._dec(index)
            rec = self.store.record(node)
            if matches(rec.item):
                return index
            node = rec.prev
        return -1

    def _last_index_probe(self, index: int, node: NodeId, matches: Callable[[Item], bool]) -> None:
        """Loop invariant of the backward search, checked at the head of
        each iteration: the counter stays in [1, size], the current node
        is the ghost entry at index-1, and nothing at or beyond ``index``
        matched. Only position ``index`` needs testing: at the first head
        index >= size - 1, so nothing lies above it, and each later head
        follows a passing head one position higher whose node did not
        match; the search writes nothing, so size, ghost and items stay."""
        nl = self.ghost
        violations = []
        if not 1 <= index <= self.size:
            violations.append(("probe", f"index {index} outside [1, {self.size}]"))
        elif index - 1 >= len(nl) or nl[index - 1] != node:
            violations.append(("probe", f"node {node} is not nodeList[{index - 1}]"))
        elif index < min(self.size, len(nl)) and matches(self.store.item(nl[index])):
            violations.append(("probe", f"unreported match at position {index}"))
        if violations:
            raise ContractViolation("last_index_of.loop", violations)

    def contains(self, target: Item) -> bool:
        return self.index_of(target) != -1

    def remove_item(self, target: Item) -> bool:
        return self.remove_first_occurrence(target)

    def remove_first_occurrence(self, target: Item) -> bool:
        _, node = self.store.find(self.first, item_test(target))
        if node is None:
            return False
        self.unlink(node)
        return True

    def remove_last_occurrence(self, target: Item) -> bool:
        _, node = self.store.find(self.last, item_test(target), "prev")
        if node is None:
            return False
        self.unlink(node)
        return True

    def clear(self) -> None:
        """Unlink every node, clearing its fields; the nodes stay allocated."""
        clear_node = self.store.clear_node
        probed = self.check_mode is CheckMode.FULL
        node = self.first
        ghost_pos = 0
        while node is not None:
            if probed:
                self._clear_probe(node, ghost_pos)
            node = clear_node(node)
            ghost_pos += 1
        self.first = None
        self.last = None
        self.size = 0
        self.ghost.clear()

    def _clear_probe(self, node: NodeId, ghost_pos: int) -> None:
        """Loop invariant of clear(): everything before the ghost index is
        already cleared and the current node is the ghost entry there
        (i.e. the successor of the previous iteration's node). Only
        position ghost_pos-1 needs testing: each head follows a passing
        head that vouched for the positions before it, and the loop
        writes only nulls, into the node it clears; size and ghost stay."""
        nl = self.ghost
        violations = []
        if ghost_pos >= len(nl) or nl[ghost_pos] != node:
            violations.append(("probe", f"node {node} is not nodeList[{ghost_pos}]"))
        p = ghost_pos - 1
        if 0 <= p < len(nl):
            rec = self.store.record(nl[p])
            if rec.prev is not None or rec.next is not None or not isinstance(rec.item, NullItem):
                violations.append(("probe", f"nodeList[{p}] not cleared"))
        if violations:
            raise ContractViolation("clear.loop", violations)

    def to_array(self) -> tuple[Item, ...]:
        size = self.size
        if size < 0:
            raise NegativeArraySizeError(f"size {size}")
        out = tuple(islice(self.store.walk(self.first), size))
        if len(out) < size:
            # the cached size promised more nodes than the links reach
            raise DanglingLink(None)
        return out

    # -- deque surface (chain-based, no index arithmetic) ---------------------

    def add_first(self, item: Item) -> None:
        self.link_first(item)

    def add_last(self, item: Item) -> None:
        self.link_last(item)

    def get_first(self) -> Item:
        if self.first is None:
            raise NoSuchElementError("list is empty")
        return self.store.item(self.first)

    def get_last(self) -> Item:
        if self.last is None:
            raise NoSuchElementError("list is empty")
        return self.store.item(self.last)

    def peek_first(self) -> Item | None:
        return None if self.first is None else self.store.item(self.first)

    def peek_last(self) -> Item | None:
        return None if self.last is None else self.store.item(self.last)

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
OPS = {name: getattr(JavaLinkedList, spec.method or name) for name, spec in OP_SPECS.items()}


def apply_op(lst: JavaLinkedList, op: str, args: tuple = ()):
    if op not in OPS:
        raise UsageError(f"unknown operation {op!r}")
    return OPS[op](lst, *args)
