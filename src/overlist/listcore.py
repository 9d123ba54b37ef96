"""The linked list under test, width-parametric, in two policies.

``UNCHECKED`` reproduces the OpenJDK semantics faithfully, including the
size-field overflow; ``FAIL_FAST`` is the bounded variant that refuses
any size-increasing operation at capacity with an IllegalState error,
before touching the list. One code path serves both: the fix only adds a
capacity check on the size-increasing entry points.

A ghost sequence of node ids (the list ``ghost``) shadows the chain for
the specification layer. Ghost bookkeeping locates nodes by identity, so it
stays equal to the actual chain even when the cached size has wrapped.
Production logic never reads it. As JML's ghost ``set`` statements sit in
the methods that link and unlink, the methods that write the ghost record
each edit in a ghost log while a savepoint is open (``open_savepoint``):
a trial undoes the logged edits, and the exit check reads a call's edit
from the log instead of comparing whole ghosts.

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
from .oracle import OP_SPECS, undo_edits


class SizePolicy(Enum):
    UNCHECKED = "unchecked"
    FAIL_FAST = "failfast"


class CheckMode(Enum):
    """A run's checks (``run_script``, the CLI); ``FULL`` gives its list ``probes``."""

    OFF = "off"
    INVARIANT = "invariant"
    FULL = "full"


def require_member(enum: type[Enum], value, name: str) -> None:
    """Policies and check modes are compared by identity, so any value
    that is not a member of its enum (its string value, say) is a
    UsageError rather than silently read as some other member."""
    if not isinstance(value, enum):
        raise UsageError(f"{name} must be a {enum.__name__}, got {value!r}")


#: ``JavaLinkedList.take`` of a call that wrote nothing: no journal entry, fresh id or ghost edit
UNWRITTEN = (((), range(0)), ())

#: injectable faults for mutation-sensitivity experiments
FAULTS = (
    "unlink-skip-relink",  # drop the neighbor pointer updates in unlink
    "add-skip-checksize",  # FailFast adds skip the capacity check
    "lastindexof-off-by-one",  # backward search starts one position low
)


class JavaLinkedList:
    """Doubly linked list with a W-bit cached size field. It checks no
    invariant itself (``run_script`` and ``run_checked`` do); with
    ``probes`` it checks the loop invariants of ``last_index_of`` and
    ``clear``, the only specification inside Java's code."""

    # so that writing a misspelt or retired attribute raises AttributeError
    __slots__ = ("width", "max_size", "min_size", "_at_capacity", "policy", "probes", "faults",
                 "guards_growth", "store", "first", "last", "size", "ghost", "_ghost_log",
                 "_savepoints", "carried")

    def __init__(
        self,
        width: int = 8,
        policy: SizePolicy = SizePolicy.FAIL_FAST,
        probes: bool = False,
        faults: frozenset[str] = frozenset(),
    ):
        require_member(SizePolicy, policy, "policy")
        # a CheckMode member is truthy whichever it is, so only a bool will do
        if type(probes) is not bool:
            raise UsageError(f"probes must be a bool, got {probes!r}")
        unknown = set(faults) - set(FAULTS)
        if unknown:
            raise UsageError(f"unknown faults {sorted(unknown)}")
        if policy is SizePolicy.UNCHECKED and probes:
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
        self.probes = probes
        self.faults = frozenset(faults)
        # whether the size-increasing entry points refuse growth at capacity
        self.guards_growth = policy is SizePolicy.FAIL_FAST and "add-skip-checksize" not in faults
        self.store = NodeStore()
        self.first: NodeId | None = None
        self.last: NodeId | None = None
        self.size = 0  # a Java int: kept in [min_size, max_size]
        self.ghost: list[NodeId] = []  # specification-only: the chain's node ids
        # the ghost's logged edits while a savepoint is open, else None
        self._ghost_log: list | None = None
        self._savepoints = 0  # open savepoints
        self.carried: list | None = None  # the open savepoint's mark, if ``carry`` opened it

    # -- savepoints ---------------------------------------------------------
    # A savepoint is the store's, with the ghost log beside it. Each ghost
    # write is logged by the method that makes it: ``link_last``,
    # ``link_first``, ``link_before``, ``unlink``, ``clear``,
    # ``fast_forward`` and the door ``replace_ghost``. The header is not
    # logged; the mark keeps it for a rollback.

    def open_savepoint(self) -> list:
        """Open a store savepoint and the ghost log beside it; return its
        mark: the store's mark, the log's length and the header
        ``(first, last, size)`` at this point. Savepoints nest; only the
        innermost open one can be closed or rolled back."""
        if self._ghost_log is None:
            self._ghost_log = []
        mark = [self.store.open_journal(), len(self._ghost_log), (self.first, self.last, self.size)]
        self._savepoints += 1
        return mark

    def carry(self) -> None:
        """Open the savepoint of a run of calls that carries the
        invariant (JML's visible-state semantics), as the only one open:
        its mark is ``carried``, and each call takes its writes out."""
        self.carried = self.open_savepoint()

    def take(self) -> tuple[tuple, list]:
        """``close_savepoint`` of the carried savepoint, which opens
        again at this point with the same mark. When nothing was
        journaled, allocated or logged since the mark and the header is
        the one the mark keeps, the savepoint stays where it is and the
        result is ``UNWRITTEN``, allocating nothing."""
        journal, edits = self.store.take(self.carried[0]), self._ghost_log
        if journal is None:
            if not edits and (self.first, self.last, self.size) == self.carried[2]:
                return UNWRITTEN
            journal = UNWRITTEN[0]
        self._ghost_log, self.carried[2] = [], (self.first, self.last, self.size)
        return journal, edits

    def close_savepoint(self, mark) -> tuple[tuple, list]:
        """Close the savepoint ``mark``, keeping its writes. Returns the
        store's closed journal and the ghost edits logged since it opened,
        oldest first; an enclosing savepoint still holds both."""
        journal = self.store.close_journal(mark[0])
        edits = self._ghost_log
        self._savepoints -= 1
        if self._savepoints:
            edits = edits[mark[1]:]
        else:  # the outermost savepoint's log is all its own
            self._ghost_log = self.carried = None
        return journal, edits

    def rollback(self, mark) -> None:
        """Close the savepoint ``mark`` and put the list back as it was
        when it opened: node fields, allocation counter, header and
        ghost, at a cost proportional to what was written since."""
        store_mark, start, header = mark
        self.store.rollback(store_mark)
        log = self._ghost_log
        self.ghost = undo_edits(self.ghost, log[start:])
        del log[start:]
        self.first, self.last, self.size = header
        self._savepoints -= 1
        if not self._savepoints:
            self._ghost_log = self.carried = None

    def replace_ghost(self, ids) -> None:
        """Make the ghost a copy of the sequence ``ids``, logged as a
        whole-ghost replace: the one door through which code outside the
        list's own methods (``statespace``'s corruptions, tests) writes
        the ghost. A trial undoes it; a checked call that went through it
        is judged by the full invariant check."""
        if self._ghost_log is not None:
            self._ghost_log.append((None, 0, self.ghost))
        self.ghost = list(ids)

    # -- harness helpers ----------------------------------------------------

    @contextmanager
    def trial(self):
        """Run the ``with`` body on this list, then put the list back as
        it was: node fields, allocation counter, header and ghost. The
        savepoint undoes only what the body wrote and copies nothing, so
        trials nest and checked calls may run inside one."""
        mark = self.open_savepoint()
        try:
            yield
        finally:
            self.rollback(mark)

    def fast_forward(self, items) -> int | None:
        """Leave the list as ``add(x)`` for each ``x`` of the sequence
        ``items`` in turn would, without calling ``add``: nodes, header,
        size and ghost. Returns the 1-based number of the first add that
        would be refused, or None. A list that guards growth takes the
        first ``max_size - size`` items and refuses the rest, each refusal
        changing nothing; any other list takes them all, its size
        wrapping as Java's int does. Preparation only: the overflow's
        reproduction runs the real adds."""
        first_refusal = None
        if self.guards_growth:
            room = self.max_size - self.size
            if len(items) > room:
                items, first_refusal = items[:room], room + 1
        ids = self.store.link_run(self.last, items)
        if ids:
            if self.last is None:
                self.first = ids[0]
            self.last = ids[-1]
            self.size = wrap(self.size + len(ids), self.width)
            if self._ghost_log is not None:
                self._ghost_log.append((len(ids), len(self.ghost), ids[0]))
            self.ghost += ids
        return first_refusal

    def chain(self) -> list[NodeId]:
        """Actual chain by walking next links; its length is the actual size."""
        return walk_chain(self.store, self.first)

    def items(self) -> list[Item]:
        return self.store.items(self.chain())

    # -- capacity -----------------------------------------------------------

    def is_max_size(self) -> bool:
        return self.size == self.max_size

    def check_size(self) -> None:
        if self.size == self.max_size:
            raise IllegalStateError(self._at_capacity)

    def _dec(self, n: int) -> int:
        """``n - 1`` as a W-bit Java int: MIN - 1 wraps to MAX."""
        return self.max_size if n == self.min_size else n - 1

    # -- linking ------------------------------------------------------------
    # Each size-increasing entry point guards growth and steps the size
    # inline, and links its node with one store call (link_before first
    # reads its successor's prev). add is link_last, as the JDK's add(e) is
    # linkLast(e); return true: an accepted add makes two Python calls,
    # link_last and NodeStore.link, and a refusal two frames, link_last and
    # check_size, which runs only at capacity and raises it (FailFast). Each
    # ghost write is logged, while a savepoint is open, as (delta, position,
    # node): 1 for the node inserted at the position, -1 for the one removed.

    def link_last(self, item: Item) -> bool:
        size = self.size
        if size == self.max_size and self.guards_growth:
            self.check_size()
        old_last = self.last
        node = self.store.link(old_last, item, None)
        self.last = node
        if old_last is None:
            self.first = node
        self.size = self.min_size if size == self.max_size else size + 1
        ghost = self.ghost
        if self._ghost_log is not None:
            self._ghost_log.append((1, len(ghost), node))
        ghost.append(node)
        return True

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
        if self._ghost_log is not None:
            self._ghost_log.append((1, 0, node))
        self.ghost.insert(0, node)

    def link_before(self, item: Item, succ: NodeId, succ_index: int | None = None) -> None:
        """Splice a new node in front of ``succ``. ``succ_index`` is the
        ghost position of ``succ``, when the caller knows it."""
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
        if succ_index is None or not (0 <= succ_index < len(nl) and nl[succ_index] == succ):
            # identity scan, as in unlink; only a miss needs a fault or a
            # state written from outside the list's methods
            try:
                succ_index = nl.index(succ)
            except ValueError:
                return
        if self._ghost_log is not None:
            self._ghost_log.append((1, succ_index, node))
        nl.insert(succ_index, node)

    def unlink(self, x: NodeId, x_index: int | None = None) -> Item:
        """Remove node ``x`` from the chain, clearing its fields; returns
        the removed item. ``x_index`` is the ghost position of ``x``, when
        the caller knows it. The ghost is scanned for ``x`` only when no
        position holding it is given."""
        if x not in self.store:
            raise UsageError(f"node {x} not allocated")
        nl = self.ghost
        at_index = x_index is not None and 0 <= x_index < len(nl) and nl[x_index] == x
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
        if not at_index:
            # identity scan, which runs with no fault: a wrapped size walks to
            # other ghost positions (at width 8, 258 adds leave size 2, and
            # remove_at(1) unlinks position 257); only a miss needs a fault
            # or a state written from outside the list's methods
            try:
                x_index = nl.index(x)
            except ValueError:
                return item
        if self._ghost_log is not None:
            self._ghost_log.append((-1, x_index, x))
        del nl[x_index]
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
            self.link_before(item, self.node_at(index), index)

    def remove_at(self, index: int) -> Item:
        self._check_element_index(index)
        return self.unlink(self.node_at(index), index)

    # -- collection surface -------------------------------------------------

    add = link_last

    def size_field(self) -> int:
        """The raw cached size in both policies; the oracle clamps it."""
        return self.size

    # The element searches follow the chain with the store's ``find``, which
    # makes no Python call per node: it compares items with ``==``, which is
    # items_equal on items, in C. Java steps an int counter once per
    # node, wrapping at the ends of the int range, so the counter is
    # computed from the number of nodes passed: ``wrap(k)`` after k nodes
    # forward, ``wrap(start - k - 1)`` at the (k+1)-th node backward.

    def index_of(self, target: Item) -> int:
        steps, node = self.store.find(self.first, target)
        return -1 if node is None else wrap(steps, self.width)

    def last_index_of(self, target: Item) -> int:
        index = self.size
        if "lastindexof-off-by-one" in self.faults:
            index = self._dec(index)
        if not self.probes:
            steps, node = self.store.find(self.last, target, "prev")
            return -1 if node is None else wrap(index - steps - 1, self.width)
        # checked: Java's loop, with its invariant probed at each head,
        # before the node is read, so a probe of a dangling node reports
        matches = item_test(target)
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

    def remove_first_occurrence(self, target: Item) -> bool:
        steps, node = self.store.find(self.first, target)
        if node is None:
            return False
        self.unlink(node, steps)
        return True

    remove_item = remove_first_occurrence

    def remove_last_occurrence(self, target: Item) -> bool:
        steps, node = self.store.find(self.last, target, "prev")
        if node is None:
            return False
        self.unlink(node, len(self.ghost) - 1 - steps)
        return True

    def clear(self) -> None:
        """Unlink every node, clearing its fields; the nodes stay allocated."""
        self.store.clear_chain(self.first, self._clear_probe if self.probes else None)
        self.first = None
        self.last = None
        self.size = 0
        # a new ghost, so the log keeps the old one whole without a copy
        if self._ghost_log is not None:
            self._ghost_log.append((None, 0, self.ghost))
        self.ghost = []

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

    add_first = link_first

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

    remove_first = unlink_first
    remove_last = unlink_last


new_list = JavaLinkedList  # the constructor under its older name


#: public operations addressable by name in scripts, contracts and reports
OPS = {name: getattr(JavaLinkedList, spec.method or name) for name, spec in OP_SPECS.items()}


def apply_op(lst: JavaLinkedList, op: str, args: tuple = ()):
    if op not in OPS:
        raise UsageError(f"unknown operation {op!r}")
    return OPS[op](lst, *args)
