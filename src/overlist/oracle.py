"""The operation table and the unbounded reference model of the
documented list semantics.

``OP_SPECS`` holds one ``OpSpec`` row per public list operation, which
states its contract once: the documented rule that ``oracle_apply`` runs
and the edit its ``assignable`` clause permits, from which
``OpSpec.footprint`` derives the frame, beside its argument shape, Java
interface, census probes and implementing method. ``listcore.OPS`` is
derived from the rows.

The oracle state (``ModelList``) is the item list of true (unbounded)
length, standing in for the actual chain contents, which the rules edit
in place and log while a savepoint is open; a width is carried only to
decide what the documented answers look like in a W-bit answer domain
(``size()`` clamps to the maximum, search indices past it are not
specifiable). Where the documentation genuinely assigns no meaning, the
verdict is ``Unspecified`` rather than a guess, and differential runs
skip those points.

Two comparison modes:

* ``bounded=True`` models the documented contract of the fail-fast
  variant, where any size-increasing call at capacity is an
  IllegalState error. Used against the FailFast implementation.
* ``bounded=False`` models the unbounded documentation, where adds
  always succeed. Used against the faithful (Unchecked) implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import indexOf
from typing import Callable, NamedTuple, Sequence

from .errors import UsageError
from .heapmodel import NULL, Atom, Item, NodeId


class Verdict(NamedTuple):
    kind: str  # "value" | "error" | "unspecified"
    value: object = None
    error: str | None = None

    def __repr__(self) -> str:
        if self.kind == "value":
            return f"Value({self.value!r})"
        if self.kind == "error":
            return f"Error({self.error})"
        return "Unspecified"


def value(v) -> Verdict:
    return Verdict("value", v)


def error(kind: str) -> Verdict:
    return Verdict("error", None, kind)


UNSPECIFIED = Verdict("unspecified")

# The fixed answers, built once and shared by every call that gives them.
_TRUE = value(True)
_FALSE = value(False)
_NONE = value(None)
_MINUS_ONE = value(-1)
_ILLEGAL_STATE = error("illegal_state")
_OUT_OF_BOUNDS = error("index_out_of_bounds")
_NO_SUCH_ELEMENT = error("no_such_element")


class AbstractList(NamedTuple):
    """Documented-semantics list state as a snapshot: the true item
    sequence as a tuple, as a run hands it out (``ModelList.snapshot``)."""

    items: tuple[Item, ...]
    width: int
    bounded: bool = True


class ModelList:
    """The oracle's state, the list's model value: the true item list,
    which the rules edit in place through ``insert``, ``remove``,
    ``replace`` and ``clear``, and a preparation through ``add_all``.
    While a savepoint is open, each edit is logged as the list logs its
    ghost's: ``(1, p, x)`` for ``x`` inserted at ``p``, ``(-1, p, x)`` for
    ``x`` removed from ``p``, ``(0, p, old)`` for ``old`` replaced,
    ``(k, p, None)`` for ``k`` items appended and ``(None, 0, old)`` for a
    clear, which leaves the old list to the log. ``undo`` reverts them."""

    __slots__ = ("items", "width", "bounded", "max_size", "_log")

    def __init__(self, items=(), width: int = 8, bounded: bool = True):
        self.items: list[Item] = list(items)
        self.width = width
        self.bounded = bounded
        self.max_size = (1 << (width - 1)) - 1
        self._log: list | None = None

    def snapshot(self) -> AbstractList:
        return AbstractList(tuple(self.items), self.width, self.bounded)

    def insert(self, p: int, x: Item) -> None:
        if self._log is not None:
            self._log.append((1, p, x))
        self.items.insert(p, x)

    def remove(self, p: int) -> Item:
        x = self.items.pop(p)
        if self._log is not None:
            self._log.append((-1, p, x))
        return x

    def replace(self, p: int, x: Item) -> Item:
        old = self.items[p]
        if self._log is not None:
            self._log.append((0, p, old))
        self.items[p] = x
        return old

    def add_all(self, items) -> None:
        """Leave the list as ``add(x)`` for each ``x`` of ``items`` in turn
        would, in one edit: unbounded, every add appends; bounded, the adds
        stop at ``max_size`` and each further one is refused."""
        new = tuple(items)
        if self.bounded:
            new = new[: max(0, self.max_size - len(self.items))]
        if new:
            if self._log is not None:
                self._log.append((len(new), len(self.items), None))
            self.items += new

    def clear(self) -> None:
        if self._log is not None:
            self._log.append((None, 0, self.items))
        self.items = []

    def open_savepoint(self) -> None:
        """Log the edits from here on; savepoints do not nest."""
        if self._log is not None:
            raise UsageError("an oracle savepoint is already open")
        self._log = []

    def close_savepoint(self) -> list:
        """Stop logging; return the edits logged since the savepoint
        opened, oldest first."""
        edits, self._log = self._log, None
        return edits

    def undo(self, edits: list) -> None:
        """Revert the logged ``edits``, newest first."""
        self.items = undo_edits(self.items, edits)


def undo_edits(seq: list, edits) -> list:
    """Revert the logged ``edits`` of the list ``seq``, newest first, in
    place, and return the result: the list itself, or the old list that
    the oldest whole-sequence entry kept. The format is ``ModelList``'s
    log, which the list under test's ghost log shares."""
    for delta, p, x in reversed(edits):
        if delta is None:
            seq = x
        elif delta < 0:
            seq.insert(p, x)
        elif delta:
            del seq[p : p + delta]
        else:
            seq[p] = x
    return seq


# The searches are the sequence's own C scans, comparing with ``==``. On
# the item domain, ``NullItem`` and ``Atom``, which are tuple subclasses
# equal by value, ``==`` is ``items_equal``: null equals only null, since
# it is the one empty item. The last search reads the sequence backwards
# in place, copying nothing.

def first_index(items, target):
    """Position of the first element ``items_equal`` to ``target``, or None."""
    try:
        return items.index(target)
    except ValueError:
        return None


def last_index(items, target):
    """Position of the last element ``items_equal`` to ``target``, or None."""
    try:
        return len(items) - 1 - indexOf(reversed(items), target)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# The rules, one per operation: ``rule(a, args)`` returns the verdict and
# edits the ``ModelList`` ``a`` in place. A query or an error outcome
# edits nothing.


def _size(a, args):
    return value(min(len(a.items), a.max_size))


def _is_max_size(a, args):
    return _TRUE if len(a.items) >= a.max_size else _FALSE


def _check_size(a, args):
    return _ILLEGAL_STATE if len(a.items) >= a.max_size else _NONE


def _get(a, args):
    (i,) = args
    if not 0 <= i < len(a.items):
        return _OUT_OF_BOUNDS
    return value(a.items[i])


def _set_at(a, args):
    i, x = args
    if not 0 <= i < len(a.items):
        return _OUT_OF_BOUNDS
    return value(a.replace(i, x))


def _insert(at, answer: Verdict):
    """The rule that inserts its last argument where ``at(a, args)``
    names, answering ``answer``: an index out of range where it names
    None, and a refusal where the bounded contract is at capacity. The
    rule keeps ``at`` as its attribute ``at``."""

    def rule(a, args):
        p = at(a, args)
        if p is None:
            return _OUT_OF_BOUNDS
        if a.bounded and len(a.items) >= a.max_size:
            return _ILLEGAL_STATE
        a.insert(p, args[-1])
        return answer

    rule.at = at
    return rule


def _remove_at(a, args):
    (i,) = args
    if not 0 <= i < len(a.items):
        return _OUT_OF_BOUNDS
    return value(a.remove(i))


def _search(find):
    """The rule of a search answering ``find``'s position, -1 for none;
    a position past the maximum size is Unspecified."""

    def rule(a, args):
        (x,) = args
        p = find(a.items, x)
        if p is None:
            return _MINUS_ONE
        return value(p) if p <= a.max_size else UNSPECIFIED

    return rule


def _contains(a, args):
    (x,) = args
    return _FALSE if first_index(a.items, x) is None else _TRUE


def _remove_occurrence(find):
    """The rule that removes the element at ``find``'s position."""

    def rule(a, args):
        (x,) = args
        p = find(a.items, x)
        if p is None:
            return _FALSE
        a.remove(p)
        return _TRUE

    return rule


def _clear(a, args):
    a.clear()
    return _NONE


def _to_array(a, args):
    if len(a.items) > a.max_size:
        return UNSPECIFIED
    return value(tuple(a.items))


def _read_end(end: int, empty: Verdict):
    """The rule answering the item at ``end``, or ``empty`` on an empty list."""

    def rule(a, args):
        return value(a.items[end]) if a.items else empty

    return rule


def _take_end(last: bool, empty: Verdict):
    """The rule that removes and answers the first or ``last`` item;
    ``empty`` on an empty list."""

    def rule(a, args):
        return value(a.remove(len(a.items) - 1 if last else 0)) if a.items else empty

    return rule


# ---------------------------------------------------------------------------
# frames: the locations a call may modify, the executable form of its
# ``assignable`` clause


class Footprint(NamedTuple):
    """Locations an operation is allowed to modify."""

    node_fields: frozenset[tuple[NodeId, str]] = frozenset()
    header_fields: frozenset[str] = frozenset()
    ghost: bool = False
    fresh: bool = False
    nodes: Sequence[NodeId] = ()  # every field of these nodes


EMPTY_FOOTPRINT = Footprint()

#: the header fields a splice may write, by whether it is at the front and the back
_HEADER = {(False, False): frozenset({"size"}), (True, False): frozenset({"first", "size"}),
           (False, True): frozenset({"last", "size"}),
           (True, True): frozenset({"first", "last", "size"})}


def splice_footprint(ids, p: int, removed: NodeId | None, after: bool = False) -> Footprint:
    """A fresh node linked in at position ``p`` of the chain ``ids``, or
    the node there unlinked and cleared (``removed``, its id). ``ids`` is
    the chain before the splice, or after it (``after``): the node past
    the site is at ``p`` before an insert or after a removal, and at
    ``p + 1`` otherwise."""
    fields = () if removed is None else ((removed, "prev"), (removed, "item"), (removed, "next"))
    succ = p + ((removed is None) == after)
    if p:
        fields += ((ids[p - 1], "next"),)
    if succ < len(ids):
        fields += ((ids[succ], "prev"),)
    # built in C: a NamedTuple's own __new__ runs in Python
    return tuple.__new__(Footprint, (frozenset(fields), _HEADER[not p, succ >= len(ids)], True,
                                     removed is None, ()))


# ---------------------------------------------------------------------------
# the operation table: one ``OpSpec`` row per public list operation

#: argument kinds; a shape is the tuple of kinds in call order
INDEX = "index"
ITEM = "item"

#: edit kinds: what a mutating call does to the chain, at the position of
#: the edit its row's rule logs (None: the call edits nothing)
INSERT, REMOVE, REPLACE, CLEAR = "insert", "remove", "replace", "clear"

#: argument alphabet: small enough to enumerate, rich enough to exercise
#: both equality branches plus a distinguished marker element
MARKER = Atom("marker")
ALPHABET: tuple[Item, ...] = (NULL, Atom("a"), Atom("b"), MARKER)


# Insert positions ``at(a, args)``: where in the list ``a`` an insert goes,
# or None for an index out of range. The rule inserts there, and a
# refused insert's footprint still names it.


def _front(a, args):
    return 0


def _back(a, args):
    return len(a.items)


def _slot(a, args):
    i = args[0]
    return i if 0 <= i <= len(a.items) else None


@dataclass(frozen=True, slots=True)
class OpSpec:
    """An operation's contract: its documented ``rule(a, args)``, and the
    edit its ``assignable`` clause permits, as a kind; an insert's rule
    also names its position function, ``rule.at(a, args)``."""

    name: str
    args: tuple[str, ...]  # argument kinds: INDEX / ITEM
    interface: str | None  # "List", "Deque", or None for the capacity helpers
    probes: tuple[tuple, ...]  # census argument tuples; empty = not censused
    rule: Callable  # (a, args) -> verdict, editing the ModelList a in place
    edit: str | None = None  # INSERT | REMOVE | REPLACE | CLEAR; None for a query
    method: str | None = None  # the JavaLinkedList method, when not ``name``

    @property
    def mutating(self) -> bool:
        return self.edit is not None

    @property
    def equality_branches(self) -> bool:
        """Element searches: the contract has one branch for a null
        argument (identity test) and one for a non-null one (equals)."""
        return self.args == (ITEM,) and self.edit != INSERT

    def footprint(self, ids, a: ModelList, args: tuple, edits: list) -> Footprint:
        """The locations the call may modify: ``ids`` are the chain's ids
        on entry, and the position is that of the edit the rule logged on
        ``a`` (``edits``), or for a refused insert where ``rule.at`` names."""
        edit = self.edit
        if edit is None:
            return EMPTY_FOOTPRINT
        if edit == CLEAR:
            return Footprint(header_fields=_HEADER[True, True], ghost=True, nodes=ids)
        p = edits[0][1] if edits else self.rule.at(a, args) if edit == INSERT else None
        if p is None:
            return EMPTY_FOOTPRINT
        if edit == REPLACE:
            return Footprint(frozenset({(ids[p], "item")}))
        return splice_footprint(ids, p, ids[p] if edit == REMOVE else None)


_A = (Atom("a"),)
_AT_0 = ((0, Atom("a")),)
_SEARCH = ((NULL,), (MARKER,))
_CALL = ((),)

OP_SPECS: dict[str, OpSpec] = {
    row.name: row
    for row in (
        OpSpec("add", (ITEM,), "List", (_A,), _insert(_back, _TRUE), INSERT),
        OpSpec("add_first", (ITEM,), "Deque", (_A,), _insert(_front, _NONE), INSERT),
        OpSpec("add_last", (ITEM,), "Deque", (_A,), _insert(_back, _NONE), INSERT),
        OpSpec("get", (INDEX,), "List", ((0,),), _get),
        OpSpec("set_at", (INDEX, ITEM), "List", _AT_0, _set_at, REPLACE),
        OpSpec("add_at", (INDEX, ITEM), "List", _AT_0, _insert(_slot, _NONE), INSERT),
        OpSpec("remove_at", (INDEX,), "List", ((0,),), _remove_at, REMOVE),
        OpSpec("index_of", (ITEM,), "List", _SEARCH, _search(first_index)),
        OpSpec("last_index_of", (ITEM,), "List", _SEARCH, _search(last_index)),
        OpSpec("contains", (ITEM,), "List", _SEARCH, _contains),
        # Java's List.remove(Object)
        OpSpec("remove_item", (ITEM,), "List", _SEARCH, _remove_occurrence(first_index), REMOVE),
        OpSpec("remove_first_occurrence", (ITEM,), "List", ((NULL,),),
               _remove_occurrence(first_index), REMOVE),
        OpSpec("remove_last_occurrence", (ITEM,), "List", ((NULL,),),
               _remove_occurrence(last_index), REMOVE),
        OpSpec("clear", (), "List", _CALL, _clear, CLEAR),
        OpSpec("to_array", (), "List", _CALL, _to_array),
        OpSpec("size", (), "List", _CALL, _size, method="size_field"),
        OpSpec("is_max_size", (), None, (), _is_max_size),
        OpSpec("check_size", (), None, (), _check_size),
        OpSpec("get_first", (), "Deque", _CALL, _read_end(0, _NO_SUCH_ELEMENT)),
        OpSpec("get_last", (), "Deque", _CALL, _read_end(-1, _NO_SUCH_ELEMENT)),
        OpSpec("peek_first", (), "Deque", _CALL, _read_end(0, _NONE)),
        OpSpec("peek_last", (), "Deque", _CALL, _read_end(-1, _NONE)),
        OpSpec("poll_first", (), "Deque", _CALL, _take_end(False, _NONE), REMOVE),
        OpSpec("poll_last", (), "Deque", _CALL, _take_end(True, _NONE), REMOVE),
        OpSpec("remove_first", (), "Deque", _CALL, _take_end(False, _NO_SUCH_ELEMENT), REMOVE),
        OpSpec("remove_last", (), "Deque", _CALL, _take_end(True, _NO_SUCH_ELEMENT), REMOVE),
    )
}


def spec_of(op: str) -> OpSpec:
    try:
        return OP_SPECS[op]
    except (KeyError, TypeError):
        raise UsageError(f"unknown operation {op!r}") from None


def check_call(op: str, args: tuple) -> OpSpec:
    """The row of a call's operation; a call with the wrong number of
    arguments is a UsageError, as an unknown operation is."""
    spec = spec_of(op)
    if len(args) != len(spec.args):
        raise UsageError(f"{op} takes {len(spec.args)} argument(s), got {args!r}")
    return spec


def oracle_apply(a: ModelList, op: str, args: tuple) -> tuple[Verdict, ModelList]:
    """Documented behavior of ``op`` on the oracle state ``a``, which the
    call edits in place: returns the verdict and ``a`` itself."""
    try:
        rule = OP_SPECS[op].rule
    except (KeyError, TypeError):
        raise UsageError(f"unknown operation {op!r}") from None
    return rule(a, args), a


def observe_equal(impl: tuple[str, object], verdict: Verdict) -> str:
    """Compare an implementation outcome against an oracle verdict.

    ``impl`` is ("value", v) or ("error", kind), as ``run_op`` gives it;
    the values are compared as they are. Returns "agree",
    "disagree" or "skipped" (the latter exactly when the verdict is
    Unspecified)."""
    kind = verdict.kind
    if kind == "unspecified":
        return "skipped"
    expected = (kind, verdict.value if kind == "value" else verdict.error)
    return "agree" if impl == expected else "disagree"
