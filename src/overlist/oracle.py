"""The operation table and the unbounded reference model of the
documented list semantics.

``OP_SPECS`` holds one ``OpSpec`` row per public list operation, which
states its contract once: the documented rule that ``oracle_apply`` runs
and the edit its ``assignable`` clause permits, from which
``OpSpec.footprint`` derives the frame, beside its argument shape, Java
interface, census probes and implementing method. ``listcore.OPS`` is
derived from the rows.

The abstract state is a plain item sequence of true (unbounded) length,
standing in for the actual chain contents; a width is carried only to
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
from typing import Callable, NamedTuple

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
    """Documented-semantics list state: the true item sequence."""

    items: tuple[Item, ...]
    width: int
    bounded: bool = True

    @property
    def max_size(self) -> int:
        return (1 << (self.width - 1)) - 1


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
# the resulting state. A query or an error outcome returns ``a`` itself,
# so a caller can tell that nothing was copied.


def _at_capacity(a: AbstractList) -> bool:
    """Whether the bounded contract refuses a size-increasing call."""
    return a.bounded and len(a.items) >= a.max_size


def _size(a, args):
    return value(min(len(a.items), a.max_size)), a


def _is_max_size(a, args):
    return (_TRUE if len(a.items) >= a.max_size else _FALSE), a


def _check_size(a, args):
    return (_ILLEGAL_STATE if len(a.items) >= a.max_size else _NONE), a


def _get(a, args):
    (i,) = args
    items = a.items
    if not 0 <= i < len(items):
        return _OUT_OF_BOUNDS, a
    return value(items[i]), a


def _set_at(a, args):
    i, x = args
    items = a.items
    if not 0 <= i < len(items):
        return _OUT_OF_BOUNDS, a
    return value(items[i]), AbstractList(items[:i] + (x,) + items[i + 1 :], a.width, a.bounded)


def _add_at(a, args):
    i, x = args
    items = a.items
    if not 0 <= i <= len(items):
        return _OUT_OF_BOUNDS, a
    if _at_capacity(a):
        return _ILLEGAL_STATE, a
    return _NONE, AbstractList(items[:i] + (x,) + items[i:], a.width, a.bounded)


def _remove_at(a, args):
    (i,) = args
    items = a.items
    if not 0 <= i < len(items):
        return _OUT_OF_BOUNDS, a
    return value(items[i]), AbstractList(items[:i] + items[i + 1 :], a.width, a.bounded)


def _add(a, args):
    (x,) = args
    if _at_capacity(a):
        return _ILLEGAL_STATE, a
    return _TRUE, AbstractList(a.items + (x,), a.width, a.bounded)


def _add_last(a, args):
    (x,) = args
    if _at_capacity(a):
        return _ILLEGAL_STATE, a
    return _NONE, AbstractList(a.items + (x,), a.width, a.bounded)


def _add_first(a, args):
    (x,) = args
    if _at_capacity(a):
        return _ILLEGAL_STATE, a
    return _NONE, AbstractList((x,) + a.items, a.width, a.bounded)


def _search(find):
    """The rule of a search answering ``find``'s position, -1 for none;
    a position past the maximum size is Unspecified."""

    def rule(a, args):
        (x,) = args
        p = find(a.items, x)
        if p is None:
            return _MINUS_ONE, a
        return (value(p) if p <= a.max_size else UNSPECIFIED), a

    return rule


def _contains(a, args):
    (x,) = args
    return (_FALSE if first_index(a.items, x) is None else _TRUE), a


def _remove_occurrence(find):
    """The rule that removes the element at ``find``'s position."""

    def rule(a, args):
        (x,) = args
        items = a.items
        p = find(items, x)
        if p is None:
            return _FALSE, a
        return _TRUE, AbstractList(items[:p] + items[p + 1 :], a.width, a.bounded)

    return rule


def _clear(a, args):
    return _NONE, AbstractList((), a.width, a.bounded)


def _to_array(a, args):
    if len(a.items) > a.max_size:
        return UNSPECIFIED, a
    return value(a.items), a


def _read_end(end: int, empty: Verdict):
    """The rule answering the item at ``end``, or ``empty`` on an empty list."""

    def rule(a, args):
        items = a.items
        return (value(items[end]) if items else empty), a

    return rule


def _take_end(end: int, rest: slice, empty: Verdict):
    """The rule that removes and answers the item at ``end``, leaving
    ``items[rest]``; ``empty`` on an empty list."""

    def rule(a, args):
        items = a.items
        if not items:
            return empty, a
        return value(items[end]), AbstractList(items[rest], a.width, a.bounded)

    return rule


# ---------------------------------------------------------------------------
# frames: the locations a call may modify, the executable form of its
# ``assignable`` clause


@dataclass(frozen=True)
class Footprint:
    """Locations an operation is allowed to modify."""

    node_fields: frozenset[tuple[NodeId, str]] = frozenset()
    header_fields: frozenset[str] = frozenset()
    ghost: bool = False
    fresh: bool = False


EMPTY_FOOTPRINT = Footprint()


def _insertion_footprint(ids, p: int) -> Footprint:
    """A fresh node linked in at position ``p`` of the chain ``ids``."""
    nodes = set()
    header = {"size"}
    if p > 0:
        nodes.add((ids[p - 1], "next"))
    else:
        header.add("first")
    if p < len(ids):
        nodes.add((ids[p], "prev"))
    else:
        header.add("last")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _removal_footprint(ids, p: int) -> Footprint:
    """The node at position ``p`` of the chain ``ids`` unlinked and cleared."""
    x = ids[p]
    nodes = {(x, "prev"), (x, "item"), (x, "next")}
    header = {"size"}
    if p > 0:
        nodes.add((ids[p - 1], "next"))
    else:
        header.add("first")
    if p < len(ids) - 1:
        nodes.add((ids[p + 1], "prev"))
    else:
        header.add("last")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True)


# ---------------------------------------------------------------------------
# the operation table: one ``OpSpec`` row per public list operation

#: argument kinds; a shape is the tuple of kinds in call order
INDEX = "index"
ITEM = "item"

#: edit kinds: what a mutating call does to the chain, at the position
#: its row's ``at(pre, args)`` names (None: the call edits nothing)
INSERT, REMOVE, REPLACE, CLEAR = "insert", "remove", "replace", "clear"

#: argument alphabet: small enough to enumerate, rich enough to exercise
#: both equality branches plus a distinguished marker element
MARKER = Atom("marker")
ALPHABET: tuple[Item, ...] = (NULL, Atom("a"), Atom("b"), MARKER)


# Positions ``at(pre, args)``: where in the chain the call edits, or None
# where it edits nothing (an index out of range, no match, an empty list).


def _front(pre, args):
    return 0


def _back(pre, args):
    return len(pre.ghost)


def _slot(pre, args):
    i = args[0]
    return i if 0 <= i <= len(pre.ghost) else None


def _index(pre, args):
    i = args[0]
    return i if 0 <= i < len(pre.ghost) else None


def _first_node(pre, args):
    return 0 if pre.ghost else None


def _last_node(pre, args):
    return len(pre.ghost) - 1 if pre.ghost else None


def _first_match(pre, args):
    return first_index(pre.items, args[0])


def _last_match(pre, args):
    return last_index(pre.items, args[0])


@dataclass(frozen=True, slots=True)
class OpSpec:
    """An operation's contract: its documented ``rule(a, args)``, and the
    edit its ``assignable`` clause permits, as a kind and a position
    function ``at(pre, args)`` (None where the call edits nothing)."""

    name: str
    args: tuple[str, ...]  # argument kinds: INDEX / ITEM
    interface: str | None  # "List", "Deque", or None for the capacity helpers
    probes: tuple[tuple, ...]  # census argument tuples; empty = not censused
    rule: Callable  # (a, args) -> (verdict, state)
    edit: str | None = None  # INSERT | REMOVE | REPLACE | CLEAR; None for a query
    at: Callable | None = None  # (pre, args) -> position or None
    method: str | None = None  # the JavaLinkedList method, when not ``name``

    @property
    def mutating(self) -> bool:
        return self.edit is not None

    @property
    def equality_branches(self) -> bool:
        """Element searches: the contract has one branch for a null
        argument (identity test) and one for a non-null one (equals)."""
        return self.args == (ITEM,) and self.edit != INSERT

    def footprint(self, pre, args) -> Footprint:
        """The locations the call may modify."""
        edit = self.edit
        if edit is None:
            return EMPTY_FOOTPRINT
        ids = pre.ghost
        if edit == CLEAR:
            nodes = {(nid, f) for nid in ids for f in ("prev", "item", "next")}
            return Footprint(frozenset(nodes), frozenset({"first", "last", "size"}), ghost=True)
        p = self.at(pre, args)
        if p is None:
            return EMPTY_FOOTPRINT
        if edit == INSERT:
            return _insertion_footprint(ids, p)
        if edit == REMOVE:
            return _removal_footprint(ids, p)
        return Footprint(frozenset({(ids[p], "item")}))


_A = (Atom("a"),)
_AT_0 = ((0, Atom("a")),)
_SEARCH = ((NULL,), (MARKER,))
_CALL = ((),)

OP_SPECS: dict[str, OpSpec] = {
    row.name: row
    for row in (
        OpSpec("add", (ITEM,), "List", (_A,), _add, INSERT, _back),
        OpSpec("add_first", (ITEM,), "Deque", (_A,), _add_first, INSERT, _front),
        OpSpec("add_last", (ITEM,), "Deque", (_A,), _add_last, INSERT, _back),
        OpSpec("get", (INDEX,), "List", ((0,),), _get),
        OpSpec("set_at", (INDEX, ITEM), "List", _AT_0, _set_at, REPLACE, _index),
        OpSpec("add_at", (INDEX, ITEM), "List", _AT_0, _add_at, INSERT, _slot),
        OpSpec("remove_at", (INDEX,), "List", ((0,),), _remove_at, REMOVE, _index),
        OpSpec("index_of", (ITEM,), "List", _SEARCH, _search(first_index)),
        OpSpec("last_index_of", (ITEM,), "List", _SEARCH, _search(last_index)),
        OpSpec("contains", (ITEM,), "List", _SEARCH, _contains),
        # Java's List.remove(Object)
        OpSpec("remove_item", (ITEM,), "List", _SEARCH,
               _remove_occurrence(first_index), REMOVE, _first_match),
        OpSpec("remove_first_occurrence", (ITEM,), "List", ((NULL,),),
               _remove_occurrence(first_index), REMOVE, _first_match),
        OpSpec("remove_last_occurrence", (ITEM,), "List", ((NULL,),),
               _remove_occurrence(last_index), REMOVE, _last_match),
        OpSpec("clear", (), "List", _CALL, _clear, CLEAR),
        OpSpec("to_array", (), "List", _CALL, _to_array),
        OpSpec("size", (), "List", _CALL, _size, method="size_field"),
        OpSpec("is_max_size", (), None, (), _is_max_size),
        OpSpec("check_size", (), None, (), _check_size),
        OpSpec("get_first", (), "Deque", _CALL, _read_end(0, _NO_SUCH_ELEMENT)),
        OpSpec("get_last", (), "Deque", _CALL, _read_end(-1, _NO_SUCH_ELEMENT)),
        OpSpec("peek_first", (), "Deque", _CALL, _read_end(0, _NONE)),
        OpSpec("peek_last", (), "Deque", _CALL, _read_end(-1, _NONE)),
        OpSpec("poll_first", (), "Deque", _CALL,
               _take_end(0, slice(1, None), _NONE), REMOVE, _first_node),
        OpSpec("poll_last", (), "Deque", _CALL,
               _take_end(-1, slice(None, -1), _NONE), REMOVE, _last_node),
        OpSpec("remove_first", (), "Deque", _CALL,
               _take_end(0, slice(1, None), _NO_SUCH_ELEMENT), REMOVE, _first_node),
        OpSpec("remove_last", (), "Deque", _CALL,
               _take_end(-1, slice(None, -1), _NO_SUCH_ELEMENT), REMOVE, _last_node),
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


def oracle_apply(a: AbstractList, op: str, args: tuple) -> tuple[Verdict, AbstractList]:
    """Documented behavior of ``op`` on the abstract state.

    Returns the verdict and the resulting abstract state (``a`` itself
    for queries and for error outcomes)."""
    try:
        rule = OP_SPECS[op].rule
    except (KeyError, TypeError):
        raise UsageError(f"unknown operation {op!r}") from None
    return rule(a, args)


def oracle_add_all(a: AbstractList, items) -> AbstractList:
    """The state that ``add(x)`` for each ``x`` of ``items`` in turn leads
    to, built in one step: unbounded, every add appends; bounded, the
    adds stop at ``max_size`` and each further one is refused, changing
    nothing."""
    new = tuple(items)
    if a.bounded:
        new = new[: max(0, a.max_size - len(a.items))]
    return AbstractList(a.items + new, a.width, a.bounded)


def observe_equal(impl: tuple[str, object], verdict: Verdict) -> str:
    """Compare an implementation outcome against an oracle verdict.

    ``impl`` is ("value", v) or ("error", kind), as ``run_op`` gives it;
    the values are compared as they are. Returns "agree",
    "disagree" or "skipped" (the latter exactly when the verdict is
    Unspecified)."""
    if verdict.kind == "unspecified":
        return "skipped"
    tag, payload = impl
    if tag == "value" and verdict.kind == "value":
        return "agree" if payload == verdict.value else "disagree"
    if tag == "error" and verdict.kind == "error":
        return "agree" if payload == verdict.error else "disagree"
    return "disagree"
