"""Unbounded reference model of the documented list semantics.

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

from itertools import compress, count
from typing import NamedTuple

from .errors import UsageError
from .heapmodel import Item, item_test
from .jint import JInt


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


def normalize(v):
    """Map implementation results into the oracle's answer domain."""
    if isinstance(v, JInt):
        return v.value
    if isinstance(v, list):
        return tuple(v)
    return v


# The searches run ``item_test(target)`` over the items at C level; the
# last one reads the sequence backwards in place, copying nothing.

def first_index(items, target):
    """Position of the first element ``items_equal`` to ``target``, or None."""
    return next(compress(count(), map(item_test(target), items)), None)


def last_index(items, target):
    """Position of the last element ``items_equal`` to ``target``, or None."""
    hits = compress(count(len(items) - 1, -1), map(item_test(target), reversed(items)))
    return next(hits, None)


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


_RULES = {
    "size": _size,
    "is_max_size": _is_max_size,
    "check_size": _check_size,
    "get": _get,
    "set_at": _set_at,
    "add_at": _add_at,
    "remove_at": _remove_at,
    "add": _add,
    "add_last": _add_last,
    "add_first": _add_first,
    "index_of": _search(first_index),
    "last_index_of": _search(last_index),
    "contains": _contains,
    "remove_item": _remove_occurrence(first_index),
    "remove_first_occurrence": _remove_occurrence(first_index),
    "remove_last_occurrence": _remove_occurrence(last_index),
    "clear": _clear,
    "to_array": _to_array,
    "get_first": _read_end(0, _NO_SUCH_ELEMENT),
    "get_last": _read_end(-1, _NO_SUCH_ELEMENT),
    "peek_first": _read_end(0, _NONE),
    "peek_last": _read_end(-1, _NONE),
    "poll_first": _take_end(0, slice(1, None), _NONE),
    "poll_last": _take_end(-1, slice(None, -1), _NONE),
    "remove_first": _take_end(0, slice(1, None), _NO_SUCH_ELEMENT),
    "remove_last": _take_end(-1, slice(None, -1), _NO_SUCH_ELEMENT),
}


def oracle_apply(a: AbstractList, op: str, args: tuple) -> tuple[Verdict, AbstractList]:
    """Documented behavior of ``op`` on the abstract state.

    Returns the verdict and the resulting abstract state (``a`` itself
    for queries and for error outcomes)."""
    try:
        rule = _RULES[op]
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

    ``impl`` is ("value", v) or ("error", kind), with ``v`` already in
    the answer domain (passed through ``normalize``), as oracle values
    are; the values are compared as they are. Returns "agree",
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
