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

from dataclasses import dataclass, replace

from .errors import UsageError
from .heapmodel import Item, items_equal
from .jint import JInt


@dataclass(frozen=True)
class Verdict:
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
    return Verdict("value", value=v)


def error(kind: str) -> Verdict:
    return Verdict("error", error=kind)


UNSPECIFIED = Verdict("unspecified")


@dataclass(frozen=True)
class AbstractList:
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


def first_index(items, target):
    for i, it in enumerate(items):
        if items_equal(target, it):
            return i
    return None


def last_index(items, target):
    for i in range(len(items) - 1, -1, -1):
        if items_equal(target, items[i]):
            return i
    return None


def oracle_apply(a: AbstractList, op: str, args: tuple) -> tuple[Verdict, AbstractList]:
    """Documented behavior of ``op`` on the abstract state.

    Returns the verdict and the resulting abstract state (unchanged for
    queries and for error outcomes)."""
    items = a.items
    n = len(items)
    cap = a.max_size

    def updated(new_items) -> AbstractList:
        return replace(a, items=tuple(new_items))

    def add_allowed() -> Verdict | None:
        if a.bounded and n >= cap:
            return error("illegal_state")
        return None

    if op == "size":
        return value(min(n, cap)), a
    if op == "is_max_size":
        return value(n >= cap), a
    if op == "check_size":
        if n >= cap:
            return error("illegal_state"), a
        return value(None), a
    if op == "get":
        (i,) = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), a
    if op == "set_at":
        i, x = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), updated(items[:i] + (x,) + items[i + 1 :])
    if op == "add_at":
        i, x = args
        if not 0 <= i <= n:
            return error("index_out_of_bounds"), a
        blocked = add_allowed()
        if blocked:
            return blocked, a
        return value(None), updated(items[:i] + (x,) + items[i:])
    if op == "remove_at":
        (i,) = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), updated(items[:i] + items[i + 1 :])
    if op in ("add", "add_last", "add_first"):
        (x,) = args
        blocked = add_allowed()
        if blocked:
            return blocked, a
        new = (x,) + items if op == "add_first" else items + (x,)
        return value(True if op == "add" else None), updated(new)
    if op == "index_of":
        (x,) = args
        p = first_index(items, x)
        if p is None:
            return value(-1), a
        return (value(p), a) if p <= cap else (UNSPECIFIED, a)
    if op == "last_index_of":
        (x,) = args
        p = last_index(items, x)
        if p is None:
            return value(-1), a
        return (value(p), a) if p <= cap else (UNSPECIFIED, a)
    if op == "contains":
        (x,) = args
        return value(first_index(items, x) is not None), a
    if op in ("remove_item", "remove_first_occurrence", "remove_last_occurrence"):
        (x,) = args
        find = last_index if op == "remove_last_occurrence" else first_index
        p = find(items, x)
        if p is None:
            return value(False), a
        return value(True), updated(items[:p] + items[p + 1 :])
    if op == "clear":
        return value(None), updated(())
    if op == "to_array":
        if n > cap:
            return UNSPECIFIED, a
        return value(items), a
    if op == "get_first":
        return (value(items[0]), a) if n else (error("no_such_element"), a)
    if op == "get_last":
        return (value(items[-1]), a) if n else (error("no_such_element"), a)
    if op == "peek_first":
        return value(items[0] if n else None), a
    if op == "peek_last":
        return value(items[-1] if n else None), a
    if op == "poll_first":
        if not n:
            return value(None), a
        return value(items[0]), updated(items[1:])
    if op == "poll_last":
        if not n:
            return value(None), a
        return value(items[-1]), updated(items[:-1])
    if op == "remove_first":
        if not n:
            return error("no_such_element"), a
        return value(items[0]), updated(items[1:])
    if op == "remove_last":
        if not n:
            return error("no_such_element"), a
        return value(items[-1]), updated(items[:-1])
    raise UsageError(f"unknown operation {op!r}")


def oracle_add_all(a: AbstractList, items) -> AbstractList:
    """The state that ``add(x)`` for each ``x`` of ``items`` in turn leads
    to, built in one step: unbounded, every add appends; bounded, the
    adds stop at ``max_size`` and each further one is refused, changing
    nothing."""
    new = tuple(items)
    if a.bounded:
        new = new[: max(0, a.max_size - len(a.items))]
    return replace(a, items=a.items + new)


def observe_equal(impl: tuple[str, object], verdict: Verdict) -> str:
    """Compare an implementation outcome against an oracle verdict.

    ``impl`` is ("value", v) or ("error", kind). Returns "agree",
    "disagree" or "skipped" (the latter exactly when the verdict is
    Unspecified)."""
    if verdict.kind == "unspecified":
        return "skipped"
    tag, payload = impl
    if tag == "value" and verdict.kind == "value":
        return "agree" if normalize(payload) == normalize(verdict.value) else "disagree"
    if tag == "error" and verdict.kind == "error":
        return "agree" if payload == verdict.error else "disagree"
    return "disagree"
