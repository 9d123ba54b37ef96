"""The operation table: one ``OpSpec`` row per public list operation.

A row holds what the harness layers know about an operation besides its
documented semantics (``oracle.oracle_apply``): the argument shape, the
Java interface it belongs to, its effect on the list length, its frame
footprint builder (the executable form of the operation's ``assignable``
clause), the arguments the census probes it with and, when it differs
from the operation's name, the ``JavaLinkedList`` method that implements
it. ``listcore.OPS`` is derived from the rows. Whether an operation
mutates and whether its contract splits into equality branches follow
from the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import UsageError
from .heapmodel import NULL, Atom, Item, NodeId
from .oracle import first_index, last_index

#: argument kinds; a shape is the tuple of kinds in call order
INDEX = "index"
ITEM = "item"

#: size effects, as the script generator's length estimate sees them
GROWS, SHRINKS, NONE, RESET = "grows", "shrinks", "none", "reset"

#: argument alphabet: small enough to enumerate, rich enough to exercise
#: both equality branches plus a distinguished marker element
MARKER = Atom("marker")
ALPHABET: tuple[Item, ...] = (NULL, Atom("a"), Atom("b"), MARKER)


@dataclass(frozen=True)
class Footprint:
    """Locations an operation is allowed to modify."""

    node_fields: frozenset[tuple[NodeId, str]] = frozenset()
    header_fields: frozenset[str] = frozenset()
    ghost: bool = False
    fresh: bool = False


EMPTY_FOOTPRINT = Footprint()


# Footprint builders map (state, pre-state observation, args) to the
# locations the call may modify.


def _fp_pure(state, pre, args) -> Footprint:
    return EMPTY_FOOTPRINT


def _fp_append(state, pre, args) -> Footprint:
    nodes = {(pre.ids[-1], "next")} if pre.ids else set()
    header = {"last", "size"} | ({"first"} if not pre.ids else set())
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _fp_prepend(state, pre, args) -> Footprint:
    nodes = {(pre.ids[0], "prev")} if pre.ids else set()
    header = {"first", "size"} | ({"last"} if not pre.ids else set())
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _fp_insert_at(state, pre, args) -> Footprint:
    i = args[0]
    n = len(pre.ids)
    if not 0 <= i <= n:
        return EMPTY_FOOTPRINT
    if i == n:
        return _fp_append(state, pre, args)
    nodes = {(pre.ids[i], "prev")}
    header = {"size"}
    if i > 0:
        nodes.add((pre.ids[i - 1], "next"))
    else:
        header.add("first")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _removal_footprint(pre, p: int) -> Footprint:
    ids = pre.ids
    n = len(ids)
    x = ids[p]
    nodes = {(x, "prev"), (x, "item"), (x, "next")}
    header = {"size"}
    if p > 0:
        nodes.add((ids[p - 1], "next"))
    else:
        header.add("first")
    if p < n - 1:
        nodes.add((ids[p + 1], "prev"))
    else:
        header.add("last")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True)


def _fp_remove_at(state, pre, args) -> Footprint:
    i = args[0]
    if not 0 <= i < len(pre.ids):
        return EMPTY_FOOTPRINT
    return _removal_footprint(pre, i)


def _fp_set_at(state, pre, args) -> Footprint:
    i = args[0]
    if not 0 <= i < len(pre.ids):
        return EMPTY_FOOTPRINT
    return Footprint(frozenset({(pre.ids[i], "item")}))


def _fp_remove_match(last: bool):
    find = last_index if last else first_index

    def fp(state, pre, args) -> Footprint:
        p = find(pre.items, args[0])
        return EMPTY_FOOTPRINT if p is None else _removal_footprint(pre, p)

    return fp


def _fp_remove_end(p_of_n) -> Callable:
    def fp(state, pre, args) -> Footprint:
        if not pre.ids:
            return EMPTY_FOOTPRINT
        return _removal_footprint(pre, p_of_n(len(pre.ids)))

    return fp


def _fp_clear(state, pre, args) -> Footprint:
    nodes = {(nid, f) for nid in pre.ids for f in ("prev", "item", "next")}
    return Footprint(frozenset(nodes), frozenset({"first", "last", "size"}), ghost=True)


@dataclass(frozen=True)
class OpSpec:
    name: str
    args: tuple[str, ...]  # argument kinds: INDEX / ITEM
    interface: str | None  # "List", "Deque", or None for the capacity helpers
    size_effect: str  # GROWS | SHRINKS | NONE | RESET
    footprint: Callable  # (state, pre, args) -> Footprint
    probes: tuple[tuple, ...] = ()  # census argument tuples; empty = not censused
    method: str | None = None  # the JavaLinkedList method, when not ``name``

    @property
    def mutating(self) -> bool:
        return self.footprint is not _fp_pure

    @property
    def equality_branches(self) -> bool:
        """Element searches: the contract has one branch for a null
        argument (identity test) and one for a non-null one (equals)."""
        return self.args == (ITEM,) and self.size_effect != GROWS


_A = (Atom("a"),)
_AT_0 = ((0, Atom("a")),)
_SEARCH = ((NULL,), (MARKER,))
_CALL = ((),)

OP_SPECS: dict[str, OpSpec] = {
    row.name: row
    for row in (
        OpSpec("add", (ITEM,), "List", GROWS, _fp_append, (_A,)),
        OpSpec("add_first", (ITEM,), "Deque", GROWS, _fp_prepend, (_A,)),
        OpSpec("add_last", (ITEM,), "Deque", GROWS, _fp_append, (_A,)),
        OpSpec("get", (INDEX,), "List", NONE, _fp_pure, ((0,),)),
        OpSpec("set_at", (INDEX, ITEM), "List", NONE, _fp_set_at, _AT_0),
        OpSpec("add_at", (INDEX, ITEM), "List", GROWS, _fp_insert_at, _AT_0),
        OpSpec("remove_at", (INDEX,), "List", SHRINKS, _fp_remove_at, ((0,),)),
        OpSpec("index_of", (ITEM,), "List", NONE, _fp_pure, _SEARCH),
        OpSpec("last_index_of", (ITEM,), "List", NONE, _fp_pure, _SEARCH),
        OpSpec("contains", (ITEM,), "List", NONE, _fp_pure, _SEARCH),
        # Java's List.remove(Object)
        OpSpec("remove_item", (ITEM,), "List", SHRINKS, _fp_remove_match(last=False), _SEARCH),
        OpSpec("remove_first_occurrence", (ITEM,), "List", SHRINKS,
               _fp_remove_match(last=False), ((NULL,),)),
        OpSpec("remove_last_occurrence", (ITEM,), "List", SHRINKS,
               _fp_remove_match(last=True), ((NULL,),)),
        OpSpec("clear", (), "List", RESET, _fp_clear, _CALL),
        OpSpec("to_array", (), "List", NONE, _fp_pure, _CALL),
        OpSpec("size", (), "List", NONE, _fp_pure, _CALL, method="size_field"),
        OpSpec("is_max_size", (), None, NONE, _fp_pure),
        OpSpec("check_size", (), None, NONE, _fp_pure),
        OpSpec("get_first", (), "Deque", NONE, _fp_pure, _CALL),
        OpSpec("get_last", (), "Deque", NONE, _fp_pure, _CALL),
        OpSpec("peek_first", (), "Deque", NONE, _fp_pure, _CALL),
        OpSpec("peek_last", (), "Deque", NONE, _fp_pure, _CALL),
        OpSpec("poll_first", (), "Deque", SHRINKS, _fp_remove_end(lambda n: 0), _CALL),
        OpSpec("poll_last", (), "Deque", SHRINKS, _fp_remove_end(lambda n: n - 1), _CALL),
        OpSpec("remove_first", (), "Deque", SHRINKS, _fp_remove_end(lambda n: 0), _CALL),
        OpSpec("remove_last", (), "Deque", SHRINKS, _fp_remove_end(lambda n: n - 1), _CALL),
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
