"""Executable specification layer: the six-clause class invariant over
the list's ghost state, derived acyclicity / unique-endpoint properties,
heap frame checking, and a contract harness that wraps list operations
with pre/post/invariant/frame checks. The contracts come from the rows
of ``oracle.OP_SPECS``: a row's rule gives the documented verdict and
edits the oracle's state, and its edit gives the frame
(``OpSpec.footprint``).

The list's ghost (``JavaLinkedList.ghost``, JML's ``nodeList``) mirrors
the chain as a sequence of node ids. It is bookkeeping only: production
logic never reads it to make decisions, and every check here evaluates
it directly against the header and the node store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import listcore, oracle
from .errors import ContractViolation, DanglingLink, ListError, UsageError
from .heapmodel import NodeId, NullItem
from .oracle import EMPTY_FOOTPRINT, Footprint, ModelList, observe_equal, oracle_apply


# ---------------------------------------------------------------------------
# class invariant


def check_invariant(state) -> list[tuple[str, str]]:
    """Evaluate all six invariant clauses against header, store and ghost,
    and return the failing ones as (clause, witness) pairs in clause
    order; the list is empty when the invariant holds.

    C1 cached size equals ghost length; C2 size bounded by the width's
    maximum; C3 every ghost entry is an allocated node; C4 empty list has
    absent endpoints; C5 non-empty list has matching endpoints with
    absent outer links; C6 internal prev/next links agree with the ghost
    sequence."""
    if state.ghost is None:
        raise UsageError("invariant check requires ghost state")
    nl = state.ghost
    n = len(nl)
    failures = []
    if state.size != n:
        failures.append(("C1", f"size={state.size} vs |nodeList|={n}"))
    if state.size > state.max_size:
        failures.append(("C2", f"size={state.size} > {state.max_size}"))
    # C3 is the bulk read that also fetches the links C5 and C6 compare;
    # it fails on the first unallocated entry, whose first position is the
    # witness
    try:
        prevs = state.store.prevs(nl)
    except DanglingLink as e:
        prevs = None
        bad = nl.index(e.node_id)
        failures.append(("C3", f"nodeList[{bad}]={nl[bad]} unallocated"))

    if n == 0:
        if state.first is not None or state.last is not None:
            failures.append(("C4", f"empty but first={state.first} last={state.last}"))
        return failures
    if prevs is None:
        failures.append(("C5", "unallocated ghost entry"))
        failures.append(("C6", "unallocated ghost entry"))
        return failures

    nexts = state.store.nexts(nl)
    if state.first != nl[0]:
        failures.append(("C5", f"first={state.first} != nodeList[0]={nl[0]}"))
    elif state.last != nl[-1]:
        failures.append(("C5", f"last={state.last} != nodeList[{n - 1}]={nl[-1]}"))
    elif prevs[0] is not None:
        failures.append(("C5", f"first node {nl[0]} has prev={prevs[0]}"))
    elif nexts[-1] is not None:
        failures.append(("C5", f"last node {nl[-1]} has next={nexts[-1]}"))

    # whole-sequence comparisons first; the index search runs only to name
    # the witness of a clause that already failed
    if prevs[1:] != nl[:-1]:
        i = next(i for i in range(1, n) if prevs[i] != nl[i - 1])
        failures.append(("C6", f"i={i}: prev={prevs[i]} != nodeList[{i - 1}]={nl[i - 1]}"))
    elif nexts[:-1] != nl[1:]:
        i = next(i for i in range(n - 1) if nexts[i] != nl[i + 1])
        failures.append(("C6", f"i={i}: next={nexts[i]} != nodeList[{i + 1}]={nl[i + 1]}"))
    return failures


#: the edit ``exit_invariant_holds`` reports when the call logged no ghost
#: edit, or left the ghost empty (the chain's items are then the empty tuple)
NO_EDIT = (0, 0, None)


def exit_invariant_holds(state, edits: list, journal: tuple) -> tuple | None:
    """Check the invariant after a call only where the call could have
    broken it, and report the call's ghost edit. The invariant held on
    entry; ``edits`` are the ghost edits the list logged during the call
    (``JavaLinkedList.close_savepoint``), and ``journal`` is the call's
    closed store journal, which holds every node write the call made.

    The log must hold no edit, or one: the insertion of the call's one
    fresh node, or the removal of one node. The ghost is then the entry
    ghost with that edit applied, since only the list's logged methods
    write it, so a link pair that was adjacent on entry and whose links
    nobody wrote still agrees. C6 needs checking only at the edit site,
    at the nodes whose links were written and at both ends (which also
    covers C5); ghost entries from entry are still allocated (C3). An
    empty ghost needs only C1, C2 and C4, whatever the log holds. The
    entry ghost is duplicate-free and the inserted node fresh, so each
    written node sits at one position at most; only a node whose links
    were written away from the edit site is searched for.

    When the whole invariant holds, returns the edit as logged,
    ``(delta, position, node)``: 1 when ``node`` was inserted at the
    position, -1 when it was removed from it; or ``NO_EDIT``. None only
    means this argument does not apply (two edits, a whole-ghost one, an
    allocation the ghost did not take), and ``check_invariant`` decides."""
    nl = state.ghost
    n = len(nl)
    if state.size != n or state.size > state.max_size:  # C1, C2
        return None
    if n == 0:  # C4; C3, C5 and C6 hold vacuously
        return NO_EDIT if state.first is None and state.last is None else None
    entries, fresh = journal
    gone = None
    if not edits:
        if fresh:
            return None
        edit, lo, hi = NO_EDIT, 0, 0
    elif len(edits) == 1:
        edit = delta, p, node = edits[0]
        if delta == 1:
            if len(fresh) != 1 or fresh.start != node:
                return None
            lo, hi = p - 1, p + 2
        elif delta == -1 and not fresh:
            gone = node
            lo, hi = p - 1, p + 1
        else:
            return None
    else:
        return None
    lo = max(lo, 0)
    hi = min(hi, n)
    at = {0, n - 1, *range(lo, hi)}
    if entries:
        near = nl[lo:hi]
        for nid, name, _ in state.store.writes(entries):
            if name != "item" and nid not in near and nid != gone:
                try:
                    at.add(nl.index(nid))
                except ValueError:  # a node outside the chain
                    pass
    if not state.store.links_agree(nl, at):
        return None
    return edit if state.first == nl[0] and state.last == nl[-1] else None


# ---------------------------------------------------------------------------
# derived properties


def check_acyclic(state) -> tuple[bool, tuple[int, int] | None]:
    """All ghost entries pairwise distinct; witness is the first (i, j)
    pair of equal nodes on failure."""
    seen: dict[NodeId, int] = {}
    for j, nid in enumerate(state.ghost):
        if nid in seen:
            return False, (seen[nid], j)
        seen[nid] = j
    return True, None


def check_unique_endpoints(state) -> tuple[bool, int | None]:
    """next absent iff last position; prev absent iff position 0."""
    nl = state.ghost
    n = len(nl)
    store = state.store
    for i, nid in enumerate(nl):
        if (store.next(nid) is None) != (i == n - 1):
            return False, i
        if (store.prev(nid) is None) != (i == 0):
            return False, i
    return True, None


@dataclass(frozen=True)
class CyclePropagation:
    """Outcome of stepping the cycle-propagation induction for (i, j).

    ``kind`` is "refutation" when the two positions hold distinct nodes.
    Otherwise the induction chain of node equalities (k, k - (j - i)) is
    verified step by step against the store's next links, ending at the
    last position where the unique-endpoint contradiction shows up."""

    kind: str  # "refutation" | "chain"
    i: int
    j: int
    equalities: tuple[tuple[int, int], ...] = ()
    steps_hold: bool = True
    contradiction_next_present: bool | None = None


def cycle_propagation_witness(state, i: int, j: int) -> CyclePropagation:
    nl = state.ghost
    n = len(nl)
    if not 0 <= i < j < n:
        raise UsageError(f"need 0 <= i < j < {n}, got i={i} j={j}")
    if nl[i] != nl[j]:
        return CyclePropagation("refutation", i, j)
    d = j - i
    store = state.store
    equalities = []
    steps_hold = True
    for k in range(j, n):
        # base case k == j holds by assumption; each further step follows
        # because both sides are the next of the previous (equal) pair
        if k > j:
            same_source = nl[k - 1] == nl[k - 1 - d]
            propagated = (
                store.next(nl[k - 1]) == nl[k]
                and store.next(nl[k - 1 - d]) == nl[k - d]
            )
            if not (same_source and propagated and nl[k] == nl[k - d]):
                steps_hold = False
                break
        equalities.append((k, k - d))
    contradiction = store.next(nl[n - 1]) is not None if steps_hold else None
    return CyclePropagation(
        "chain",
        i,
        j,
        equalities=tuple(equalities),
        steps_hold=steps_hold,
        contradiction_next_present=contradiction,
    )


# ---------------------------------------------------------------------------
# frames


_HEADER_NAMES = ("first", "last", "size")


def frame_check(
    pre: PreObservation, state, journal: tuple, fp: Footprint, entry
) -> list[tuple[str, str]]:
    """Every change since ``pre`` must lie inside the footprint; returns
    (category, witness) violation entries. A node field changed when it
    differs from the old value of its first write in the call's closed
    store ``journal``; nodes allocated during the call are fresh.
    ``entry`` is the entry ghost (``entry_ghost``), the exit ghost itself
    when the call logged no ghost edit, and then only lengths compare."""
    violations = []
    entries, fresh = journal
    first_old = {}
    # a clear of exactly the footprint's whole nodes wrote only inside it
    for nid, fname, old in state.store.writes(entries, fp.nodes):
        if nid < fresh.start:
            first_old.setdefault((nid, fname), old)
    whole = set(fp.nodes) if first_old and fp.nodes else ()
    for (nid, fname), old in sorted(first_old.items()):
        new = getattr(state.store, fname)(nid)  # the store's read of that field
        if new != old and (nid, fname) not in fp.node_fields and nid not in whole:
            violations.append(("frame", f"node {nid}.{fname}: {old!r} -> {new!r}"))
    if fresh and not fp.fresh:
        violations.append(("frame", f"unexpected allocation of nodes {list(fresh)}"))
    header = (state.first, state.last, state.size)
    for name, old, new in zip(_HEADER_NAMES, pre.header, header):
        if old != new and name not in fp.header_fields:
            violations.append(("frame", f"header {name}: {old!r} -> {new!r}"))
    ghost = state.ghost
    if not fp.ghost and (len(ghost) != pre.length
                         or entry is not ghost and tuple(entry) != tuple(ghost)):
        violations.append(("frame", "ghost nodeList changed"))
    return violations


class _Before:
    """The ghost before the logged edit ``(delta, p, node)``, read through
    the ghost after it."""

    __slots__ = ("after", "delta", "p", "node")

    def __init__(self, after, edit):
        self.after = after
        self.delta, self.p, self.node = edit

    def __len__(self) -> int:
        return len(self.after) - self.delta

    def __getitem__(self, i: int) -> NodeId:
        if i < self.p:
            return self.after[i]
        return self.node if i == self.p and self.delta < 0 else self.after[i + self.delta]


def entry_ghost(ghost, edits: list):
    """The ghost before a call that logged ``edits`` and left ``ghost``,
    copying nothing: a whole-ghost edit kept the ghost it replaced, and
    the others are read backwards through the ghost after them."""
    for edit in reversed(edits):
        ghost = edit[2] if edit[0] is None else _Before(ghost, edit)
    return ghost


# ---------------------------------------------------------------------------
# contracts


class PreObservation(NamedTuple):
    header: tuple  # (first, last, size)
    length: int  # the ghost's


def observe(state) -> PreObservation:
    """The pre-state a contract is judged against, copying nothing: the
    call's edits are read from the ghost log and the store journal."""
    return PreObservation((state.first, state.last, state.size), len(state.ghost))


def contract_for(op: str, args: tuple) -> str:
    """The name of the contract branch a call takes: element-search
    operations carry one per equality branch (null argument = identity
    test, non-null = equals test), every other operation a single one.
    An unknown operation or a wrong argument count is a UsageError."""
    if not oracle.check_call(op, args).equality_branches:
        return op
    return f"{op}[null]" if isinstance(args[0], NullItem) else f"{op}[non-null]"


def _same_items(state, edit: tuple, journal: tuple, model: tuple) -> bool:
    """Whether the chain holds the oracle's items after a call the scoped
    exit check vouched for with the ghost ``edit``, shown by edits alone:
    it held them on entry (visible-state semantics), so the ghost edit
    and the item writes in ``journal`` must match the oracle's logged
    edit (``model``). Inserts and removals match in position and inserted
    item, a replace leaves its item in an unchanged ghost, a clear leaves
    an empty one, and any other item write restores its item or lies
    outside the chain. False: a whole read decides."""
    _, a, edits = model
    nl = state.ghost
    if not nl:
        return not a.items
    delta, p, node = edit
    if edits:
        kind, q, _ = edits[0]
        if kind == 0:  # a replace
            if delta or state.store.item(nl[q]) != a.items[q]:
                return False
            node = nl[q]
        elif kind != delta or q != p or delta == 1 and state.store.item(node) != a.items[q]:
            return False
    elif delta:
        return False
    first_old = {}
    for nid, name, old in state.store.writes(journal[0]):
        if name == "item" and nid != node:
            first_old.setdefault(nid, old)
    return all(state.store.item(nid) == old or nid not in nl for nid, old in first_old.items())


def _post_vs_model(state, model: tuple, outcome, chain, edit: tuple | None, journal: tuple):
    """The result and the chain's items (``chain`` its ids) against the
    oracle's verdict and state after the call. Unless the scoped exit
    check reported the ghost ``edit`` and ``_same_items`` holds, the
    items are read whole, and a violation names that read."""
    verdict, a, _ = model
    if verdict.kind == "unspecified":
        return []
    violations = []
    if observe_equal(outcome, verdict) != "agree":
        violations.append(("post", f"result {outcome!r} != documented {verdict!r}"))
    if edit is not None and _same_items(state, edit, journal, model):
        return violations
    post_items, documented = tuple(state.store.items(chain)), tuple(a.items)
    if post_items != documented:
        violations.append(("post", f"chain items {post_items!r} != documented {documented!r}"))
    return violations


def _wrote_nothing(state, header: tuple, length: int, journal: tuple, edits: list) -> bool:
    """Whether a call's closed ``journal`` holds no write or allocation,
    its ghost log no edit, and the header and the ghost's length are still
    ``header`` and ``length``: the entry state then, as nodes change only
    through the journaled setters and the ghost only through the logged
    methods. The length catches a ghost write that was not logged."""
    entries, fresh = journal
    return (not entries and not fresh and not edits
            and (state.first, state.last, state.size) == header and len(state.ghost) == length)


def run_checked(state, op: str, args: tuple = ()):
    """Invoke a public operation with the full check battery.

    The list is FailFast: ``JavaLinkedList`` refuses to check an
    Unchecked one. Precondition failures (broken invariant on entry,
    unknown operation, wrong argument count) are harness errors. Once the
    full entry check passes, ``checked_step`` judges the call against the
    oracle's verdict on the chain's items.
    Raises ContractViolation on any failed check; otherwise the wrapped
    operation's result (or ListError) passes through unchanged."""
    if state.check_mode is not listcore.CheckMode.FULL:
        raise UsageError("run_checked requires check_mode=FULL")
    oracle.check_call(op, args)
    failures = check_invariant(state)
    if failures:
        raise UsageError(f"invariant broken before {op}: {failures}")
    a = ModelList(state.store.items(state.ghost), state.width)
    a.open_savepoint()
    verdict, _ = oracle_apply(a, op, args)
    outcome, error, _ = checked_step(state, op, args, (verdict, a, a.close_savepoint()))
    if error is None:
        return outcome[1]
    try:
        raise error
    finally:
        del error  # the raised error's traceback holds this frame


def checked_step(state, op: str, args: tuple, model: tuple | None = None):
    """Run one call and judge its exit from what it wrote.

    Precondition: the invariant holds on entry and, when ``model`` is
    given, the chain holds the oracle's items. A caller that owns the
    list may carry both over from the previous step's exit checks (JML's
    visible-state semantics) in one savepoint (``JavaLinkedList.carry``),
    and the call takes its writes out of it; otherwise, as after
    ``run_checked``'s entry check, it runs in a savepoint of its own. The
    ghost log holds the call's ghost edits, so nothing reads or copies
    the entry ghost.

    A call that wrote nothing (``_wrote_nothing``) exits in the entry
    state, so only its result and items are judged. Its obligation: the
    exit and frame checks, on the same state, journal and log, vouch with
    no ghost edit and find no frame violation. Other calls get the exit
    check scoped to what the journal and the log touched, and the full
    check (under ``model``, after walking the chain) when that does not
    vouch, so witnesses, errors and their order are the full check's.

    ``model`` is ``(verdict, a, edits)``: the oracle's verdict, its
    ``ModelList`` after the call and the edit its rule logged. With it
    the postcondition (``_post_vs_model``), the invariant and the frame
    (an error outcome must change nothing) are checked, and any failure
    raises ContractViolation; the footprint takes its position from the
    oracle's edit, and its ids from the entry ghost (``entry_ghost``).
    Returns ``(outcome, error, failures)``: the outcome as ``run_op``
    gives it, the ListError raised or None (its traceback cleared, so
    keeping it makes no reference cycle), and the failing invariant
    clauses."""
    pre = None if model is None else observe(state)
    header, length = (state.first, state.last, state.size), len(state.ghost)
    own = None if state.carried else state.open_savepoint()
    try:
        outcome, error = ("value", listcore.apply_op(state, op, args)), None
    except ListError as e:
        outcome, error = ("error", e.kind), e.with_traceback(None)
    finally:
        journal, edits = state.take() if own is None else state.close_savepoint(own)

    wrote = not _wrote_nothing(state, header, length, journal, edits)
    edit = exit_invariant_holds(state, edits, journal) if wrote else NO_EDIT
    if model is None:
        return outcome, error, () if edit else check_invariant(state)
    chain = state.ghost if edit else tuple(state.chain())
    violations = _post_vs_model(state, model, outcome, chain, edit, journal)
    if not edit:
        violations.extend(("invariant", f"{cid}: {w}") for cid, w in check_invariant(state))
    if wrote:
        entry = entry_ghost(state.ghost, edits)
        fp = (EMPTY_FOOTPRINT if outcome[0] == "error"
              else oracle.OP_SPECS[op].footprint(entry, model[1], args, model[2]))
        violations.extend(frame_check(pre, state, journal, fp, entry))
    if violations:
        raise ContractViolation(contract_for(op, args), violations)
    return outcome, error, ()
