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

from operator import itemgetter
from typing import NamedTuple

from . import listcore, oracle
from .errors import ContractViolation, DanglingLink, ListError, UsageError
from .heapmodel import NodeId, NullItem
from .oracle import (
    CLEAR, EMPTY_FOOTPRINT, Footprint, ModelList, observe_equal, oracle_apply, undo_edits,
)


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


# a write's (node, field)
_LOCATION = itemgetter(0, 1)

#: the edit ``exit_invariant_holds`` reports when the call logged no ghost
#: edit, or left the ghost empty (the chain's items are then the empty tuple)
NO_EDIT = (0, 0, None)


def exit_invariant_holds(state, edits: list, journal: tuple) -> tuple | None:
    """Check the invariant after a call only where the call could have
    broken it, and report the call's ghost edit. The invariant held on
    entry; ``edits`` are the ghost edits the list logged during the call
    (``JavaLinkedList.close_savepoint``), and ``journal`` holds every node
    write the call made, as ``NodeStore.writes`` reads them, and its fresh ids.

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
    were written away from the edit site is searched for, and no
    position is read twice.

    When the whole invariant holds, returns the edit as logged,
    ``(delta, position, node)``: 1 when ``node`` was inserted at the
    position, -1 when it was removed from it; or ``NO_EDIT``. None only
    means this argument does not apply (two edits, a whole-ghost one, an
    allocation the ghost did not take), and ``check_invariant`` decides."""
    nl = state.ghost
    n = len(nl)
    if state.size != n or n > state.max_size:  # C1, C2
        return None
    if not n:  # C4; C3, C5 and C6 hold vacuously
        return NO_EDIT if state.first is None and state.last is None else None
    writes, fresh = journal
    edit, node, lo, hi = NO_EDIT, None, 0, 1
    if edits:
        if len(edits) > 1:
            return None
        edit = delta, p, node = edits[0]
        if delta == 1 and len(fresh) == 1 and fresh.start == node:
            hi = p + 2
        elif delta == -1 and not fresh:
            hi = p + 1
        else:
            return None
        lo = p - 1 if p else 0
        if hi > n:
            hi = n
    elif fresh:
        return None
    # 0, the edit site [lo, hi) of three positions at most, and n - 1, each once
    at = [0, lo, lo + 1, lo + 2][not lo : hi - lo + 1]
    if hi < n:
        at.append(n - 1)
    near = [*nl[lo:hi], node]  # the site, and the node the edit removed
    for nid, name, _ in writes:
        if nid not in near and name != "item":
            try:
                i = nl.index(nid)
            except ValueError:  # a node outside the chain
                continue
            if i not in at:
                at.append(i)
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


# ---------------------------------------------------------------------------
# frames


_HEADER_NAMES = ("first", "last", "size")


def frame_check(
    pre: PreObservation, state, journal: tuple, fp: Footprint, entry
) -> list[tuple[str, str]]:
    """Every change since ``pre`` must lie inside the footprint; returns
    (category, witness) violation entries. A node field changed when it
    differs from the old value of its first write in ``journal``, as
    ``exit_invariant_holds`` takes it; nodes allocated during the call are
    fresh. ``entry`` is the entry ghost (``entry_ghost``), the exit ghost
    itself when the call logged no ghost edit, and then only lengths
    compare; it is read only when ``fp`` does not let the ghost change."""
    violations = []
    writes, fresh = journal
    if not fp.node_fields.issuperset(map(_LOCATION, writes)):  # read in C when all lie inside
        permitted, first_old = fp.node_fields, {}
        for nid, fname, old in writes:
            if nid < fresh.start and (nid, fname) not in permitted:
                first_old.setdefault((nid, fname), old)
        whole = set(fp.nodes)
        for (nid, fname), old in sorted(first_old.items()):
            new = getattr(state.store, fname)(nid)  # the store's read of that field
            if new != old and nid not in whole:
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


def entry_ghost(ghost, edits: list):
    """The ghost before a call that logged ``edits`` and left ``ghost``:
    ``ghost`` itself when the call logged none, else a copy with the
    edits undone (a clear's undo hands back the ghost its log kept).
    ``checked_step`` reads the site of a splice that matches the
    oracle's edit from the exit ghost, so it copies a ghost only for a
    call whose edits differ from the oracle's, and a clear's empty one."""
    return undo_edits(list(ghost), edits) if edits else ghost


# ---------------------------------------------------------------------------
# contracts


class PreObservation(NamedTuple):
    header: tuple  # (first, last, size)
    length: int  # the ghost's


def observe(header: tuple, length: int) -> PreObservation:
    """The pre-state a contract is judged against, copying nothing: the
    header ``(first, last, size)`` and ghost length read on entry."""
    return tuple.__new__(PreObservation, (header, length))  # in C, unlike PreObservation()


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
    item = state.store.item
    if edits:
        kind, q, x = edits[0]
        if kind == 0:  # a replace, which logged the item it replaced
            if delta or item(nl[q]) != a.items[q]:
                return False
            node = nl[q]
        elif kind != delta or q != p or delta == 1 and item(node) != x:
            return False
    elif delta:
        return False
    first_old = {}
    for nid, name, old in journal[0]:
        if name == "item" and nid != node:
            first_old.setdefault(nid, old)
    return all(item(nid) == old or nid not in nl for nid, old in first_old.items())


def _post_vs_model(state, model: tuple, outcome, chain, edit: tuple | None, journal: tuple):
    """The result and the chain's items (``chain`` its ids) against the
    oracle's verdict and state after the call. Unless the scoped exit
    check reported the ghost ``edit`` and ``_same_items`` holds, the
    items are read whole, and a violation names that read. Returns the
    violations and whether ``_same_items`` held."""
    verdict, a, _ = model
    if verdict.kind == "unspecified":
        return [], False
    violations = []
    if observe_equal(outcome, verdict) != "agree":
        violations.append(("post", f"result {outcome!r} != documented {verdict!r}"))
    if edit is not None and _same_items(state, edit, journal, model):
        return violations, True
    post_items, documented = tuple(state.store.items(chain)), tuple(a.items)
    if post_items != documented:
        violations.append(("post", f"chain items {post_items!r} != documented {documented!r}"))
    return violations, False


def run_checked(state, op: str, args: tuple = ()):
    """Invoke a public operation with the full check battery.

    The list is FailFast with ``probes``: ``JavaLinkedList`` refuses
    probes to an Unchecked one. Precondition failures (broken
    invariant on entry, unknown operation, wrong argument count) are
    harness errors. Once the full entry check passes, ``checked_step``
    judges the call against the oracle's verdict on the chain's items.
    Raises ContractViolation on any failed check; otherwise the wrapped
    operation's result (or ListError) passes through unchanged."""
    if not state.probes:
        raise UsageError("run_checked requires a list with probes")
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

    A call with no journal entry, allocation or logged ghost edit
    (``take`` then returns ``UNWRITTEN``), and the entry header and ghost
    length (which catches an unlogged ghost write), exits in the entry
    state. Under ``model``, when the oracle's rule logged no edit either,
    the chain still holds the oracle's items, so only the result is
    compared with the verdict; a disagreement, or an oracle edit, takes
    the general path. Its obligation: the exit, item and frame checks, on
    the same state, journal and log, vouch with no ghost edit and find no
    violation. Other calls read their journal once (``NodeStore.writes``)
    for all the checks, and get the exit check scoped to what the journal
    and the log touched, and the full check (under ``model``, after
    walking the chain) when that does not vouch, so witnesses, errors and
    their order are the full check's.

    ``model`` is ``(verdict, a, edits)``: the oracle's verdict, its
    ``ModelList`` after the call and the edit its rule logged. With it
    the postcondition (``_post_vs_model``), the invariant and the frame
    (an error outcome must change nothing) are checked, and any failure
    raises ContractViolation. The frame is the row's edit kind at the
    oracle's position: a splice whose one ghost edit ``_same_items``
    found the oracle's names its site from the exit ghost and that edit
    (``oracle.splice_footprint``); any other call, from the entry ghost
    (``entry_ghost``, ``OpSpec.footprint``). Returns ``(outcome, error,
    failures)``: the outcome as ``run_op`` gives it, the ListError
    raised or None (its traceback cleared, so keeping it makes no
    reference cycle), and the failing invariant clauses."""
    header, length = (state.first, state.last, state.size), len(state.ghost)
    own = None if state.carried else state.open_savepoint()
    try:
        outcome, error = ("value", listcore.apply_op(state, op, args)), None
    except ListError as e:
        outcome, error = ("error", e.kind), e.with_traceback(None)
    finally:
        (entries, fresh), edits = state.take() if own is None else state.close_savepoint(own)

    wrote = (entries or fresh or edits or len(state.ghost) != length
             or (state.first, state.last, state.size) != header)
    if model is None:  # an emptied ghost needs no writes (C4 alone)
        if not wrote:
            return outcome, error, ()
        writes = state.store.writes(entries) if entries and state.ghost else ()
        edit = exit_invariant_holds(state, edits, (writes, fresh))
        return outcome, error, () if edit else check_invariant(state)
    if wrote:
        spec = oracle.OP_SPECS[op]
        # a clear of exactly the entry ghost's nodes wrote only inside its footprint
        cleared = entry_ghost(state.ghost, edits) if spec.edit == CLEAR else None
        journal = list(state.store.writes(entries, cleared)), fresh
        edit = exit_invariant_holds(state, edits, journal)
    elif not model[2] and observe_equal(outcome, model[0]) != "disagree":
        return outcome, error, ()  # neither side wrote: only the result could disagree
    else:
        journal, edit = ((), fresh), NO_EDIT
    chain = state.ghost if edit else tuple(state.chain())
    violations, same = _post_vs_model(state, model, outcome, chain, edit, journal)
    if not edit:
        violations.extend(("invariant", f"{cid}: {w}") for cid, w in check_invariant(state))
    if wrote:
        if same and edit[0] and outcome[0] != "error":
            # a splice as the oracle logged it: its site, read from the exit ghost
            delta, p, node = edit
            entry = None
            fp = oracle.splice_footprint(state.ghost, p, node if delta < 0 else None, after=True)
        else:
            entry = entry_ghost(state.ghost, edits)
            fp = (EMPTY_FOOTPRINT if outcome[0] == "error"
                  else spec.footprint(entry, model[1], args, model[2]))
        violations += frame_check(observe(header, length), state, journal, fp, entry)
    if violations:
        raise ContractViolation(contract_for(op, args), violations)
    return outcome, error, ()
