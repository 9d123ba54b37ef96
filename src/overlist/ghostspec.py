"""Executable specification layer: the six-clause class invariant over
the list's ghost state, derived acyclicity / unique-endpoint properties,
heap frame checking, and a contract harness that wraps list operations
with pre/post/invariant/frame checks. The contracts come from the rows
of ``oracle.OP_SPECS``: a row's rule gives the documented verdict and
post-state, and its edit the frame (``OpSpec.footprint``).

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
from .oracle import EMPTY_FOOTPRINT, AbstractList, Footprint, observe_equal, oracle_apply


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
    empty ghost needs only C1, C2 and C4, whatever the log holds.

    When the whole invariant holds, returns the edit as logged,
    ``(delta, position, node)``: 1 when ``node`` was inserted at the
    position, -1 when it was removed from it; or ``NO_EDIT``. None only
    means this argument does not apply (two edits, a whole-ghost one, an
    allocation the ghost did not take), and ``check_invariant`` decides.

    No whole ghost is copied or compared, and no edit is searched for: the
    log names the edit's position. The entry ghost is duplicate-free (the
    invariant held) and the inserted node is fresh, so the exit ghost is
    too, and each written node sits at one position at most. The nodes an
    ordinary call links lie at the edit site, whose positions are known;
    only a node written elsewhere is scanned for, and a removed node has
    left the ghost. Item writes touch no link, so they are not looked
    up."""
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
    at = [0, n - 1, *range(lo, hi)]
    if entries:
        near = nl[lo:hi]
        for nid, name in zip(entries[::3], entries[1::3]):
            if name != "item" and nid not in near and nid != gone:
                try:
                    at.append(nl.index(nid))
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
    pre: PreObservation, state, journal: tuple, fp: Footprint, ghost: list | tuple
) -> list[tuple[str, str]]:
    """Every change since ``pre`` must lie inside the footprint; returns
    (category, witness) violation entries. A node field changed when it
    differs from the old value of its first write in the call's closed
    store ``journal``; nodes allocated during the call are fresh.
    ``ghost`` is the exit ghost, a list or a tuple; a caller whose ghost
    log shows it unchanged passes ``pre.ghost`` itself, which is not
    compared."""
    violations = []
    entries, fresh = journal
    first_old = {}
    it = iter(entries)
    for nid, fname, old in zip(it, it, it):
        if nid < fresh.start:
            first_old.setdefault((nid, fname), old)
    for (nid, fname), old in sorted(first_old.items()):
        new = getattr(state.store, fname)(nid)  # the store's read of that field
        if new != old and (nid, fname) not in fp.node_fields:
            violations.append(("frame", f"node {nid}.{fname}: {old!r} -> {new!r}"))
    if fresh and not fp.fresh:
        violations.append(("frame", f"unexpected allocation of nodes {list(fresh)}"))
    header = (state.first, state.last, state.size)
    for name, old, new in zip(_HEADER_NAMES, pre.header, header):
        if old != new and name not in fp.header_fields:
            violations.append(("frame", f"header {name}: {old!r} -> {new!r}"))
    if not fp.ghost and ghost is not pre.ghost and pre.ghost != tuple(ghost):
        violations.append(("frame", "ghost nodeList changed"))
    return violations


# ---------------------------------------------------------------------------
# contracts


class PreObservation(NamedTuple):
    items: tuple
    header: tuple  # (first, last, size)
    ghost: tuple[NodeId, ...]


def observe(state, items: tuple | None = None) -> PreObservation:
    """The pre-state a contract is judged against. The chain's ids are
    read from the ghost, which a passing invariant check has shown to be
    the chain. The items are read from the store unless the caller
    already holds them."""
    ghost = tuple(state.ghost)
    if items is None:
        items = tuple(state.store.items(ghost))
    header = (state.first, state.last, state.size)
    return PreObservation(items, header, ghost)


def contract_for(op: str, args: tuple) -> str:
    """The name of the contract branch a call takes: element-search
    operations carry one per equality branch (null argument = identity
    test, non-null = equals test), every other operation a single one.
    An unknown operation or a wrong argument count is a UsageError."""
    if not oracle.check_call(op, args).equality_branches:
        return op
    return f"{op}[null]" if isinstance(args[0], NullItem) else f"{op}[non-null]"


def _post_items(state, pre: PreObservation, edit: tuple, journal: tuple) -> tuple:
    """The chain's items after a call whose scoped exit check vouched for
    the state and reported its ghost ``edit``; ``pre`` holds the chain's
    items and ids on entry.

    A node that stayed in the ghost keeps its item unless the call wrote
    it, and every node write goes through the store's journaled setters.
    So the entry items, with the edit applied (the inserted node's item
    read from the store, or the removed position cut out) and each item
    written at a node still in the ghost read from the store, are the
    whole read's items; an empty ghost has none. An unchanged ghost and
    no item write give ``pre.items`` itself."""
    nl = state.ghost
    if not nl:
        return ()
    items = pre.items
    delta, p, node = edit
    if delta > 0:
        items = items[:p] + (state.store.item(node),) + items[p:]
    elif delta < 0:
        items = items[:p] + items[p + 1 :]
    gone = node if delta < 0 else None
    entries = journal[0]
    for nid, name in zip(entries[::3], entries[1::3]):
        if name == "item" and nid != gone:
            try:
                i = nl.index(nid)
            except ValueError:  # a node outside the chain
                continue
            items = items[:i] + (state.store.item(nid),) + items[i + 1 :]
    return items


def _post_vs_model(
    state, verdict, abs_post: AbstractList, outcome, chain: list | tuple, items: tuple | None
) -> list[tuple[str, str]]:
    """Check result and resulting chain contents against the documented
    verdict and post-state of the call; ``chain`` holds the post-state's
    node ids, and ``items`` their items as ``_post_items`` derived them,
    or None. Only when derived items are missing or differ from the
    documented ones are the chain's items read from the store, so a
    violation names what that whole read finds."""
    if verdict.kind == "unspecified":
        return []
    violations = []
    if observe_equal(outcome, verdict) != "agree":
        violations.append(("post", f"result {outcome!r} != documented {verdict!r}"))
    if items is abs_post.items or items == abs_post.items:
        return violations
    post_items = tuple(state.store.items(chain))
    if post_items != abs_post.items:
        violations.append(
            ("post", f"chain items {post_items!r} != documented {abs_post.items!r}")
        )
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
    items = observe(state).items
    verdict, abs_post = oracle_apply(AbstractList(items, state.width), op, args)
    outcome, error, _ = checked_step(state, op, args, (items, verdict, abs_post))
    if error is None:
        return outcome[1]
    try:
        raise error
    finally:
        del error  # the raised error's traceback holds this frame


def checked_step(state, op: str, args: tuple, model: tuple | None = None):
    """Run one call inside one savepoint of the list and judge its exit.

    Precondition: the invariant holds on entry and, when ``model`` is
    given, the chain's items are ``model[0]``. A caller that owns the list
    may carry both over from the previous step's exit checks (JML's
    visible-state semantics); ``run_checked`` establishes them with its
    entry check. The savepoint's ghost log holds the call's ghost edits,
    so without ``model`` nothing reads the entry ghost.

    A call that wrote nothing (``_wrote_nothing``) exits in the entry
    state, where the invariant held and no frame is broken, so only its
    result and the entry items are judged. Its obligation: the general
    path below, on the same state, journal and log, vouches with no ghost
    edit, derives the entry items and finds no frame violation. Other
    calls get the exit check scoped to what the journal and the log
    touched, and the full check (under ``model``, after walking the
    chain) when that does not vouch, so witnesses, errors and their order
    are the full check's.

    ``model`` is ``(items, verdict, abs_post)``: the chain's items and the
    oracle's judgement of the call. With it the postcondition, the
    invariant and the frame (an error outcome must change nothing) are
    checked, and any failure raises ContractViolation; the entry ghost is
    copied (``observe``) for the footprint and the frame. When the scoped
    check vouched, the post-state's items are derived from the entry
    items and the logged ghost edit (``_post_items``), reading only the
    items of the nodes the call created or whose item it wrote; its
    obligation is that they equal a whole read of the chain's items. The
    chain's items are read whole only when the scoped check did not
    vouch, or to name the items of a failed comparison. Returns
    ``(outcome, error, failures)``: the outcome as ``run_op`` gives it,
    the ListError raised or None (its traceback cleared, so keeping it
    makes no reference cycle), and the failing invariant clauses."""
    pre = None if model is None else observe(state, model[0])
    length = len(state.ghost)
    mark = state.open_savepoint()
    try:
        outcome, error = ("value", listcore.apply_op(state, op, args)), None
    except ListError as e:
        outcome, error = ("error", e.kind), e.with_traceback(None)
    finally:
        journal, edits = state.close_savepoint(mark)

    if _wrote_nothing(state, mark[2], length, journal, edits):
        if model is not None:
            items, verdict, abs_post = model
            violations = _post_vs_model(state, verdict, abs_post, outcome, state.ghost, items)
            if violations:
                raise ContractViolation(contract_for(op, args), violations)
        return outcome, error, ()
    edit = exit_invariant_holds(state, edits, journal)
    if model is None:
        return outcome, error, () if edit else check_invariant(state)
    _, verdict, abs_post = model
    if edit:
        chain, ghost = state.ghost, (state.ghost if edits else pre.ghost)
        items = _post_items(state, pre, edit, journal)
    else:
        chain, ghost = tuple(state.chain()), state.ghost
        items = None
    violations = _post_vs_model(state, verdict, abs_post, outcome, chain, items)
    if not edit:
        violations.extend(("invariant", f"{cid}: {w}") for cid, w in check_invariant(state))
    fp = EMPTY_FOOTPRINT if outcome[0] == "error" else oracle.OP_SPECS[op].footprint(pre, args)
    violations.extend(frame_check(pre, state, journal, fp, ghost))
    if violations:
        raise ContractViolation(contract_for(op, args), violations)
    return outcome, error, ()
