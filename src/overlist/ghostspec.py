"""Executable specification layer: the six-clause class invariant over
the list's ghost state, derived acyclicity / unique-endpoint properties,
heap frame checking, and a contract harness that wraps list operations
with pre/post/invariant/frame checks.

The ghost ``node_list`` (``listcore.GhostState``) mirrors the chain as a
sequence of node ids. It is bookkeeping only: production logic never
reads it to make decisions, and every check here evaluates it directly
against the header and the node store.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from . import heapmodel, listcore, ops
from .errors import ContractViolation, DanglingLink, ListError, UsageError
from .heapmodel import NodeId, NullItem
from .ops import EMPTY_FOOTPRINT, Footprint
from .oracle import AbstractList, normalize, observe_equal, oracle_apply


# ---------------------------------------------------------------------------
# class invariant


@dataclass(frozen=True)
class ClauseResult:
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class InvariantReport:
    clauses: dict[str, ClauseResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses.values())

    def failures(self) -> list[tuple[str, str]]:
        return [(cid, c.witness or "") for cid, c in self.clauses.items() if not c.ok]

    def to_json(self) -> dict:
        return {
            cid: {"ok": c.ok, "witness": c.witness} for cid, c in self.clauses.items()
        }


#: the result of every passing clause (the class is frozen, so one serves all)
PASSED = ClauseResult(True)


def check_invariant(state) -> InvariantReport:
    """Evaluate all six invariant clauses against header, store and ghost.

    C1 cached size equals ghost length; C2 size bounded by the width's
    maximum; C3 every ghost entry is an allocated node; C4 empty list has
    absent endpoints; C5 non-empty list has matching endpoints with
    absent outer links; C6 internal prev/next links agree with the ghost
    sequence."""
    if state.ghost is None:
        raise UsageError("invariant check requires ghost state")
    store = state.store
    nl = state.ghost.node_list
    n = len(nl)
    clauses: dict[str, ClauseResult] = {}

    clauses["C1"] = (
        PASSED
        if state.size == n
        else ClauseResult(False, f"size={state.size} vs |nodeList|={n}")
    )
    clauses["C2"] = (
        PASSED
        if state.size <= state.max_size
        else ClauseResult(False, f"size={state.size} > {state.max_size}")
    )
    # C3 is the bulk lookup that also fetches the records C5 and C6 read;
    # it fails on the first unallocated entry, whose first position is the
    # witness
    try:
        recs = store.records(nl)
        clauses["C3"] = PASSED
    except DanglingLink as e:
        recs = None
        bad = nl.index(e.node_id)
        clauses["C3"] = ClauseResult(False, f"nodeList[{bad}]={nl[bad]} unallocated")

    if n == 0:
        clauses["C4"] = (
            PASSED
            if state.first is None and state.last is None
            else ClauseResult(False, f"empty but first={state.first} last={state.last}")
        )
        clauses["C5"] = PASSED
        clauses["C6"] = PASSED
        return InvariantReport(clauses)

    clauses["C4"] = PASSED
    if recs is None:
        clauses["C5"] = ClauseResult(False, "unallocated ghost entry")
        clauses["C6"] = ClauseResult(False, "unallocated ghost entry")
        return InvariantReport(clauses)

    prevs = list(map(attrgetter("prev"), recs))
    nexts = list(map(attrgetter("next"), recs))
    c5_witness = None
    if state.first != nl[0]:
        c5_witness = f"first={state.first} != nodeList[0]={nl[0]}"
    elif state.last != nl[-1]:
        c5_witness = f"last={state.last} != nodeList[{n - 1}]={nl[-1]}"
    elif prevs[0] is not None:
        c5_witness = f"first node {nl[0]} has prev={prevs[0]}"
    elif nexts[-1] is not None:
        c5_witness = f"last node {nl[-1]} has next={nexts[-1]}"
    clauses["C5"] = PASSED if c5_witness is None else ClauseResult(False, c5_witness)

    # whole-sequence comparisons first; the index search runs only to name
    # the witness of a clause that already failed
    c6_witness = None
    if prevs[1:] != nl[:-1]:
        i = next(i for i in range(1, n) if prevs[i] != nl[i - 1])
        c6_witness = f"i={i}: prev={prevs[i]} != nodeList[{i - 1}]={nl[i - 1]}"
    elif nexts[:-1] != nl[1:]:
        i = next(i for i in range(n - 1) if nexts[i] != nl[i + 1])
        c6_witness = f"i={i}: next={nexts[i]} != nodeList[{i + 1}]={nl[i + 1]}"
    clauses["C6"] = PASSED if c6_witness is None else ClauseResult(False, c6_witness)
    return InvariantReport(clauses)


def exit_invariant_holds(state, pre: tuple[NodeId, ...], journal: tuple) -> bool:
    """Whether the invariant holds after a call, checked only where the
    call could have broken it. ``pre`` is the ghost on entry, where the
    invariant held; ``journal`` is the call's closed store journal, which
    holds every node write the call made.

    The ghost must be unchanged, or have gained exactly the call's one
    fresh node, or have lost one node the call wrote. Then a link pair
    that was adjacent on entry and whose fields nobody wrote still agrees,
    so C6 needs checking only at the edit site, at the written nodes and
    at both ends (which also covers C5); ghost entries from entry are
    still allocated (C3). True means the whole invariant holds; False
    only means this argument does not apply, and ``check_invariant``
    decides."""
    n = len(state.ghost.node_list)
    if state.size != n or state.size > state.max_size:  # C1, C2
        return False
    if n == 0:  # C4; C3, C5 and C6 hold vacuously
        return state.first is None and state.last is None
    post = tuple(state.ghost.node_list)
    entries, fresh = journal
    written = set(entries[::3])
    if n == len(pre):
        if fresh or post != pre:
            return False
        edit = ()
    elif n == len(pre) + 1:
        if len(fresh) != 1 or fresh.start not in post:
            return False
        p = post.index(fresh.start)
        if post[:p] != pre[:p] or post[p + 1 :] != pre[p:]:
            return False
        edit = (p - 1, p, p + 1)
    elif n == len(pre) - 1 and not fresh:
        for p in map(pre.index, written.intersection(pre)):
            if post[:p] == pre[:p] and post[p:] == pre[p + 1 :]:
                edit = (p - 1, p)
                break
        else:
            return False
    else:
        return False
    at = {0, n - 1, *edit}
    at.update(map(post.index, written.intersection(post)))
    at = sorted(i for i in at if 0 <= i < n)
    try:
        recs = state.store.records([post[i] for i in at])
    except DanglingLink:
        return False
    for i, rec in zip(at, recs):
        if rec.prev != (post[i - 1] if i else None):
            return False
        if rec.next != (post[i + 1] if i < n - 1 else None):
            return False
    return state.first == post[0] and state.last == post[-1]


# ---------------------------------------------------------------------------
# derived properties


def check_acyclic(state) -> tuple[bool, tuple[int, int] | None]:
    """All ghost entries pairwise distinct; witness is the first (i, j)
    pair of equal nodes on failure."""
    seen: dict[NodeId, int] = {}
    for j, nid in enumerate(state.ghost.node_list):
        if nid in seen:
            return False, (seen[nid], j)
        seen[nid] = j
    return True, None


def check_unique_endpoints(state) -> tuple[bool, int | None]:
    """next absent iff last position; prev absent iff position 0."""
    nl = state.ghost.node_list
    n = len(nl)
    for i, nid in enumerate(nl):
        rec = state.store.record(nid)
        if (rec.next is None) != (i == n - 1):
            return False, i
        if (rec.prev is None) != (i == 0):
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
    nl = state.ghost.node_list
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
                store.record(nl[k - 1]).next == nl[k]
                and store.record(nl[k - 1 - d]).next == nl[k - d]
            )
            if not (same_source and propagated and nl[k] == nl[k - d]):
                steps_hold = False
                break
        equalities.append((k, k - d))
    contradiction = store.record(nl[n - 1]).next is not None if steps_hold else None
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


def frame_check(pre: PreObservation, state, journal: tuple, fp: Footprint) -> list[tuple[str, str]]:
    """Every change since ``pre`` must lie inside the footprint; returns
    (category, witness) violation entries. A node field changed when it
    differs from the old value of its first write in the call's closed
    store ``journal``; nodes allocated during the call are fresh."""
    violations = []
    entries, fresh = journal
    first_old = {}
    it = iter(entries)
    for nid, fname, old in zip(it, it, it):
        if nid < fresh.start:
            first_old.setdefault((nid, fname), old)
    for (nid, fname), old in sorted(first_old.items()):
        new = getattr(state.store.record(nid), fname)
        if new != old and (nid, fname) not in fp.node_fields:
            violations.append(("frame", f"node {nid}.{fname}: {old!r} -> {new!r}"))
    if fresh and not fp.fresh:
        violations.append(("frame", f"unexpected allocation of nodes {list(fresh)}"))
    header = (state.first, state.last, state.size)
    for name, old, new in zip(_HEADER_NAMES, pre.header, header):
        if old != new and name not in fp.header_fields:
            violations.append(("frame", f"header {name}: {old!r} -> {new!r}"))
    if pre.ghost != tuple(state.ghost.node_list) and not fp.ghost:
        violations.append(("frame", "ghost nodeList changed"))
    return violations


# ---------------------------------------------------------------------------
# contracts


@dataclass(frozen=True)
class PreObservation:
    items: tuple
    ids: tuple[NodeId, ...]
    header: tuple  # (first, last, size)
    ghost: tuple[NodeId, ...]


def observe(state, ghost_is_chain: bool = False, items: tuple | None = None) -> PreObservation:
    """The pre-state a contract is judged against. The chain's ids come
    from a walk, or from the ghost when ``ghost_is_chain``: a passing
    invariant check has shown that the ghost is the chain. The items are
    read from the store unless the caller already holds them."""
    ghost = tuple(state.ghost.node_list)
    ids = ghost if ghost_is_chain else tuple(heapmodel.walk_chain(state.store, state.first))
    if items is None:
        items = tuple(map(attrgetter("item"), state.store.records(ids)))
    header = (state.first, state.last, state.size)
    return PreObservation(items, ids, header, ghost)


def contract_for(op: str, args: tuple) -> str:
    """The name of the contract branch a call takes: element-search
    operations carry one per equality branch (null argument = identity
    test, non-null = equals test), every other operation a single one.
    An unknown operation or a wrong argument count is a UsageError."""
    if not ops.check_call(op, args).equality_branches:
        return op
    return f"{op}[null]" if isinstance(args[0], NullItem) else f"{op}[non-null]"


def _post_vs_model(
    state, verdict, abs_post: AbstractList, outcome, chain: tuple | None = None
) -> list[tuple[str, str]]:
    """Check result and resulting chain contents against the documented
    verdict and post-state of the call. ``chain`` holds the post-state's
    node ids when they are known; otherwise the chain is walked."""
    if verdict.kind == "unspecified":
        return []
    violations = []
    if observe_equal(outcome, verdict) != "agree":
        violations.append(("post", f"result {outcome!r} != documented {verdict!r}"))
    if chain is None:
        post_items = tuple(state.items())
    else:
        post_items = tuple(map(attrgetter("item"), state.store.records(chain)))
    if post_items != abs_post.items:
        violations.append(
            ("post", f"chain items {post_items!r} != documented {abs_post.items!r}")
        )
    return violations


def run_checked(state, op: str, args: tuple = (), *, carried: tuple | None = None):
    """Invoke a public operation with the full check battery.

    Precondition failures (broken invariant on entry, unknown operation,
    wrong argument count) are harness errors. After the call: the
    branch-matching postcondition is evaluated against the abstract
    semantics, the invariant is re-checked (FailFast), and the call's
    writes, read from the store's journal, are checked against the
    declared footprint (error outcomes must leave everything unchanged).
    Raises ContractViolation on any failed check; otherwise the wrapped
    operation's result (or ListError) passes through unchanged.

    Under FailFast the passing entry check (for a carried call, the
    previous call's exit check) vouches for the ghost, so the pre-state
    is read from it rather than walked. The exit check is first
    scoped to what the call's journal touched; when that vouches for the
    ghost too, the post-state is read from it. Otherwise the chain is
    walked and the full invariant is checked, so witnesses, chain
    corruption errors and their order are those of the full check.

    ``carried`` is ``(abs_pre, verdict, abs_post)``: the caller's oracle
    state and ``oracle_apply(abs_pre, op, args)``. It hands over what a
    previous checked call on this FailFast list has just verified, so the
    entry check is skipped, the pre-state items are ``abs_pre.items`` and
    the call is judged against the given verdict. This is sound only when
    the invariant holds and the chain's items equal ``abs_pre.items``: the
    list is empty and new, or the previous ``run_checked`` call on it
    returned a result or raised a ListError (so its exit checks passed),
    was judged against a specified verdict whose oracle post-state is
    ``abs_pre``, and nothing has touched the list since.
    A caller that may have changed the list outside a journal passes no
    ``carried``, and the full entry check runs."""
    if state.check_mode is not listcore.CheckMode.FULL:
        raise UsageError("run_checked requires check_mode=FULL")
    contract = contract_for(op, args)
    failfast = state.policy is listcore.SizePolicy.FAIL_FAST
    if carried is None:
        if failfast:
            entry = check_invariant(state)
            if not entry.ok:
                raise UsageError(f"invariant broken before {op}: {entry.failures()}")
        pre = observe(state, ghost_is_chain=failfast)
        abs_pre = AbstractList(pre.items, state.width, bounded=failfast)
        verdict, abs_post = oracle_apply(abs_pre, op, args)
    elif failfast:
        abs_pre, verdict, abs_post = carried
        pre = observe(state, ghost_is_chain=True, items=abs_pre.items)
    else:
        raise UsageError("a carried oracle state requires a FailFast list")
    fp = ops.OP_SPECS[op].footprint(state, pre, args)

    err: ListError | None = None
    result = None
    mark = state.store.open_journal()
    try:
        result = listcore.apply_op(state, op, args)
        outcome = ("value", normalize(result))
    except ListError as e:
        err = e
        outcome = ("error", e.kind)
    finally:
        journal = state.store.close_journal(mark)

    if failfast and exit_invariant_holds(state, pre.ghost, journal):
        chain = tuple(state.ghost.node_list)
        violations = _post_vs_model(state, verdict, abs_post, outcome, chain)
    else:
        violations = _post_vs_model(state, verdict, abs_post, outcome)
        if failfast:
            report = check_invariant(state)
            if not report.ok:
                violations.extend(("invariant", f"{cid}: {w}") for cid, w in report.failures())
    effective_fp = fp if err is None else EMPTY_FOOTPRINT
    violations.extend(frame_check(pre, state, journal, effective_fp))

    if violations:
        raise ContractViolation(contract, violations)
    if err is not None:
        raise err
    return result
