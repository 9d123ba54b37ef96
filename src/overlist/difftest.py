"""Differential testing: replayable operation scripts, lock-step
execution of both list policies against the documented-semantics oracle,
divergence classification, greedy shrinking, and the broken-method
census over the two overflow preparation states.
"""

from __future__ import annotations

import json
import math
import random
from contextvars import ContextVar
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from operator import is_not, itemgetter

from .errors import ChainCorruption, ContractViolation, IllegalStateError, ListError, UsageError
from .ghostspec import check_invariant, checked_step
from .heapmodel import NULL, Atom, NullItem
from .jint import check_width
from .listcore import CheckMode, JavaLinkedList, SizePolicy, apply_op, new_list, require_member
from .oracle import (
    ALPHABET, CLEAR, INDEX, INSERT, ITEM, MARKER, OP_SPECS, REMOVE, AbstractList, ModelList,
    Verdict, check_call, observe_equal, oracle_apply, spec_of,
)

GENERATOR_VERSION = 1


@dataclass(frozen=True)
class OpScript:
    seed: int
    width: int
    steps: tuple[tuple[str, tuple], ...]
    version: int = GENERATOR_VERSION


@dataclass(frozen=True)
class Divergence:
    step: int
    op: str
    args: tuple
    policy: str
    impl: object
    oracle: object
    kind: str

    def to_json(self) -> dict:
        return {**vars(self), "args": [_encode_value(a) for a in self.args]}


@dataclass(frozen=True)
class CensusRow:
    method: str
    classification: str  # OK | WrongValue | Crash | Unspecified-skip


# ---------------------------------------------------------------------------
# script generation

ADD_HEAVY_WEIGHTS: dict[str, float] = {
    "add": 30,
    "add_first": 3,
    "add_last": 3,
    "poll_first": 1,
    "poll_last": 1,
    "remove_first_occurrence": 1,
    "get": 2,
    "size": 2,
    "index_of": 1,
    "last_index_of": 1,
    "contains": 1,
    "to_array": 1,
}

BALANCED_WEIGHTS: dict[str, float] = {
    "add": 6,
    "add_first": 2,
    "add_last": 2,
    "get": 3,
    "set_at": 2,
    "add_at": 2,
    "remove_at": 2,
    "index_of": 2,
    "last_index_of": 2,
    "contains": 2,
    "remove_item": 1,
    "remove_first_occurrence": 1,
    "remove_last_occurrence": 1,
    "clear": 0.2,
    "to_array": 1,
    "size": 2,
    "get_first": 1,
    "get_last": 1,
    "peek_first": 1,
    "peek_last": 1,
    "poll_first": 1,
    "poll_last": 1,
    "remove_first": 1,
    "remove_last": 1,
    "is_max_size": 0.5,
}

def gen_script(
    seed: int,
    width: int,
    length: int,
    weights: dict[str, float] | None = None,
) -> OpScript:
    """Deterministic pseudo-random script over the op mix ``weights``
    (``BALANCED_WEIGHTS`` when None). Index arguments are drawn around a
    running length estimate so most positional calls land in-range while
    boundary misses stay represented. A UsageError names a seed, width or
    length that ``load_script`` would not read back, or a bad mix."""
    if type(seed) is not int:
        raise UsageError(f"seed must be an integer, got {seed!r}")
    check_width(width)
    if type(length) is not int or length < 0:
        raise UsageError(f"length must be a non-negative integer, got {length!r}")
    weights = BALANCED_WEIGHTS if weights is None else weights
    if not (any(weights.values())
            and all(type(w) in (int, float) and 0 <= w < math.inf for w in weights.values())):
        raise UsageError(f"the op mix needs finite weights >= 0, one above 0, got {weights!r}")
    rng = random.Random(seed)
    ops = sorted(weights)
    specs = {op: spec_of(op) for op in ops}
    # what ``choices(ops, weights=...)`` accumulates on every call
    cum = list(accumulate(weights[o] for o in ops))
    est = 0
    steps = []
    for _ in range(length):
        op = rng.choices(ops, cum_weights=cum)[0]
        spec = specs[op]
        args: tuple = ()
        for kind in spec.args:
            args += (rng.randint(-1, est + 1) if kind == INDEX else rng.choice(ALPHABET),)
        steps.append((op, args))
        edit = spec.edit
        if edit == INSERT:
            est += 1
        elif edit == REMOVE and est > 0:
            est -= 1
        elif edit == CLEAR:
            est = 0
    return OpScript(seed=seed, width=width, steps=tuple(steps))


# ---------------------------------------------------------------------------
# execution


def run_op(lst: JavaLinkedList, op: str, args: tuple) -> tuple[str, object]:
    """Outcome of one call: ("value", answer) or ("error", kind)."""
    try:
        return ("value", apply_op(lst, op, args))
    except ListError as e:
        return ("error", e.kind)


def classify(outcome: tuple[str, object], verdict: Verdict) -> str:
    if outcome[0] == "error":
        return "WrongError"
    if verdict.kind == "error":
        return "MissingError"
    return "WrongValue"


#: every well-formed call, as (op, argument count)
_CALLS = frozenset((name, len(spec.args)) for name, spec in OP_SPECS.items())


def _well_named(steps) -> bool:
    """Whether every step is an (op, args) pair whose op takes
    ``len(args)`` arguments: C loops, no bytecode per step."""
    try:
        return (set(map(len, steps)) <= {2} and _CALLS.issuperset(
            zip(map(itemgetter(0), steps), map(len, map(itemgetter(1), steps)))))
    except (TypeError, IndexError):  # a step or its args with no length, an unhashable op
        return False


@dataclass
class ScriptResult:
    divergences: dict[str, list[Divergence]]
    oracles: dict[str, AbstractList]
    aborted: dict[str, int | None]

    def total(self, policy: str) -> int:
        return len(self.divergences[policy])


class _Resumption:
    """The scope of one ``shrink`` call: ``site``, the step at which
    ``shrink`` says the next candidate parts from the one it asks about;
    ``saved``, the state a FailFast ``run_script`` saved before its site,
    or None; and the steps and key (width, check mode, policies, faults)
    of the last such run."""

    __slots__ = ("key", "steps", "site", "saved")

    def __init__(self):
        self.key, self.steps, self.site, self.saved = None, (), 0, None

    def resume(self, steps: tuple, key: tuple) -> tuple | None:
        """Make ``steps`` the last run's and return the saved state, for
        the run to resume from, if it lies in the prefix ``steps`` shares
        with the previous run's; else drop it. Steps are shared by
        identity, never by ``==``: ``NULL == ()`` and ``Atom("a") ==
        ("a",)``, yet those steps run differently."""
        if self.saved is not None:
            at = self.saved[0]
            if key != self.key or len(steps) < at or any(map(is_not, steps, self.steps[:at])):
                self.saved = None
        self.key, self.steps = key, steps
        return self.saved


#: the scope ``shrink`` opens for its call, else None
_resumption: ContextVar[_Resumption | None] = ContextVar("overlist_resumption", default=None)


def _state(step: int, lst: JavaLinkedList, model: ModelList) -> tuple:
    """A copy of the run's state before ``step``, which is never mutated:
    the step, the store, the header, the ghost and the oracle's items."""
    return (step, lst.store.copy(), (lst.first, lst.last, lst.size), tuple(lst.ghost),
            tuple(model.items))


def run_script(
    script: OpScript,
    check_mode: CheckMode = CheckMode.OFF,
    policies: tuple[SizePolicy, ...] = (SizePolicy.UNCHECKED, SizePolicy.FAIL_FAST),
    faults: frozenset[str] = frozenset(),
) -> ScriptResult:
    """Execute the script on each policy in lock-step with its oracle
    (FailFast against the bounded documented contract, Unchecked against
    the unbounded one). Ghost-layer checks apply to the FailFast model
    only: under FULL every step goes through the contract harness, under
    INVARIANT the class invariant is re-checked after each step.
    Divergences are data; execution only aborts on a corrupted chain.
    A step that is no ``(op, args)`` pair or whose args have no length,
    an unknown operation, a wrong argument count, a check mode or policy
    that is not a member of its enum, or an empty or repeated
    ``policies`` is a UsageError, raised before anything runs; any other
    UsageError is a harness bug and propagates.

    The run owns the FailFast list, so under both checked modes each
    step assumes what the previous step's exit checks established (JML's
    visible-state semantics): the invariant holds, and the chain's items
    are the oracle's. The run opens one savepoint on the list
    (``JavaLinkedList.carry``) and never closes it. While the invariant
    holds, a step runs through ``ghostspec.checked_step``, which takes
    its writes out of that savepoint and judges it by the exit check
    scoped to them, falling back to the full ``check_invariant`` with the
    same divergence and witnesses. Under INVARIANT a step that starts
    with the invariant broken runs ``run_op``, drops its writes
    (``JavaLinkedList.take``) and is judged by the full check; once that
    check passes, the next step goes through ``checked_step`` again.
    Each policy's oracle state is one ``ModelList``, edited in place; the
    result holds its snapshot. Under FULL the oracle steps first, in a
    savepoint, and ``checked_step`` judges the call's result (the step's
    one comparison with the verdict), items and frame by its verdict and
    logged edit (the bounded FailFast oracle starts empty, so no verdict
    is Unspecified); an aborted step undoes the oracle's edit. Otherwise
    the oracle steps after the call.

    FailFast runs first. Below capacity both policies make the same calls
    on the same states: the list's capacity check and the bounded oracle
    act only on an insert at capacity, and outside FULL the FailFast list
    has no probes, so its model-free checks raise nothing an Unchecked run
    would not. A call changes the size by one (wrapping between the
    ends), sets it to 0 or leaves it, and grows the oracle's length by
    one at most, so only a step that starts with the size at one short
    of the maximum or more, or at the minimum, or the length at one short
    or more, can leave a side (a fault can part them) at the maximum. So
    outside FULL the run copies FailFast's state once, after its first
    step that leaves a side there: its store, so node ids are a full
    run's, its header, ghost and oracle items, and its outcome
    divergences so far. The Unchecked run resumes from that copy at the
    next step. With no copy, the Unchecked result is FailFast's outcome
    and abort divergences, aborted step and oracle, unbounded. Under FULL
    the loop probes and chain walks can abort FailFast alone, so both
    policies run in full. The loop runs in stretches and makes that fork
    test only at a stretch's end: from a state where it fails, no side
    can reach the maximum in fewer steps than the size's distance to one
    short of it or to its minimum, or the length's to one short.

    Inside ``shrink`` the FailFast run also saves its state (a copy of
    its store, header, ghost and oracle items, its divergences so far,
    whether the invariant holds, the fork) before the step at which
    ``shrink`` says the next candidate parts from this one. The next
    FailFast run with the same width, check mode, policies and faults
    resumes from it if the steps before it are this run's, by identity.
    That state is the one those steps lead to and is never run on (a run
    resumes on copies), so the result is a fresh run's. The Unchecked
    runs save nothing."""
    require_member(CheckMode, check_mode, "check_mode")
    for policy in policies:
        require_member(SizePolicy, policy, "policies entry")
    if not policies or len(set(policies)) != len(policies):
        raise UsageError(f"policies must name one policy or more, each once, got {policies!r}")
    if not _well_named(script.steps):
        for step in script.steps:  # raise the first bad step's UsageError
            try:
                op, args = step
                check_call(op, args)  # an unknown op or a wrong count raises its UsageError
            except (TypeError, ValueError):  # no pair, or args with no length
                raise UsageError(
                    f"a step is an (op, args) pair with sized args, got {step!r}") from None
    divergences: dict[str, list[Divergence]] = {}
    oracles: dict[str, AbstractList] = {}
    aborted: dict[str, int | None] = {}
    derive = check_mode is not CheckMode.FULL and set(policies) == set(SizePolicy)
    scope = _resumption.get()
    steps, end = script.steps, len(script.steps)
    fork = None  # FailFast's state where a side could first reach the maximum
    for policy in sorted(policies, key=lambda p: p is SizePolicy.UNCHECKED):  # FailFast first
        pname = policy.value
        if derive and fork is None and policy is SizePolicy.UNCHECKED:
            last = aborted[pname] = aborted["failfast"]
            divergences[pname] = [replace(d, policy=pname) for d in divergences["failfast"]
                                  if d.kind != "InvariantViolation" or d.step == last]
            oracles[pname] = oracles["failfast"]._replace(bounded=False)
            continue
        checked = policy is SizePolicy.FAIL_FAST and check_mode is not CheckMode.OFF
        full = checked and check_mode is CheckMode.FULL
        lst = new_list(script.width, policy, full, faults=faults)
        model = ModelList((), script.width, bounded=policy is SizePolicy.FAIL_FAST)
        divs: list[Divergence] = []
        # a checked list is new and empty: the invariant holds and its items are the oracle's
        holds = checked
        resume = site = None
        if policy is SizePolicy.FAIL_FAST and scope is not None:
            site = scope.site
            resume = scope.resume(steps, (script.width, check_mode, policies, frozenset(faults)))
            if resume:  # resume the previous run where it saved its state
                *resume, kept, holds, fork = resume
                divs = list(kept)
        elif derive and policy is SizePolicy.UNCHECKED:  # resume FailFast's run at its fork
            resume = fork
            divs = [replace(d, policy=pname) for d in divergences["failfast"]
                    if d.step < fork[0] and d.kind != "InvariantViolation"]
        start = 0
        if resume:
            start, store, header, ghost, items = resume
            # inside ``shrink`` a later run may resume from the same state: run on a copy
            lst.store = store if scope is None else store.copy()
            lst.first, lst.last, lst.size = header
            lst.replace_ghost(ghost)
            model = ModelList(items, script.width, bounded=model.bounded)
        watch = derive and fork is None
        edge = lst.max_size - 1
        aborted[pname] = None
        if checked:
            lst.carry()
        todo = enumerate(islice(steps, start, None), start)
        pos = start
        # the loop runs in stretches and does the run's bookkeeping between
        # them: the fork test, where no earlier step could have left a side
        # at the maximum, and inside ``shrink`` the save at ``site``
        while pos < end:
            stop = end
            if watch:
                stop = min(stop, pos + min(edge - lst.size, lst.size - lst.min_size,
                                           edge - len(model.items)))
            if site is not None and pos < site:
                stop = min(stop, site)
            for step, (op, args) in islice(todo, stop - pos):
                try:
                    if full:
                        model.open_savepoint()
                        verdict, _ = oracle_apply(model, op, args)
                        edits = model.close_savepoint()
                        outcome, _, failures = checked_step(lst, op, args, (verdict, model, edits))
                    elif holds:
                        outcome, _, failures = checked_step(lst, op, args)
                    else:
                        outcome = run_op(lst, op, args)
                        if checked:  # the full check below judges it; its writes are dropped
                            lst.take()
                except (ContractViolation, ChainCorruption) as e:
                    # the ghost layer no longer trusts this state, or the chain
                    # itself is corrupted (a cycle or a dangling link); stop here
                    if full:
                        model.undo(edits)
                    frame = isinstance(e, ContractViolation) and "frame" in e.categories()
                    kind = "FrameViolation" if frame else "InvariantViolation"
                    divs.append(Divergence(step, op, args, pname, str(e), None, kind))
                    aborted[pname] = step
                    break
                if not full:
                    verdict, _ = oracle_apply(model, op, args)
                    if observe_equal(outcome, verdict) == "disagree":
                        divs.append(Divergence(step, op, args, pname, _encode_outcome(outcome),
                                               _encode_verdict(verdict), classify(outcome, verdict)))
                if checked:
                    if not holds:
                        failures = check_invariant(lst)
                    holds = not failures
                    if failures:
                        divs.append(Divergence(step, op, args, pname, str(failures), None,
                                               "InvariantViolation"))
            else:
                pos = stop
                if watch and (lst.size >= edge or lst.size == lst.min_size
                              or len(model.items) >= edge):
                    fork = _state(pos, lst, model)
                    watch = False
                if site is not None and pos == site and pos < end:
                    scope.saved = (*_state(pos, lst, model), tuple(divs), holds, fork)
                continue
            break
        divergences[pname] = divs
        oracles[pname] = model.snapshot()
    names = [p.value for p in policies]  # the result keeps the order of ``policies``
    return ScriptResult(*({p: d[p] for p in names} for d in (divergences, oracles, aborted)))


# ---------------------------------------------------------------------------
# shrinking


def shrink(script: OpScript, predicate) -> OpScript:
    """Greedy, predicate-preserving minimization: one pass per chunk size,
    halving down to single steps, removing each chunk whose removal keeps
    the predicate true. A kept step is not tried again, so the result need
    not be 1-minimal. The predicate must be deterministic: it is asked
    once per distinct candidate, as a repeat of one it rejected is
    answered from the rejections (every later candidate is shorter than
    an accepted one, so none repeats it).

    For the length of the call, a FailFast ``run_script`` the predicate
    makes on the candidate ``steps[:i] + steps[i + chunk:]`` saves its
    state before step ``i``, and the run on the next candidate, which
    keeps ``steps[:i]`` too, resumes there (see ``run_script``). Results
    are a fresh run's, so the predicate's answers and the reproducer are
    unchanged. The scope is a context variable, so nested shrinks and
    other threads keep their own."""
    scope = _Resumption()
    token = _resumption.set(scope)
    try:
        if not predicate(script):
            raise UsageError("predicate does not hold on the input script")
        steps = tuple(script.steps)
        rejected: set[tuple] = set()

        def holds(candidate: tuple) -> bool:
            if candidate in rejected or not predicate(replace(script, steps=candidate)):
                rejected.add(candidate)
                return False
            return True

        chunk = max(1, len(steps) // 2)
        while chunk >= 1:
            i = 0
            while i < len(steps):
                candidate = steps[:i] + steps[i + chunk :]
                scope.site = i  # the next candidate shares steps[:i] with this one
                if holds(candidate):
                    steps = candidate
                else:
                    i += chunk
            chunk //= 2
        return replace(script, steps=steps)
    finally:
        _resumption.reset(token)


# ---------------------------------------------------------------------------
# census

#: the most adds one preparation may make, each a node it keeps: at width
#: 16 the census fast-forwards 2^16 on its one list, build_overflow_states
#: issues 2^15 + 2^16 add() calls on its two, width 32 would need billions
MAX_PREPARATION_ADDS = 1 << 17


def _require_feasible(what: str, *exponents: int) -> None:
    adds = sum(1 << e for e in exponents)
    if adds > MAX_PREPARATION_ADDS:
        formula = " + ".join(f"2^{e}" for e in exponents)
        raise UsageError(
            f"{what} needs {formula} = {adds} add() calls; "
            f"at most {MAX_PREPARATION_ADDS} are feasible"
        )


def _stage_items(width: int):
    """The adds of the two preparation stages: 2^(W-1) nulls flip the size
    sign of an empty list, then 2^(W-1) - 1 more nulls and the marker wrap
    it back to zero."""
    half = 1 << (width - 1)
    return repeat(NULL, half), chain(repeat(NULL, half - 1), (MARKER,))


def _preparation_items(width: int, wrap: bool):
    """2^(W-1) nulls to flip the size sign, or 2^W items with the marker
    last to wrap it back to zero."""
    flip, rest = _stage_items(width)
    return chain(flip, rest) if wrap else flip


def _add_each(lst: JavaLinkedList, items) -> int | None:
    """add() each item in turn; return the 1-based number of the first
    add that was refused, or None."""
    add = lst.add
    first_refusal = None
    for k, item in enumerate(items, 1):
        try:
            add(item)
        except IllegalStateError:
            if first_refusal is None:
                first_refusal = k
    return first_refusal


def prepare_overflow(width: int, policy: SizePolicy, wrap: bool):
    """Build a preparation state by repeated add(). Returns the list and
    the 1-based number of the first add it refused, or None: FailFast
    stops accepting at capacity, so the overflow never forms."""
    _require_feasible(f"the preparation at width {width}", width if wrap else width - 1)
    lst = new_list(width, policy)
    return lst, _add_each(lst, _preparation_items(width, wrap))


def build_overflow_states(width: int, policy: SizePolicy = SizePolicy.UNCHECKED):
    """The two preparation states of the reproduction procedure, each
    with the oracle state the same adds lead to: the sign flip and the
    wrap to zero."""
    _require_feasible(f"build_overflow_states at width {width}", width - 1, width)
    states = []
    for wrap in (False, True):
        lst, _ = prepare_overflow(width, policy, wrap)
        model = ModelList((), width, bounded=policy is SizePolicy.FAIL_FAST)
        model.add_all(_preparation_items(width, wrap))
        states.append((lst, model.snapshot()))
    return tuple(states)


_SEVERITY = {"OK": 0, "Unspecified-skip": 1, "WrongValue": 2, "Crash": 3}
_EFFECT_QUERIES = {"List": ("size",), "Deque": ("peek_first", "peek_last")}


def _probe_classification(impl: JavaLinkedList, model: ModelList, method: str, args: tuple) -> str:
    """Classify one probe call; it edits ``impl`` and ``model``
    themselves, so callers undo it (``impl.trial()``, ``model.undo``)."""
    outcome = run_op(impl, method, args)
    verdict, _ = oracle_apply(model, method, args)

    cmp = observe_equal(outcome, verdict)
    if cmp == "disagree":
        return "Crash" if outcome[0] == "error" else "WrongValue"
    if cmp == "skipped":
        # a search is Unspecified only when it found the element past the
        # maximum size, so a result of -1 contradicts the membership part
        # of the contract even though the exact index is unspecifiable
        if method in ("index_of", "last_index_of") and outcome == ("value", -1):
            return "WrongValue"
        return "Unspecified-skip"

    spec = OP_SPECS[method]
    if outcome[0] == "value" and verdict.kind == "value" and spec.mutating:
        # a mutation is judged by its effect too: the size, or both ends
        for query in _EFFECT_QUERIES.get(spec.interface, ()):
            answer, (documented, _) = run_op(impl, query, ()), oracle_apply(model, query, ())
            if observe_equal(answer, documented) == "disagree":
                return "WrongValue"
    return "OK"


def census(width: int, policy: SizePolicy = SizePolicy.UNCHECKED) -> list[CensusRow]:
    """Probe every implemented public List/Deque method in both overflow
    preparation states; one row per method, worst outcome wins.

    One list serves both states, since the wrap state's first 2^(W-1)
    adds are the sign flip's: the census prepares the flip state and
    probes it, then adds the rest of the wrap items to the same list and
    its oracle state and probes again. Each probe's edits of the list and
    of the oracle state are undone, so the adds go on from the state the
    flip's preparation left: 2^W adds in all. The census prepares, it does
    not reproduce, so the list takes each stage's adds in one
    ``fast_forward``, which leaves it as the single adds would. A stage
    that changed neither state (the list refused its first add, the
    oracle kept its length) is not probed again: FailFast probes once."""
    _require_feasible(f"the census at width {width}", width)
    lst = new_list(width, policy)
    model = ModelList((), width, bounded=policy is SizePolicy.FAIL_FAST)
    worst = {op: "OK" for op, spec in sorted(OP_SPECS.items()) if spec.probes}
    for stage in _stage_items(width):
        items, length = tuple(stage), len(model.items)
        refused_at = lst.fast_forward(items)
        model.add_all(items)
        del items  # the list and the oracle state hold what they keep of it
        if refused_at == 1 and len(model.items) == length:
            continue  # a guarded list refused every add: the states probed last
        for method, cls in worst.items():
            for args in OP_SPECS[method].probes:
                with lst.trial():
                    model.open_savepoint()
                    probed = _probe_classification(lst, model, method, args)
                    model.undo(model.close_savepoint())
                if _SEVERITY[probed] > _SEVERITY[cls]:
                    cls = worst[method] = probed
    return [CensusRow(method, cls) for method, cls in worst.items()]


# ---------------------------------------------------------------------------
# serialization (JSON Lines)


def _encode_value(v):
    # items are tuples too, so they are told apart before the sequences
    if isinstance(v, NullItem):
        return None
    if isinstance(v, Atom):
        return v.token
    if isinstance(v, tuple):
        return [_encode_value(x) for x in v]
    return v


def _decode_arg(v):
    if v is None:
        return NULL
    if isinstance(v, str):
        return Atom(v)
    return v


def _encode_outcome(outcome):
    tag, payload = outcome
    return {tag: _encode_value(payload)} if tag == "value" else {tag: payload}


def _encode_verdict(verdict: Verdict):
    if verdict.kind == "value":
        return {"value": _encode_value(verdict.value)}
    return {"error": verdict.error}  # an Unspecified verdict never disagrees


def dump_script(script: OpScript) -> str:
    lines = [json.dumps({"seed": script.seed, "width": script.width, "version": script.version})]
    for i, (op, args) in enumerate(script.steps):
        lines.append(json.dumps({"step": i, "op": op, "args": [_encode_value(a) for a in args]}))
    return "\n".join(lines) + "\n"


def _decode_step(rec) -> tuple[str, tuple]:
    """A step record's call, checked against its operation's arg shape."""
    if not isinstance(rec, dict) or "op" not in rec or "args" not in rec:
        raise UsageError("a step needs an \"op\" and an \"args\" field")
    spec = spec_of(rec["op"])
    raw = rec["args"]
    if not isinstance(raw, list) or len(raw) != len(spec.args):
        raise UsageError(f"{spec.name} takes {len(spec.args)} argument(s), got {raw!r}")
    for kind, v in zip(spec.args, raw):
        if kind == INDEX and type(v) is not int:
            raise UsageError(f"{spec.name}: index must be an integer, got {v!r}")
        if kind == ITEM and not (v is None or isinstance(v, str)):
            raise UsageError(f"{spec.name}: item must be null or a string, got {v!r}")
    return spec.name, tuple(_decode_arg(v) for v in raw)


def load_script(text: str) -> OpScript:
    """Parse a JSON Lines script; a malformed line is a UsageError that
    names its 1-based line number."""
    header, steps = None, []
    for n, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
            if header is not None:
                steps.append(_decode_step(rec))
            elif not (isinstance(rec, dict) and "seed" in rec and "width" in rec):
                raise UsageError("the header needs a \"seed\" and a \"width\" field")
            else:
                check_width(rec["width"])
                for field in ("seed", "version"):
                    if field in rec and type(rec[field]) is not int:
                        raise UsageError(f"{field} must be an integer, got {rec[field]!r}")
                header = rec
        except (ValueError, UsageError) as e:
            raise UsageError(f"line {n}: {e}") from None
    if header is None:
        raise UsageError("empty script file")
    return OpScript(
        seed=header["seed"],
        width=header["width"],
        steps=tuple(steps),
        version=header.get("version", GENERATOR_VERSION),
    )
