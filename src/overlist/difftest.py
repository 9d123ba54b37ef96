"""Differential testing: replayable operation scripts, lock-step
execution of both list policies against the documented-semantics oracle,
divergence classification, greedy shrinking, and the broken-method
census over the two overflow preparation states.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from itertools import chain, repeat

from .errors import ChainCorruption, ContractViolation, IllegalStateError, ListError, UsageError
from .ghostspec import check_invariant, checked_step
from .heapmodel import NULL, Atom, NullItem
from .jint import check_width
from .listcore import CheckMode, JavaLinkedList, SizePolicy, apply_op, new_list, require_member
from .oracle import (
    ALPHABET, CLEAR, INDEX, INSERT, ITEM, MARKER, OP_SPECS, REMOVE, AbstractList, Verdict,
    check_call, first_index, observe_equal, oracle_add_all, oracle_apply, spec_of,
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
        return {
            "step": self.step,
            "op": self.op,
            "args": [_encode_value(a) for a in self.args],
            "policy": self.policy,
            "impl": self.impl,
            "oracle": self.oracle,
            "kind": self.kind,
        }


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
    cum = [weights[o] for o in ops]
    est = 0
    steps = []
    for _ in range(length):
        op = rng.choices(ops, weights=cum)[0]
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


@dataclass
class ScriptResult:
    divergences: dict[str, list[Divergence]]
    lists: dict[str, JavaLinkedList]
    oracles: dict[str, AbstractList]
    aborted: dict[str, int | None]

    def total(self, policy: str) -> int:
        return len(self.divergences[policy])


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
    An unknown operation, a wrong argument count, or a check mode or
    policy that is not a member of its enum is a UsageError, raised
    before anything runs; any other UsageError is a harness bug and
    propagates.

    The run owns the FailFast list, so under both checked modes each
    step assumes what the previous step's exit checks established (JML's
    visible-state semantics): the invariant holds, and the chain's items
    are the oracle's. While the invariant holds, a step runs through
    ``ghostspec.checked_step``, inside one store savepoint, and is judged
    by the exit check scoped to that savepoint's journal, falling back to
    the full ``check_invariant`` with the same divergence and witnesses.
    Under FULL the step's oracle verdict, computed once before the call,
    also judges its result, its items and its frame; the FailFast oracle
    starts empty and is bounded, so no verdict is Unspecified and every
    step's items are compared. Under INVARIANT, after a failed full check
    every step runs the full check until one passes; from there the run
    carries again."""
    require_member(CheckMode, check_mode, "check_mode")
    for policy in policies:
        require_member(SizePolicy, policy, "policies entry")
    for op, args in script.steps:
        check_call(op, args)
    divergences: dict[str, list[Divergence]] = {}
    lists: dict[str, JavaLinkedList] = {}
    oracles: dict[str, AbstractList] = {}
    aborted: dict[str, int | None] = {}
    for policy in policies:
        pname = policy.value
        checked = policy is SizePolicy.FAIL_FAST and check_mode is not CheckMode.OFF
        full = checked and check_mode is CheckMode.FULL
        lst = new_list(script.width, policy, CheckMode.FULL if full else CheckMode.OFF, faults=faults)
        abs_state = AbstractList((), script.width, bounded=policy is SizePolicy.FAIL_FAST)
        divs: list[Divergence] = []
        aborted[pname] = None
        # the new list is empty: the invariant holds and its items are the oracle's
        holds = checked
        for step, (op, args) in enumerate(script.steps):
            verdict, abs_post = oracle_apply(abs_state, op, args)
            try:
                if holds:
                    model = (abs_state.items, verdict, abs_post) if full else None
                    outcome, _, failures = checked_step(lst, op, args, model)
                else:
                    outcome = run_op(lst, op, args)
            except (ContractViolation, ChainCorruption) as e:
                # the ghost layer no longer trusts this state, or the chain
                # itself is corrupted (a cycle or a dangling link); stop here
                frame = isinstance(e, ContractViolation) and "frame" in e.categories()
                kind = "FrameViolation" if frame else "InvariantViolation"
                divs.append(Divergence(step, op, args, pname, str(e), None, kind))
                aborted[pname] = step
                break
            abs_state = abs_post
            if observe_equal(outcome, verdict) == "disagree":
                divs.append(
                    Divergence(
                        step,
                        op,
                        args,
                        pname,
                        _encode_outcome(outcome),
                        _encode_verdict(verdict),
                        classify(outcome, verdict),
                    )
                )
            if checked:
                if not holds:
                    failures = check_invariant(lst)
                holds = not failures
                if failures:
                    divs.append(
                        Divergence(step, op, args, pname, str(failures), None, "InvariantViolation")
                    )
        divergences[pname] = divs
        lists[pname] = lst
        oracles[pname] = abs_state
    return ScriptResult(divergences, lists, oracles, aborted)


# ---------------------------------------------------------------------------
# shrinking


def shrink(script: OpScript, predicate) -> OpScript:
    """Greedy, predicate-preserving minimization: remove chunks, then
    single steps, until no single removal keeps the predicate true."""
    if not predicate(script):
        raise UsageError("predicate does not hold on the input script")
    steps = list(script.steps)

    def holds(candidate: list) -> bool:
        return predicate(replace(script, steps=tuple(candidate)))

    chunk = max(1, len(steps) // 2)
    while chunk >= 1:
        i = 0
        while i < len(steps):
            candidate = steps[:i] + steps[i + chunk :]
            if holds(candidate):
                steps = candidate
            else:
                i += chunk
        chunk //= 2
    return replace(script, steps=tuple(steps))


# ---------------------------------------------------------------------------
# census

#: the most add() calls one preparation may issue; at width 16 the census
#: issues 2^16 on its one list and build_overflow_states 2^15 + 2^16 on
#: its two, width 32 would need billions
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
    _require_feasible(f"the census at width {width}", width - 1, width)
    states = []
    for wrap in (False, True):
        lst, _ = prepare_overflow(width, policy, wrap)
        empty = AbstractList((), width, bounded=policy is SizePolicy.FAIL_FAST)
        states.append((lst, oracle_add_all(empty, _preparation_items(width, wrap))))
    return tuple(states)


_SEVERITY = {"OK": 0, "Unspecified-skip": 1, "WrongValue": 2, "Crash": 3}


def _probe_classification(
    impl: JavaLinkedList, abs_state: AbstractList, method: str, args: tuple
) -> str:
    """Classify one probe call; it runs on ``impl`` itself, so callers
    wrap it in ``impl.trial()``."""
    outcome = run_op(impl, method, args)
    verdict, abs_post = oracle_apply(abs_state, method, args)

    cmp = observe_equal(outcome, verdict)
    if cmp == "disagree":
        return "Crash" if outcome[0] == "error" else "WrongValue"
    if cmp == "skipped":
        # a search result of -1 for an element that is actually present
        # contradicts the membership part of the contract even when the
        # exact index is unspecifiable
        if (
            method in ("index_of", "last_index_of")
            and outcome == ("value", -1)
            and first_index(abs_state.items, args[0]) is not None
        ):
            return "WrongValue"
        return "Unspecified-skip"

    spec = OP_SPECS[method]
    if outcome[0] == "value" and verdict.kind == "value" and spec.mutating:
        if spec.interface == "List":
            post = run_op(impl, "size", ())
            size_verdict, _ = oracle_apply(abs_post, "size", ())
            if observe_equal(post, size_verdict) == "disagree":
                return "WrongValue"
        elif spec.interface == "Deque":
            for end in ("peek_first", "peek_last"):
                post = run_op(impl, end, ())
                end_verdict, _ = oracle_apply(abs_post, end, ())
                if observe_equal(post, end_verdict) == "disagree":
                    return "WrongValue"
    return "OK"


def census(width: int, policy: SizePolicy = SizePolicy.UNCHECKED) -> list[CensusRow]:
    """Probe every implemented public List/Deque method in both overflow
    preparation states; one row per method, worst outcome wins.

    One list serves both states, since the wrap state's first 2^(W-1)
    adds are the sign flip's: the census prepares the flip state and
    probes it, then adds the rest of the wrap items to the same list and
    its oracle state and probes again. Each probe runs in a trial, so the
    adds go on from the state the flip's preparation left: 2^W adds in
    all."""
    _require_feasible(f"the census at width {width}", width)
    lst = new_list(width, policy)
    abs_state = AbstractList((), width, bounded=policy is SizePolicy.FAIL_FAST)
    worst = {op: "OK" for op, spec in sorted(OP_SPECS.items()) if spec.probes}
    # each stage's adds, once for the list and once for its oracle state
    for list_items, oracle_items in zip(_stage_items(width), _stage_items(width)):
        _add_each(lst, list_items)
        abs_state = oracle_add_all(abs_state, oracle_items)
        for method, cls in worst.items():
            for args in OP_SPECS[method].probes:
                with lst.trial():
                    probed = _probe_classification(lst, abs_state, method, args)
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
    if verdict.kind == "error":
        return {"error": verdict.error}
    return {"unspecified": True}


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
