"""Differential testing: replayable operation scripts, lock-step
execution of both list policies against the documented-semantics oracle,
divergence classification, greedy shrinking, and the broken-method
census over the two overflow preparation states.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import chain, repeat

from .errors import ChainCorruption, ContractViolation, IllegalStateError, ListError, UsageError
from .ghostspec import check_invariant, run_checked
from .heapmodel import NULL, Atom, NullItem
from .listcore import CheckMode, JavaLinkedList, SizePolicy, apply_op, new_list
from .ops import ALPHABET, GROWS, INDEX, ITEM, MARKER, OP_SPECS, RESET, SHRINKS, check_call, spec_of
from .oracle import (
    AbstractList,
    Verdict,
    first_index,
    normalize,
    observe_equal,
    oracle_add_all,
    oracle_apply,
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
    """Deterministic pseudo-random script. Index arguments are drawn
    around a running length estimate so most positional calls land
    in-range while boundary misses stay represented."""
    if length < 0:
        raise UsageError("length must be >= 0")
    weights = weights or BALANCED_WEIGHTS
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
        effect = spec.size_effect
        if effect == GROWS:
            est += 1
        elif effect == SHRINKS and est > 0:
            est -= 1
        elif effect == RESET:
            est = 0
    return OpScript(seed=seed, width=width, steps=tuple(steps))


# ---------------------------------------------------------------------------
# execution


def run_op(lst: JavaLinkedList, op: str, args: tuple) -> tuple[str, object]:
    """Outcome of one call: ("value", v) or ("error", kind)."""
    try:
        return ("value", normalize(apply_op(lst, op, args)))
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
    An unknown operation or a wrong argument count is a UsageError,
    raised before anything runs; any other UsageError is a harness bug
    and propagates.

    Under FULL the run owns the FailFast list, so each step assumes what
    the previous step's exit checks established (JML's visible-state
    semantics): the invariant holds, and the chain's items are the
    oracle's. The step's oracle verdict is computed once, before the
    call, and ``run_checked`` is judged against it without an entry
    check. After an Unspecified verdict the items were not compared, so
    from there on every step runs the full entry check."""
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
        carry = full
        for step, (op, args) in enumerate(script.steps):
            carried = (abs_state, *oracle_apply(abs_state, op, args)) if carry else None
            try:
                if full:
                    result = run_checked(lst, op, args, carried=carried)
                else:
                    result = apply_op(lst, op, args)
                outcome = ("value", normalize(result))
            except ListError as e:
                outcome = ("error", e.kind)
            except ContractViolation as cv:
                # the ghost layer no longer trusts this state; stop here
                kind = "FrameViolation" if "frame" in cv.categories() else "InvariantViolation"
                divs.append(Divergence(step, op, args, pname, str(cv), None, kind))
                aborted[pname] = step
                break
            except ChainCorruption as cd:
                # a cycle or a dangling link means the chain itself is
                # corrupted; nothing downstream of this state is trustworthy
                divs.append(
                    Divergence(step, op, args, pname, str(cd), None, "InvariantViolation")
                )
                aborted[pname] = step
                break
            verdict, abs_state = carried[1:] if carried else oracle_apply(abs_state, op, args)
            carry = carry and verdict.kind != "unspecified"
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
            if checked and check_mode is CheckMode.INVARIANT:
                report = check_invariant(lst)
                if not report.ok:
                    divs.append(
                        Divergence(
                            step,
                            op,
                            args,
                            pname,
                            str(report.failures()),
                            None,
                            "InvariantViolation",
                        )
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

#: the most add() calls one preparation may issue; the census at width 16
#: needs 2^15 + 2^16, width 32 would need billions
MAX_PREPARATION_ADDS = 1 << 17


def _require_feasible(what: str, *exponents: int) -> None:
    adds = sum(1 << e for e in exponents)
    if adds > MAX_PREPARATION_ADDS:
        formula = " + ".join(f"2^{e}" for e in exponents)
        raise UsageError(
            f"{what} needs {formula} = {adds} add() calls; "
            f"at most {MAX_PREPARATION_ADDS} are feasible"
        )


def _preparation_items(width: int, wrap: bool):
    """2^(W-1) nulls to flip the size sign, or 2^W items with the marker
    last to wrap it back to zero."""
    n = 1 << (width if wrap else width - 1)
    return chain(repeat(NULL, n - 1), (MARKER if wrap else NULL,))


def prepare_overflow(width: int, policy: SizePolicy, wrap: bool):
    """Build a preparation state by repeated add(). Returns the list and
    the 1-based number of the first add it refused, or None: FailFast
    stops accepting at capacity, so the overflow never forms."""
    _require_feasible(f"the preparation at width {width}", width if wrap else width - 1)
    lst = new_list(width, policy)
    first_refusal = None
    for k, item in enumerate(_preparation_items(width, wrap), 1):
        try:
            lst.add(item)
        except IllegalStateError:
            if first_refusal is None:
                first_refusal = k
    return lst, first_refusal


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
    preparation states; one row per method, worst outcome wins."""
    states = build_overflow_states(width, policy)
    rows = []
    for method in sorted(op for op, spec in OP_SPECS.items() if spec.probes):
        worst = "OK"
        for lst, abs_state in states:
            for args in OP_SPECS[method].probes:
                with lst.trial():
                    cls = _probe_classification(lst, abs_state, method, args)
                if _SEVERITY[cls] > _SEVERITY[worst]:
                    worst = cls
        rows.append(CensusRow(method, worst))
    return rows


# ---------------------------------------------------------------------------
# serialization (JSON Lines)


def _encode_value(v):
    if isinstance(v, NullItem):
        return None
    if isinstance(v, Atom):
        return v.token
    if isinstance(v, (tuple, list)):
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
