"""Differential harness: script generation, lock-step execution,
shrinking, the broken-method census, and JSON Lines round-trips.

The census expectations below were derived by hand from the wrapped
arithmetic before the harness existed: with a cached size of -2^(W-1),
every signed range check of the form 0 <= i < size rejects all indices
(so index-based reads crash), search loops that consult size return
nonsense, and endpoint operations never look at size at all.
"""

import contextvars
import hashlib
import json
from dataclasses import replace
from itertools import product

import pytest

from overlist import difftest
from overlist.difftest import (
    ADD_HEAVY_WEIGHTS,
    ALPHABET,
    BALANCED_WEIGHTS,
    MARKER,
    OpScript,
    build_overflow_states,
    census,
    dump_script,
    gen_script,
    load_script,
    run_op,
    run_script,
    shrink,
)
from overlist.errors import ChainCorruption, CycleDetected, DanglingLink, UsageError
from overlist.heapmodel import NULL, Atom, NodeStore
from overlist.jint import wrap
from overlist.listcore import CheckMode, FAULTS, JavaLinkedList, SizePolicy, new_list
from overlist.oracle import INDEX, OP_SPECS, ModelList, oracle_apply

A = Atom("a")


class TestGeneration:
    def test_deterministic(self):
        assert gen_script(7, 8, 50) == gen_script(7, 8, 50)
        assert gen_script(7, 8, 50) != gen_script(8, 8, 50)

    def test_requested_length(self):
        assert len(gen_script(0, 8, 0).steps) == 0
        assert len(gen_script(0, 16, 123).steps) == 123

    def test_args_come_from_alphabet(self):
        script = gen_script(3, 8, 200)
        for op, args in script.steps:
            for a in args:
                assert isinstance(a, int) or a in ALPHABET

    def test_negative_length_rejected(self):
        with pytest.raises(UsageError):
            gen_script(0, 8, -1)


class TestRoundTrip:
    def test_dump_load_identity(self):
        script = gen_script(11, 16, 80)
        assert load_script(dump_script(script)) == script

    def test_header_carries_seed_width(self):
        import json

        header = json.loads(dump_script(gen_script(5, 16, 2)).splitlines()[0])
        assert header["seed"] == 5 and header["width"] == 16

    def test_null_survives_roundtrip(self):
        script = OpScript(0, 8, ((("add"), (NULL,)), ("index_of", (NULL,))))
        assert load_script(dump_script(script)).steps[0][1] == (NULL,)

    def test_items_encode_as_a_token_or_null(self):
        """Items are tuples, yet they are written as a token or null,
        never as a JSON list, and read back as items of their class."""
        script = OpScript(0, 8, (("add", (NULL,)), ("add", (A,)), ("set_at", (0, Atom("b")))))
        steps = [json.loads(line) for line in dump_script(script).splitlines()[1:]]
        assert [s["args"] for s in steps] == [[None], ["a"], [0, "b"]]
        decoded = [arg for _, args in load_script(dump_script(script)).steps for arg in args]
        assert [type(arg) for arg in decoded] == [type(NULL), Atom, int, Atom]

    def test_divergences_encode_items_as_a_token_or_null(self):
        """Past the sign flip, Unchecked ``set_at`` fails where the oracle
        answers the old element; with the relink skipped, FailFast's
        ``to_array`` reads a cleared node where the marker should be."""
        flip = (("add", (A,)),) * 128 + (("set_at", (0, MARKER)),)
        skip = (("add", (A,)), ("add", (NULL,)), ("add", (MARKER,)), ("remove_at", (1,)),
                ("to_array", ()))
        records = [
            d.to_json()
            for steps, policy, faults in ((flip, SizePolicy.UNCHECKED, ()),
                                          (skip, SizePolicy.FAIL_FAST, ("unlink-skip-relink",)))
            for d in run_script(OpScript(0, 8, steps), policies=(policy,),
                                faults=frozenset(faults)).divergences[policy.value]
        ]
        assert [(r["op"], r["args"], r["impl"], r["oracle"]) for r in records] == [
            ("set_at", [0, "marker"], {"error": "index_out_of_bounds"}, {"value": "a"}),
            ("to_array", [], {"value": ["a", None]}, {"value": ["a", "marker"]}),
        ]

    def test_empty_or_malformed_rejected(self):
        with pytest.raises(UsageError):
            load_script("")
        with pytest.raises(UsageError):
            load_script('{"width": 8}\n')


class TestRunScript:
    def test_no_divergence_below_capacity(self):
        script = gen_script(1, 8, 100)  # balanced: stays short
        result = run_script(script, check_mode=CheckMode.FULL)
        assert result.total("unchecked") == 0
        assert result.total("failfast") == 0

    def test_overflow_splits_the_policies(self):
        # enough adds to wrap at width 8: unchecked diverges, failfast
        # tracks its (bounded) oracle exactly
        steps = tuple([("add", (NULL,))] * 128 + [("size", ()), ("get", (0,))])
        result = run_script(OpScript(0, 8, steps), check_mode=CheckMode.INVARIANT)
        assert result.total("failfast") == 0
        kinds = {d.kind for d in result.divergences["unchecked"]}
        assert "WrongValue" in kinds or "InvariantViolation" in kinds
        by_op = {d.op: d.kind for d in result.divergences["unchecked"]}
        assert by_op.get("size") == "WrongValue"

    def test_invariant_mode_flags_wrap(self):
        steps = tuple([("add", (NULL,))] * 128)
        result = run_script(
            OpScript(0, 8, steps),
            check_mode=CheckMode.INVARIANT,
            policies=(SizePolicy.UNCHECKED,),
        )
        # the unchecked policy is never ghost-checked; divergences here
        # can only come from the oracle comparison
        assert all(d.kind != "InvariantViolation"
                   for d in result.divergences["unchecked"])

    def test_missing_error_detected(self):
        # a faulty failfast list accepts the 128th add that the
        # documented bounded contract refuses
        steps = tuple([("add", (NULL,))] * 128)
        result = run_script(
            OpScript(0, 8, steps),
            policies=(SizePolicy.FAIL_FAST,),
            faults=frozenset({"add-skip-checksize"}),
        )
        kinds = [d.kind for d in result.divergences["failfast"]]
        assert "MissingError" in kinds


BOTH = (SizePolicy.UNCHECKED, SizePolicy.FAIL_FAST)


def assert_as_single_runs(script, mode, faults, policies=BOTH):
    """A run of both policies, whose Unchecked result may be derived from
    the FailFast run, equals each policy run alone, field by field, with
    its keys in the order of ``policies``."""
    result = run_script(script, mode, policies, faults)
    alone = {p.value: run_script(script, mode, (p,), faults) for p in policies}
    for field in ("divergences", "oracles", "aborted"):
        got = getattr(result, field)
        assert list(got) == list(alone)
        for name, single in alone.items():
            assert got[name] == getattr(single, field)[name], (field, name)
    return result


#: the modes whose two-policy runs fork; under FULL both policies run in full
FORKING = [CheckMode.OFF, CheckMode.INVARIANT]
ADD = (("add", (A,)),)


def run_keeping_lists(monkeypatch, script, mode, policies, faults=frozenset()):
    """``run_script``'s result and the lists it made, in order."""
    made = []

    def keep(*args, **kwargs):
        made.append(new_list(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(difftest, "new_list", keep)
    return run_script(script, mode, policies, faults), made


def assert_forked_as_single_runs(monkeypatch, script, mode, faults) -> bool:
    """``assert_as_single_runs``; and when the Unchecked run forked from
    FailFast's rather than being derived whole, its list ends as the
    Unchecked list run alone does: header, ghost and every node's fields,
    so its node ids are a full run's. Returns whether it forked."""
    assert_as_single_runs(script, mode, faults)
    _, made = run_keeping_lists(monkeypatch, script, mode, BOTH, faults)
    if len(made) == 1:
        return False
    _, (alone,) = run_keeping_lists(monkeypatch, script, mode, (SizePolicy.UNCHECKED,), faults)
    for lst in made[1], alone:
        assert lst.policy is SizePolicy.UNCHECKED
    forked = made[1]
    assert (forked.first, forked.last, forked.size) == (alone.first, alone.last, alone.size)
    assert forked.ghost == alone.ghost
    assert ([forked.store.record(i) for i in forked.store.ids()]
            == [alone.store.record(i) for i in alone.store.ids()])
    return True


class TestDerivedUnchecked:
    """Outside FULL, FailFast runs first, and the Unchecked result is
    derived from it unless some FailFast step left the list's size or
    the oracle's length one short of the maximum or more, or the size at
    its minimum."""

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_equals_the_single_policy_runs(self, mode, fault):
        faults = frozenset() if fault is None else frozenset({fault})
        # below capacity, then past it: width 8's capacity is 127
        for weights, length in ((BALANCED_WEIGHTS, 100), (ADD_HEAVY_WEIGHTS, 60),
                                (ADD_HEAVY_WEIGHTS, 250)):
            for seed in range(4):
                assert_as_single_runs(gen_script(seed, 8, length, weights), mode, faults)
        reverse = (SizePolicy.FAIL_FAST, SizePolicy.UNCHECKED)
        assert_as_single_runs(gen_script(0, 8, 250, ADD_HEAVY_WEIGHTS), mode, faults, reverse)

    # Under ``unlink-skip-relink`` a removal leaves its cleared node, whose
    # item is null, reachable from its neighbour, so the list's searches
    # part from the oracle's. Two such steps leave one side two short of the
    # other. The adds take the side ahead to the maximum; the last add is at
    # capacity there only, and the side behind stays short of the maximum.
    B, C = Atom("b"), Atom("c")
    #: the list's forward search stops at the cleared ``b``, missing both ``c``
    SIZE_AHEAD = ((("add", (A,)), ("add", (B,)), ("add", (C,)), ("add", (C,)),
                   ("remove_at", (1,)), ("remove_item", (C,)), ("remove_item", (C,)))
                  + (("add", (NULL,)),) * 125)
    #: the list's backward search removes a cleared node twice; the oracle has no null
    LENGTH_AHEAD = ((("add", (A,)), ("add", (A,)), ("remove_last", ()), ("remove_item", (A,)),
                     ("add", (B,)), ("remove_last_occurrence", (NULL,)),
                     ("remove_last_occurrence", (NULL,)))
                    + (("add", (NULL,)),) * 127)

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("steps, last", [(SIZE_AHEAD, "WrongError"),
                                             (LENGTH_AHEAD, "MissingError")],
                             ids=["size-ahead", "length-ahead"])
    def test_an_insert_at_capacity_on_one_side_runs_unchecked(self, mode, steps, last):
        faults = frozenset({"unlink-skip-relink"})
        result = assert_as_single_runs(OpScript(0, 8, steps), mode, faults)
        unchecked = [(d.step, d.kind) for d in result.divergences["unchecked"]]
        assert unchecked == [(5, "WrongValue"), (6, "WrongValue")]
        if mode is not CheckMode.FULL:
            # the next to last add brought one side to the maximum: FailFast
            # refused the last against the oracle, or took it where it refused
            failfast = result.divergences["failfast"]
            *_, final = (d for d in failfast if d.kind != "InvariantViolation")
            assert (final.step, final.kind) == (len(steps) - 1, last)

    # The fork: the run copies FailFast's state once, after the first step
    # that leaves a side where the next step could reach the maximum, and
    # the Unchecked run resumes from it at that next step.

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_a_forked_run_equals_the_single_policy_runs(self, monkeypatch, mode, fault):
        """``shrink-faults``' shape: 400 add-heavy steps reach capacity near
        the middle. Under ``unlink-skip-relink`` most FailFast runs abort
        before it, and their Unchecked result is derived whole; seeds 21
        and 29 reach the maximum first, then abort."""
        faults = frozenset() if fault is None else frozenset({fault})
        forked = [assert_forked_as_single_runs(monkeypatch, gen_script(seed, 8, 400, ADD_HEAVY_WEIGHTS),
                                               mode, faults)
                  for seed in (0, 1, 2, 3, 21, 29)]
        assert all(forked) if fault is None else any(forked)

    #: one short of the maximum three times: the fork is the first visit's state
    LAST_VISIT = (ADD * 126
                  + (("remove_last", ()), ("add", (B,)), ("set_at", (0, C)), ("add", (B,)),
                     ("add", (C,)), ("get_first", ()), ("peek_last", ()), ("index_of", (B,))))

    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_the_fork_is_the_state_before_the_step_that_reached_the_maximum(self, monkeypatch,
                                                                             mode):
        copies = []
        copy = NodeStore.copy
        monkeypatch.setattr(NodeStore, "copy", lambda store: copies.append(len(store)) or copy(store))
        script = OpScript(0, 8, self.LAST_VISIT)
        result, made = run_keeping_lists(monkeypatch, script, mode, BOTH)
        # step 125 brings the size to 126, where the run copies its state;
        # step 126 takes it down, step 127 back to 126 and step 129 to 127:
        # the Unchecked run replays steps 126-128
        assert copies == [126] and len(made) == 2
        B, C = self.B, self.C
        assert result.oracles["unchecked"].items == (C, *(A,) * 124, B, B, C)
        assert assert_forked_as_single_runs(monkeypatch, script, mode, frozenset())

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_a_run_copies_the_store_once_at_most_and_opens_one_savepoint(self, monkeypatch,
                                                                         mode, fault):
        """Per two-policy run, ``NodeStore.copy`` runs once at most, and a
        checked FailFast list opens its one savepoint (``carry``) once and
        never closes it; add-heavy scripts cross capacity, balanced ones
        stay short of it. Under ``unlink-skip-relink`` most runs abort
        before capacity; seeds 21 and 29 reach it."""
        faults = frozenset() if fault is None else frozenset({fault})
        calls = []
        for cls, name in ((NodeStore, "copy"), (JavaLinkedList, "carry"),
                          (JavaLinkedList, "close_savepoint")):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        copied = 0
        for weights, length in ((BALANCED_WEIGHTS, 100), (ADD_HEAVY_WEIGHTS, 250),
                                (ADD_HEAVY_WEIGHTS, 400)):
            for seed in (0, 1, 2, 21, 29):
                calls.clear()
                run_script(gen_script(seed, 8, length, weights), mode, BOTH, faults)
                assert calls.count("copy") <= 1
                assert calls.count("carry") == (mode is CheckMode.INVARIANT)
                assert "close_savepoint" not in calls
                copied += calls.count("copy")
        assert copied

    #: the oracle two ahead of the list: the insert at step 132 takes the
    #: oracle to the maximum and is out of the list's range, so both
    #: policies diverge at the fork step itself
    DIVERGES_AT_FORK = LENGTH_AHEAD[:-2] + (("add_at", (125, NULL)), ("size", ()))

    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_a_divergence_at_the_fork_step_counts_once(self, monkeypatch, mode):
        faults = frozenset({"unlink-skip-relink"})
        script = OpScript(0, 8, self.DIVERGES_AT_FORK)
        assert assert_forked_as_single_runs(monkeypatch, script, mode, faults)
        result = run_script(script, mode, faults=faults)
        for policy in ("failfast", "unchecked"):
            at_fork = [d.kind for d in result.divergences[policy] if d.step == 132]
            assert at_fork[:1] == ["WrongError"] and "WrongError" not in at_fork[1:]

    #: the relink skipped, ``to_array`` runs off the chain at step 5 (FailFast
    #: alone would reach the maximum at step 128)
    ABORT_BEFORE = ADD * 4 + (("remove_at", (1,)), ("to_array", ())) + ADD * 130
    #: ``remove_last`` leaves node 2 off the ghost, and the add after it links
    #: past it, so the ghost skips an id; the maximum comes at step 128, past
    #: it Unchecked takes an add FailFast refuses, and both abort at step 132
    ABORT_AFTER = (ADD * 3 + (("remove_last", ()),) + ADD * 125
                   + (("add", (B,)), ("remove_first", ()), ("remove_at", (1,)), ("to_array", ())))

    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_an_abort_before_the_fork_derives_the_whole_result(self, monkeypatch, mode):
        faults = frozenset({"unlink-skip-relink"})
        script = OpScript(0, 8, self.ABORT_BEFORE)
        assert not assert_forked_as_single_runs(monkeypatch, script, mode, faults)
        assert run_script(script, mode, faults=faults).aborted == {"unchecked": 5, "failfast": 5}

    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_an_abort_after_the_fork_runs_on_the_copied_store(self, monkeypatch, mode):
        """The Unchecked run's abort, and its list's node ids, are a full
        run's: its ghost starts at node 1 and skips nodes 2 and 3."""
        faults = frozenset({"unlink-skip-relink"})
        script = OpScript(0, 8, self.ABORT_AFTER)
        assert assert_forked_as_single_runs(monkeypatch, script, mode, faults)
        result, (_, forked) = run_keeping_lists(monkeypatch, script, mode, BOTH, faults)
        assert result.aborted == {"unchecked": 132, "failfast": 132}
        *_, abort = result.divergences["unchecked"]
        assert (abort.kind, abort.impl) == ("InvariantViolation", str(DanglingLink(None)))
        assert forked.ghost[:3] == [1, 4, 5] and len(forked.store) == 129

    #: under ``unlink-skip-relink`` each cycle unlinks its first node
    #: twice, and the size falls by one: it first reaches -128 at the end
    #: of cycle 128 (step 639), wraps from -128 to 127 at the last step,
    #: never having been 126, and the oracle stays short
    WRAP = (ADD * 2 + (("remove_first", ()), ("remove_last", ()), ("remove_first", ()))) * 129

    @pytest.mark.parametrize("mode", FORKING, ids=lambda m: m.value)
    def test_a_size_that_wraps_to_the_maximum_forks_where_it_starts_at_the_minimum(
            self, monkeypatch, mode):
        faults = frozenset({"unlink-skip-relink"})
        script = OpScript(0, 8, self.WRAP)
        assert assert_forked_as_single_runs(monkeypatch, script, mode, faults)
        made, at_copy, unchecked_steps = [], [], []
        copy, step = NodeStore.copy, difftest.run_op

        def keep(*args, **kwargs):
            made.append(new_list(*args, **kwargs))
            return made[-1]

        def copied(store):
            at_copy.append(made[0].size)
            return copy(store)

        def unchecked_step(lst, op, args):
            if lst.policy is SizePolicy.UNCHECKED:
                unchecked_steps.append(op)
            return step(lst, op, args)

        monkeypatch.setattr(difftest, "new_list", keep)
        monkeypatch.setattr(NodeStore, "copy", copied)
        monkeypatch.setattr(difftest, "run_op", unchecked_step)
        run_script(script, mode, BOTH, faults)
        failfast, _ = made
        assert failfast.size == 127 and failfast.ghost == []
        # one copy, of the state the first step that starts at the minimum
        # starts from: the Unchecked run replays steps 640-644
        assert at_copy == [failfast.min_size]
        assert unchecked_steps == [op for op, _ in self.WRAP[640:]]

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    def test_no_call_grows_a_side_by_more_than_one(self, fault):
        """The fork's premise: from states one and two short of the
        maximum, and at the size's minimum, parted by a fault or not, a
        call changes the list's size by one (wrapping between the ends),
        sets it to 0 or leaves it, and takes the oracle's length up by one
        at most. So the first step that leaves a side at the maximum starts
        with a side one short of it or more, or with the size at its
        minimum, where the run copies its state
        (``test_a_size_that_wraps_to_the_maximum_forks_where_it_starts_at_the_minimum``)."""
        faults = frozenset() if fault is None else frozenset({fault})
        minimum = False
        for prefix in (ADD * 125, ADD * 126, self.SIZE_AHEAD[:-1], self.LENGTH_AHEAD[:-1],
                       self.WRAP[:640]):
            lst = new_list(8, SizePolicy.FAIL_FAST, faults=faults)
            model = ModelList((), 8)
            for op, args in prefix:
                run_op(lst, op, args)
                oracle_apply(model, op, args)
            minimum |= lst.size == lst.min_size
            for op, spec in OP_SPECS.items():
                kinds = [(-1, 0, 1, 125, 126, 127) if k == INDEX else ALPHABET for k in spec.args]
                for args in product(*kinds):
                    size, length = lst.size, len(model.items)
                    with lst.trial():
                        model.open_savepoint()
                        try:
                            run_op(lst, op, args)
                        except ChainCorruption:
                            pass
                        oracle_apply(model, op, args)
                        moves = {size, 0, wrap(size + 1, 8), wrap(size - 1, 8)}
                        assert lst.size in moves, (op, args)
                        assert len(model.items) <= length + 1, (op, args)
                        model.undo(model.close_savepoint())
        # only the skipped relink takes the size down to its minimum
        assert minimum == (fault == "unlink-skip-relink")


#: SHA-256 over ``run_script``'s divergences, aborted steps and final
#: oracle items for seeds 0-9 of both mixes, with no fault and with each
#: fault, under every check mode. At 250 steps the add-heavy scripts cross
#: capacity at width 8. Saved reproducers and fuzz reports depend on these.
RUN_SCRIPT_GOLDEN = "06c4765b12b82ce1b35e27f35767e7a59199205b3534b471d6cf3164e2b002d9"


def test_run_script_outputs_unchanged():
    h = hashlib.sha256()
    for mode in CheckMode:
        for weights in (BALANCED_WEIGHTS, ADD_HEAVY_WEIGHTS):
            for fault in (None, *FAULTS):
                faults = frozenset() if fault is None else frozenset({fault})
                for seed in range(10):
                    result = run_script(gen_script(seed, 8, 250, weights), mode, faults=faults)
                    record = {
                        "divergences": {p: [d.to_json() for d in ds]
                                        for p, ds in result.divergences.items()},
                        "aborted": result.aborted,
                        "oracles": {p: repr(a.items) for p, a in result.oracles.items()},
                    }
                    h.update(json.dumps(record, sort_keys=True).encode())
    assert h.hexdigest() == RUN_SCRIPT_GOLDEN


#: SHA-256 over each fault's shrunk reproducer: the first of seeds 0-3
#: whose 200-step add-heavy script diverges under invariant checking,
#: shrunk with the predicate ``overlist fuzz`` uses, "FailFast still
#: diverges". Saved reproducers depend on it.
SHRINK_GOLDEN = "9c38d87080f09bef1a0dcbbf3eeb3ec5acee7d164006f6cc408eec8f25723552"
#: the predicate calls each of those shrinks makes, each distinct
#: candidate asked once
SHRINK_CALLS = {"unlink-skip-relink": 22, "add-skip-checksize": 282, "lastindexof-off-by-one": 19}


def test_shrunk_reproducers_unchanged():
    h = hashlib.sha256()
    calls = dict.fromkeys(FAULTS, 0)
    for fault in FAULTS:
        def still_fails(s):
            calls[fault] += 1
            result = run_script(s, CheckMode.INVARIANT, policies=(SizePolicy.FAIL_FAST,),
                                faults=frozenset({fault}))
            return result.total("failfast") > 0

        scripts = (gen_script(seed, 8, 200, ADD_HEAVY_WEIGHTS) for seed in range(4))
        found = next(s for s in scripts if still_fails(s))
        calls[fault] = 0
        small = shrink(found, still_fails)
        h.update(json.dumps([fault, found.seed, dump_script(small)]).encode())
    assert h.hexdigest() == SHRINK_GOLDEN
    assert calls == SHRINK_CALLS


class TestShrink:
    def test_predicate_must_hold_initially(self):
        with pytest.raises(UsageError):
            shrink(gen_script(0, 8, 5), lambda s: False)

    def test_shrinks_overflow_repro_to_minimum(self):
        script = gen_script(0, 8, 400, ADD_HEAVY_WEIGHTS)

        def fails(s):
            return run_script(s, policies=(SizePolicy.UNCHECKED,)).total("unchecked") > 0

        assert fails(script)
        small = shrink(script, fails)
        assert fails(small)
        grows = sum(op in ("add", "add_first", "add_last", "add_at")
                    for op, _ in small.steps)
        shrinks = sum(op.startswith(("remove", "poll")) for op, _ in small.steps)
        # 1-minimal result: exactly enough adds to wrap, one witness query
        assert grows - shrinks == 128
        assert len(small.steps) == grows + shrinks + 1

    def test_a_kept_step_is_not_tried_again(self):
        """One pass per chunk size: under ``lastindexof-off-by-one`` this
        script shrinks to three steps, and dropping either add still
        diverges, since the single-step pass kept the first add before it
        dropped what made it needed."""
        def fails(s):
            result = run_script(s, CheckMode.INVARIANT, policies=(SizePolicy.FAIL_FAST,),
                                faults=frozenset({"lastindexof-off-by-one"}))
            return result.total("failfast") > 0

        small = shrink(gen_script(7, 8, 400, ADD_HEAVY_WEIGHTS), fails)
        b = Atom("b")
        assert small.steps == (("add", (b,)), ("add", (b,)), ("last_index_of", (b,)))
        assert [fails(OpScript(small.seed, 8, small.steps[:i] + small.steps[i + 1:]))
                for i in range(3)] == [True, True, False]

    def test_result_is_one_minimal(self):
        script = OpScript(0, 8, tuple(
            [("add", (NULL,))] * 130 + [("size", ()), ("get", (1,))]))

        def fails(s):
            return run_script(s, policies=(SizePolicy.UNCHECKED,)).total("unchecked") > 0

        small = shrink(script, fails)
        for i in range(len(small.steps)):
            candidate = OpScript(0, 8, small.steps[:i] + small.steps[i + 1:])
            assert not fails(candidate), f"step {i} was removable"

    def test_each_distinct_candidate_is_asked_once(self):
        """A run of equal steps offers the same candidate at many
        positions; the predicate sees each once (262 calls become 12),
        and the result is the same."""
        script = OpScript(0, 8, tuple(
            [("add", (NULL,))] * 130 + [("size", ()), ("get", (1,))]))
        asked = []

        def fails(s):
            asked.append(s.steps)
            return run_script(s, policies=(SizePolicy.UNCHECKED,)).total("unchecked") > 0

        small = shrink(script, fails)
        assert len(asked) == len(set(asked)) == 12
        assert small.steps == (("add", (NULL,)),) * 128 + (("get", (1,)),)


def fresh_run(*args):
    """``run_script`` outside any ``shrink``: in a new, empty context."""
    return contextvars.Context().run(run_script, *args)


def spy_resumptions(monkeypatch) -> list:
    """The step each FailFast run inside a ``shrink`` resumed at, 0 when
    it ran from the start."""
    resumed = []
    resume = difftest._Resumption.resume

    def spy(scope, *args):
        saved = resume(scope, *args)
        resumed.append(0 if saved is None else saved[0])
        return saved

    monkeypatch.setattr(difftest._Resumption, "resume", spy)
    return resumed


#: the step on which ``spy_failfast_ops``' ``run_op`` raises, as on a
#: corrupted chain, so a run aborts there
ABORT = ("contains", (Atom("z"),))


def spy_failfast_ops(monkeypatch) -> list:
    """The ops the FailFast list runs through ``run_op``, in order: under
    OFF, every step it runs. ``ABORT`` raises a dangling link."""
    ran = []
    run_op = difftest.run_op

    def spy(lst, op, args):
        if lst.policy is SizePolicy.FAIL_FAST:
            ran.append(op)
            if (op, args) == ABORT:
                raise DanglingLink(99)
        return run_op(lst, op, args)

    monkeypatch.setattr(difftest, "run_op", spy)
    return ran


def scoped_runs():
    """A resumption scope as ``shrink`` opens one, and ``run_script`` in
    it with the scope's ``site`` set first, as ``shrink`` sets it before
    it asks its predicate."""
    scope, context = difftest._Resumption(), contextvars.Context()
    context.run(difftest._resumption.set, scope)

    def run(site, *args):
        scope.site = site
        return context.run(run_script, *args)

    return scope, run


class TestResumption:
    """Inside ``shrink``, a FailFast run saves its state at the step where
    the next candidate parts from it, and the next run (same width, mode,
    policies and faults) resumes there if the prefix before it is the
    previous run's by identity; its result is a fresh run's."""

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_every_run_inside_a_shrink_equals_a_fresh_run(self, monkeypatch, mode):
        """With a fault the predicate is "FailFast diverges"; with none, "the
        FailFast oracle holds 40 items or more"."""
        resumed = spy_resumptions(monkeypatch)
        for fault, policies in product([None, *FAULTS], [(SizePolicy.FAIL_FAST,), BOTH]):
            faults = frozenset() if fault is None else frozenset({fault})

            def holds(s):
                result = run_script(s, mode, policies, faults)
                assert repr(result) == repr(fresh_run(s, mode, policies, faults))
                if faults:
                    return result.total("failfast") > 0
                return len(result.oracles["failfast"].items) >= 40

            scripts = (gen_script(seed, 8, 200, ADD_HEAVY_WEIGHTS) for seed in range(4))
            shrink(next(s for s in scripts if holds(s)), holds)
        assert sum(map(bool, resumed)) > len(resumed) // 2

    def test_a_candidate_resumes_at_the_previous_candidates_site(self, monkeypatch):
        """The candidate that drops ``steps[i:i + chunk]`` saves its state
        before step ``i``, which the next candidate keeps too; that one
        resumes there and runs only the steps from there. A pass starts
        again at ``i = 0``, and its first candidate shares no step."""
        resumed = spy_resumptions(monkeypatch)
        ran = spy_failfast_ops(monkeypatch)
        calls = []

        def holds(s):
            ran.clear()
            result = run_script(s, CheckMode.OFF, BOTH)
            calls.append((difftest._resumption.get().site, len(s.steps), len(ran)))
            assert ran == [op for op, _ in s.steps[len(s.steps) - len(ran):]]
            assert repr(result) == repr(fresh_run(s, CheckMode.OFF, BOTH))
            return len(result.oracles["failfast"].items) >= 40

        shrink(gen_script(0, 8, 200, ADD_HEAVY_WEIGHTS), holds)
        saved = 0
        for (site, length, count), at in zip(calls, resumed, strict=True):
            if saved > site:
                saved = 0
            assert (at, count) == (saved, length - saved)
            if site < length:  # a run saves nothing at its end
                saved = site
        assert sum(map(bool, resumed)) > len(resumed) // 2

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_a_run_keeps_one_state(self, monkeypatch, mode):
        """Inside ``shrink`` a FailFast run copies the store twice at most:
        once to run on the state it resumed from, once to save its own."""
        copies = []
        copy = NodeStore.copy
        monkeypatch.setattr(NodeStore, "copy", lambda store: copies.append(1) or copy(store))
        per_run = []
        for fault in FAULTS:
            faults = frozenset({fault})

            def diverges(s):
                copies.clear()
                result = run_script(s, mode, (SizePolicy.FAIL_FAST,), faults)
                per_run.append(len(copies))
                return result.total("failfast") > 0

            scripts = (gen_script(seed, 8, 200, ADD_HEAVY_WEIGHTS) for seed in range(4))
            shrink(next(s for s in scripts if diverges(s)), diverges)
        assert max(per_run) == 2

    def test_a_run_stopped_before_its_site_keeps_the_older_state(self, monkeypatch):
        """A run that aborts before its site saves nothing, and the next
        run resumes from the state the run before saved; the divergences
        before it are kept."""
        ran = spy_failfast_ops(monkeypatch)
        scope, run = scoped_runs()
        script = gen_script(3, 8, 100)
        steps = script.steps
        aborts = steps[:50] + (ABORT,) + steps[50:]
        resumes = aborts[:45] + steps[80:]
        faults = frozenset({"lastindexof-off-by-one"})
        for site, s, count, saved in ((30, steps, 100, 30), (60, aborts, 21, 30),
                                      (60, resumes, 65 - 30, 60)):
            args = (replace(script, steps=s), CheckMode.OFF, BOTH, faults)
            fresh = repr(fresh_run(*args))
            ran.clear()
            assert repr(run(site, *args)) == fresh
            assert (len(ran), scope.saved[0]) == (count, saved)
        diverged = fresh_run(script, CheckMode.OFF, BOTH, faults).divergences["failfast"]
        assert [d.step for d in diverged] == [5, 28]

    def test_a_run_that_parts_before_the_saved_state_drops_it(self, monkeypatch):
        """A run that does not share the steps before the saved state, or
        ends before it, runs from the start and drops that state, so a later
        run that shares them with it does not resume there either; a run
        with another key drops it too."""
        resumed = spy_resumptions(monkeypatch)
        ran = spy_failfast_ops(monkeypatch)
        scope, run = scoped_runs()
        script, other = gen_script(3, 8, 100), gen_script(1, 8, 60)
        steps = script.steps
        runs = ((30, steps, CheckMode.OFF), (0, steps[:20], CheckMode.OFF),
                (30, steps, CheckMode.OFF), (0, other.steps, CheckMode.OFF),
                (50, other.steps[:40] + steps[40:], CheckMode.OFF), (30, steps, CheckMode.OFF),
                (0, steps, CheckMode.INVARIANT))
        for site, s, mode in runs:
            args = (replace(script, steps=s), mode, BOTH)
            fresh = repr(fresh_run(*args))
            ran.clear()
            assert repr(run(site, *args)) == fresh
            if mode is CheckMode.OFF:
                assert len(ran) == len(s) - resumed[-1]
        assert resumed == [0] * len(runs) and scope.saved is None

    B = Atom("b")
    #: past capacity, where the Unchecked run forks before step 126
    PAST = ADD * 130 + (("size", ()), ("get", (1,)))

    def test_a_state_saved_past_the_fork_keeps_it(self, monkeypatch):
        """A run that shares 128 steps with the previous one resumes at
        its state before step 128 and runs 3 FailFast steps; its Unchecked
        run resumes at the fork that state holds."""
        ran = spy_failfast_ops(monkeypatch)
        _, run = scoped_runs()
        for steps, count in ((self.PAST, 132),
                             (self.PAST[:128] + (("get", (0,)), ("add", (self.B,)), ("size", ())), 3)):
            args = (OpScript(0, 8, steps), CheckMode.OFF, BOTH)
            fresh = repr(fresh_run(*args))
            ran.clear()
            assert repr(run(128, *args)) == fresh
            assert len(ran) == count

    def test_a_run_resumed_with_the_invariant_broken_checks_it_in_full(self, monkeypatch):
        """Under ``add-skip-checksize`` step 127's add wraps the size, and
        the invariant stays broken: the state saved before step 128 records
        that, and a run resumed there checks every step in full."""
        faults = frozenset({"add-skip-checksize"})
        longer = self.PAST[:128] + (("add_first", (self.B,)),) + self.PAST[128:]
        resumed = spy_resumptions(monkeypatch)
        _, run = scoped_runs()
        results = []
        for steps in (self.PAST, longer):
            args = (OpScript(0, 8, steps), CheckMode.INVARIANT, (SizePolicy.FAIL_FAST,), faults)
            result = run(128, *args)
            assert repr(result) == repr(fresh_run(*args))
            results.append([(d.step, d.kind) for d in result.divergences["failfast"]])
        assert resumed == [0, 128]
        broken = [step for step, kind in results[1] if kind == "InvariantViolation"]
        assert broken == list(range(127, len(longer)))

    #: under ``unlink-skip-relink`` the removal breaks the invariant
    #: through the links alone, not the cached size, and the adds after it
    #: leave it broken; every item differs, so no two candidates are equal
    UNLINKED = (tuple(("add", (Atom(t),)) for t in "abcdefghij") + (("remove_at", (4,)),)
                + tuple(("add_last", (Atom(t),)) for t in "klmnopqrs"))

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_a_resumed_run_keeps_whether_the_invariant_holds(self, monkeypatch, mode):
        """A run resumed after the removal starts with the invariant broken,
        as a fresh run reaches that step, and checks each step in full."""
        faults = frozenset({"unlink-skip-relink"})
        resumed = spy_resumptions(monkeypatch)
        for policies in ((SizePolicy.FAIL_FAST,), BOTH):
            def holds(s):
                result = run_script(s, mode, policies, faults)
                assert repr(result) == repr(fresh_run(s, mode, policies, faults))
                return ("remove_at", (4,)) in s.steps and len(s.steps) >= 16

            shrink(OpScript(0, 8, self.UNLINKED), holds)
        # under FULL the removal's contract check aborts the run there
        removal = self.UNLINKED.index(("remove_at", (4,)))
        assert (max(resumed) > removal) == (mode is not CheckMode.FULL)

    #: equal by ``==`` step for step, yet no step object is shared, and
    #: the items differ by type: ``NULL == ()`` and ``A == ("a",)``
    TYPED = ((("add", (NULL,)),) * 20 + (("add", (A,)),) * 30
             + (("index_of", (NULL,)), ("last_index_of", (A,)), ("to_array", ())))
    UNTYPED = ((("add", ((),)),) * 20 + (("add", (("a",),)),) * 30
               + (("index_of", ((),)), ("last_index_of", (("a",),)), ("to_array", ())))

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_steps_equal_by_value_are_not_shared(self, monkeypatch, mode):
        """Each run saves its state before step 50; none resumes from the
        other's."""
        assert self.TYPED == self.UNTYPED
        resumed = spy_resumptions(monkeypatch)
        _, run = scoped_runs()
        results = []
        for steps in (self.TYPED, self.UNTYPED, self.TYPED):
            script = OpScript(0, 8, steps)
            result = run(50, script, mode, (SizePolicy.FAIL_FAST,))
            assert repr(result) == repr(fresh_run(script, mode, (SizePolicy.FAIL_FAST,)))
            results.append(repr(result))
        assert resumed[:3] == [0, 0, 0]
        assert results[0] != results[1] and results[0] == results[2]

    def test_no_scope_is_left_behind(self):
        script = gen_script(0, 8, 40)
        assert difftest._resumption.get() is None
        with pytest.raises(ZeroDivisionError):
            shrink(script, lambda s: 1 / 0)
        assert difftest._resumption.get() is None
        with pytest.raises(UsageError):
            shrink(script, lambda s: False)
        assert difftest._resumption.get() is None
        scopes = []

        def holds(s):  # shrinks another script inside each call
            outer = difftest._resumption.get()
            shrink(gen_script(1, 8, 20), lambda t: scopes.append(difftest._resumption.get()) or True)
            assert difftest._resumption.get() is outer is not None
            scopes.append(outer)
            return len(s.steps) > 30

        shrink(script, holds)
        assert difftest._resumption.get() is None
        assert len(set(map(id, scopes))) > 2


EXPECTED_CENSUS = {
    "add": "WrongValue",
    "add_at": "Crash",
    "add_first": "OK",
    "add_last": "OK",
    "clear": "OK",
    "contains": "WrongValue",
    "get": "Crash",
    "get_first": "OK",
    "get_last": "OK",
    "index_of": "WrongValue",
    "last_index_of": "WrongValue",
    "peek_first": "OK",
    "peek_last": "OK",
    "poll_first": "OK",
    "poll_last": "OK",
    "remove_at": "Crash",
    "remove_first": "OK",
    "remove_first_occurrence": "WrongValue",
    "remove_item": "WrongValue",
    "remove_last": "OK",
    "remove_last_occurrence": "WrongValue",
    "set_at": "Crash",
    "size": "WrongValue",
    "to_array": "Unspecified-skip",
}


class TestCensus:
    def test_unchecked_census_matches_derivation(self):
        rows = {r.method: r.classification for r in census(8, SizePolicy.UNCHECKED)}
        assert rows == EXPECTED_CENSUS

    def test_failfast_census_all_ok(self):
        rows = census(8, SizePolicy.FAIL_FAST)
        assert all(r.classification == "OK" for r in rows)

    def test_failfast_census_all_ok_at_width_16(self):
        rows = census(16, SizePolicy.FAIL_FAST)
        assert all(r.classification == "OK" for r in rows)

    def test_preparation_states(self):
        (s1, _), (s2, abs2) = build_overflow_states(8)
        assert s1.size == -128 and len(s1.chain()) == 128
        assert s2.size == 0 and len(s2.chain()) == 256
        assert s2.get_last() == MARKER
        assert len(abs2.items) == 256  # the oracle sees the true sequence

    def test_failfast_preparation_never_overflows(self):
        (s1, _), (s2, _) = build_overflow_states(8, SizePolicy.FAIL_FAST)
        assert s1.size == 127 and s2.size == 127


class TestFaultVisibility:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_changes_observable_behavior(self, fault):
        found = False
        for seed in range(12):
            script = gen_script(seed, 8, 250, ADD_HEAVY_WEIGHTS)
            result = run_script(script, check_mode=CheckMode.FULL,
                                policies=(SizePolicy.FAIL_FAST,),
                                faults=frozenset({fault}))
            if result.total("failfast"):
                found = True
                break
        assert found, f"fault {fault} never detected"


class TestChainCorruption:
    def test_unlink_skip_relink_ends_in_divergences(self):
        # the fault leaves an unlinked node reachable on the Unchecked
        # list; a later add_at splices in front of it although the ghost
        # no longer holds it, then the walk falls off the broken chain
        script = gen_script(2, 8, 300)
        result = run_script(script, check_mode=CheckMode.FULL,
                            faults=frozenset({"unlink-skip-relink"}))
        assert result.aborted == {"unchecked": 89, "failfast": 23}
        last = result.divergences["unchecked"][-1]
        assert (last.step, last.op, last.kind) == (89, "to_array", "InvariantViolation")
        assert "dangling link" in last.impl
        assert result.divergences["failfast"][-1].kind == "InvariantViolation"

    @staticmethod
    def _script_raising(monkeypatch, error):
        """A three-step script whose second step raises ``error``."""
        real = difftest.apply_op

        def apply_op(lst, op, args):
            if op == "size":
                raise error
            return real(lst, op, args)

        monkeypatch.setattr(difftest, "apply_op", apply_op)
        return OpScript(0, 8, (("add", (A,)), ("size", ()), ("add", (A,))))

    @pytest.mark.parametrize("error", [CycleDetected(3, 5), DanglingLink(99)],
                             ids=["cycle", "dangling"])
    def test_corrupted_chain_is_an_invariant_violation(self, monkeypatch, error):
        result = run_script(self._script_raising(monkeypatch, error))
        for policy in ("unchecked", "failfast"):
            assert result.aborted[policy] == 1
            (div,) = result.divergences[policy]
            assert (div.op, div.kind, div.impl) == ("size", "InvariantViolation", str(error))

    def test_harness_error_propagates(self, monkeypatch):
        with pytest.raises(UsageError, match="harness bug"):
            run_script(self._script_raising(monkeypatch, UsageError("harness bug")))


class TestValidation:
    def test_unknown_op_rejected_before_running(self):
        script = OpScript(0, 8, (("add", (NULL,)), ("sort", ())))
        with pytest.raises(UsageError, match="unknown operation 'sort'"):
            run_script(script)

    @pytest.mark.parametrize("bad", [("get", ()), ("add", (A, A)), ("index_of", ())])
    @pytest.mark.parametrize("mode", list(CheckMode))
    def test_wrong_argument_count_rejected_before_running(self, monkeypatch, bad, mode):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)), bad))
        with pytest.raises(UsageError, match=rf"{bad[0]} takes 1 argument\(s\)"):
            run_script(script, mode)

    @pytest.mark.parametrize("bad,message", [
        (("sort", ()), "unknown operation 'sort'"),
        (("get", ()), "get takes 1 argument(s), got ()"),
        ((5, ()), "unknown operation 5"),
        ((["add"], (NULL,)), "unknown operation ['add']"),
        (("add",), None),
        (("add", (NULL,), 1), None),
        (5, None),
        (("add", 5), None),
    ], ids=["unknown-op", "wrong-count", "non-str-op", "unhashable-op", "short", "long",
            "no-pair", "unsized-args"])
    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_malformed_step_rejected_before_running(self, monkeypatch, bad, message, mode):
        """The one-pass test fails on each malformed shape, and the walk
        then raises the UsageError the per-step check gave for the shapes
        it named; a step that is no pair, or has args with no length, is
        a UsageError too."""
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        steps = (("add", (NULL,)), bad, ("size", ()))
        assert not difftest._well_named(steps)
        with pytest.raises(UsageError) as raised:
            run_script(OpScript(0, 8, steps), mode)
        pair = f"a step is an (op, args) pair with sized args, got {bad!r}"
        assert str(raised.value) == (message or pair)

    @pytest.mark.parametrize("length", [100, 400])
    def test_fast_check_passes_generated_scripts(self, length):
        for weights in (BALANCED_WEIGHTS, ADD_HEAVY_WEIGHTS):
            for seed in range(20):
                assert difftest._well_named(gen_script(seed, 8, length, weights).steps)
        assert difftest._well_named(())

    @pytest.mark.parametrize("mode", [m.value for m in CheckMode])
    def test_check_mode_string_rejected_before_running(self, monkeypatch, mode):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match="check_mode must be a CheckMode"):
            run_script(script, check_mode=mode)

    @pytest.mark.parametrize("mode", list(CheckMode), ids=lambda m: m.value)
    def test_unknown_fault_rejected_before_running(self, monkeypatch, mode):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match=r"unknown faults \['bogus'\]"):
            run_script(script, mode, faults=frozenset({"bogus"}))

    @pytest.mark.parametrize("policy", [p.value for p in SizePolicy])
    def test_policy_string_rejected_before_running(self, monkeypatch, policy):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match="policies entry must be a SizePolicy"):
            run_script(script, policies=(SizePolicy.UNCHECKED, policy))

    @pytest.mark.parametrize("policies", [
        (), (SizePolicy.FAIL_FAST, SizePolicy.FAIL_FAST, SizePolicy.UNCHECKED),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_policies_rejected_before_running(self, monkeypatch, policies):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match="policies must name one policy or more, each once"):
            run_script(script, CheckMode.INVARIANT, policies)

    @pytest.mark.parametrize("seed,width", [(1, 7), ("x", 8), (True, 8), (1.5, 8)],
                             ids=["width-7", "seed-str", "seed-bool", "seed-float"])
    def test_gen_script_rejects_a_header_load_script_would(self, seed, width):
        with pytest.raises(UsageError):
            load_script(dump_script(OpScript(seed, width, ())))
        with pytest.raises(UsageError):
            gen_script(seed, width, 3)

    @pytest.mark.parametrize("length", [2.0, True, -1, "3"])
    def test_gen_script_rejects_a_length_that_is_not_a_count(self, length):
        with pytest.raises(UsageError, match="length must be a non-negative integer"):
            gen_script(0, 8, length)

    @pytest.mark.parametrize("weights", [
        {}, {"add": -1, "get": 2}, {"add": 0}, {"add": float("nan")}, {"add": float("inf")},
        {"add": "1"}, {"add": True},
    ], ids=["empty", "negative", "all-zero", "nan", "inf", "str", "bool"])
    def test_gen_script_rejects_a_mix_that_draws_badly(self, weights):
        with pytest.raises(UsageError):
            gen_script(0, 8, 3, weights)

    def test_gen_script_default_mix_is_balanced(self):
        assert gen_script(5, 8, 40) == gen_script(5, 8, 40, BALANCED_WEIGHTS)
        assert gen_script(5, 8, 40, {"add": 0, "get": 1.5}).steps[0][0] == "get"

    def test_load_names_the_line(self):
        text = '{"seed": 0, "width": 8}\n\n{"op": "get", "args": [true]}\n'
        with pytest.raises(UsageError, match="line 3: get: index must be an integer"):
            load_script(text)

    def test_infeasible_census_rejected(self):
        # one list takes all 2^W adds, the flip's 2^(W-1) among them
        with pytest.raises(UsageError, match=r"census at width 32 needs 2\^32 = 4294967296 add"):
            census(32)
