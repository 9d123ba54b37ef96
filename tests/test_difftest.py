"""Differential harness: script generation, lock-step execution,
shrinking, the broken-method census, and JSON Lines round-trips.

The census expectations below were derived by hand from the wrapped
arithmetic before the harness existed: with a cached size of -2^(W-1),
every signed range check of the form 0 <= i < size rejects all indices
(so index-based reads crash), search loops that consult size return
nonsense, and endpoint operations never look at size at all.
"""

import hashlib
import json

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
    run_script,
    shrink,
)
from overlist.errors import CycleDetected, DanglingLink, UsageError
from overlist.heapmodel import NULL, Atom
from overlist.listcore import CheckMode, FAULTS, SizePolicy

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


#: SHA-256 over each fault's shrunk reproducer and the number of predicate
#: calls its shrinking made: the first of seeds 0-3 whose 200-step
#: add-heavy script diverges under invariant checking, shrunk with the
#: predicate ``overlist fuzz`` uses, "FailFast still diverges".
SHRINK_GOLDEN = "45ebb29339019fb277a1cd9940f538f5d2f5b576da2bf69fe9491c26db5b2f8d"


def test_shrunk_reproducers_unchanged():
    h = hashlib.sha256()
    for fault in FAULTS:
        calls = 0

        def still_fails(s):
            nonlocal calls
            calls += 1
            result = run_script(s, CheckMode.INVARIANT, policies=(SizePolicy.FAIL_FAST,),
                                faults=frozenset({fault}))
            return result.total("failfast") > 0

        scripts = (gen_script(seed, 8, 200, ADD_HEAVY_WEIGHTS) for seed in range(4))
        found = next(s for s in scripts if still_fails(s))
        calls = 0
        small = shrink(found, still_fails)
        h.update(json.dumps([fault, found.seed, dump_script(small), calls]).encode())
    assert h.hexdigest() == SHRINK_GOLDEN


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

    def test_result_is_one_minimal(self):
        script = OpScript(0, 8, tuple(
            [("add", (NULL,))] * 130 + [("size", ()), ("get", (1,))]))

        def fails(s):
            return run_script(s, policies=(SizePolicy.UNCHECKED,)).total("unchecked") > 0

        small = shrink(script, fails)
        for i in range(len(small.steps)):
            candidate = OpScript(0, 8, small.steps[:i] + small.steps[i + 1:])
            assert not fails(candidate), f"step {i} was removable"


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

    @pytest.mark.parametrize("mode", [m.value for m in CheckMode])
    def test_check_mode_string_rejected_before_running(self, monkeypatch, mode):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        monkeypatch.setattr(difftest, "checked_step", lambda *a, **k: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match="check_mode must be a CheckMode"):
            run_script(script, check_mode=mode)

    @pytest.mark.parametrize("policy", [p.value for p in SizePolicy])
    def test_policy_string_rejected_before_running(self, monkeypatch, policy):
        monkeypatch.setattr(difftest, "apply_op", lambda *a: pytest.fail("a step ran"))
        script = OpScript(0, 8, (("add", (NULL,)),))
        with pytest.raises(UsageError, match="policies entry must be a SizePolicy"):
            run_script(script, policies=(SizePolicy.UNCHECKED, policy))

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
