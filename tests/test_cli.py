"""Command-line interface: exit codes, text shape, JSON stability."""

import functools
import hashlib
import json
from collections import Counter

import pytest

from overlist import cli
from overlist.cli import main
from overlist.difftest import (
    ADD_HEAVY_WEIGHTS,
    BALANCED_WEIGHTS,
    census,
    dump_script,
    gen_script,
    load_script,
    run_script,
    shrink,
)
from overlist.listcore import CheckMode, JavaLinkedList, SizePolicy


class TestRepro:
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_each_case_reproduces(self, case, capsys):
        assert main(["repro", str(case)]) == 0
        out = capsys.readouterr().out
        assert "bug reproduced" in out
        assert "expected" in out and "observed" in out

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_fixed_variant_never_reproduces(self, case, capsys):
        assert main(["repro", str(case), "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "fail-fast guard held" in out

    def test_json_report(self, capsys):
        assert main(["repro", "1", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["case"] == 1
        assert report["observed"] == -128
        assert report["expected"] == 127
        assert report["reproduced"] is True

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["repro", "4", "--format", "json", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["observed"] == -1 and report["marker_position"] == 255

    def test_bad_case_is_usage_error(self):
        assert main(["repro", "9"]) == 2

    @pytest.mark.parametrize("case, method, observed", [
        (2, "get", "returned ()"), (3, "to_array", "array of length 0"),
    ], ids=["get", "to_array"])
    def test_a_call_that_does_not_raise_is_not_reproduced(self, case, method, observed,
                                                          monkeypatch, capsys):
        monkeypatch.setattr(JavaLinkedList, method, lambda self, *args: ())
        assert main(["repro", str(case)]) == 1
        out = capsys.readouterr().out
        assert f"observed:              {observed}\n" in out
        assert out.endswith("  verdict: NOT reproduced\n")
        assert main(["repro", str(case), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["reproduced"] is False and report["observed"] == observed


#: SHA-256 over the standard output of ``repro 1`` ... ``repro 5`` in turn,
#: or of ``census``, at width 8; keyed by (command, --fixed, --format)
GOLDEN_OUTPUTS = {
    ("repro", False, "text"): "ad46787df987bfc8f81f5a3f4480ad16329961078e71e579017743bea0891fb2",
    ("repro", False, "json"): "9311d386116f2bbd2109c3061e527c88668044151ee8d987fe8ead41f3c69d79",
    ("repro", True, "text"): "d28c84f5826c82691784c3a6269f9aff3197e4238003ee8de3afaa33271f9981",
    ("repro", True, "json"): "d3b279758dfeaa1ceccf44f1a630dba2b20cb929e836d2eeccabffd7111463b0",
    ("census", False, "text"): "aa78079b6990d616735889276e0bd1da70c7016fc5261a4075ae818b92824462",
    ("census", False, "json"): "4acbbd1412dd22dd977c8992929d9f12b2a760999f36b3043ff1115ee6fd212f",
    ("census", True, "text"): "397212786221ef5b9e37780c6c637bb631ae4c0662f64d7aa3f27c40be49857e",
    ("census", True, "json"): "91b26218909f7fb1b343ceabc0f0409303ef8678a4432300346833e7c29529da",
}


#: SHA-256 over the JSON list of ``[method, classification]`` rows of
#: ``census(16, policy)``, as the census gave them when it still prepared
#: its states with single add() calls
GOLDEN_CENSUS_W16 = {
    SizePolicy.UNCHECKED: "834f2386f1e27b6df62458ab7fc756915d42d9329a07ed8b1f56c7b647cce16f",
    SizePolicy.FAIL_FAST: "4041905bd02a483cd2741ff410a66aa3d3152e38b163edf43f430fb6cce4e63a",
}


@pytest.mark.parametrize("policy", sorted(GOLDEN_CENSUS_W16, key=lambda p: p.value),
                         ids=lambda p: p.value)
def test_width_16_census_is_unchanged(policy):
    rows = json.dumps([[r.method, r.classification] for r in census(16, policy)])
    assert hashlib.sha256(rows.encode()).hexdigest() == GOLDEN_CENSUS_W16[policy]


@pytest.mark.parametrize("key", sorted(GOLDEN_OUTPUTS),
                         ids=lambda k: f"{k[0]}{'-fixed' if k[1] else ''}-{k[2]}")
def test_outputs_are_byte_identical(key, capsys):
    """The reproduction's reports stay byte-for-byte what they were."""
    command, fixed, fmt = key
    h = hashlib.sha256()
    for case in (["1", "2", "3", "4", "5"] if command == "repro" else [None]):
        argv = [command, *([case] if case else []), "--width", "8", "--format", fmt]
        assert main(argv + (["--fixed"] if fixed else [])) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == GOLDEN_OUTPUTS[key]


class TestCensusCommand:
    def test_json_matches_library(self, capsys):
        assert main(["census", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        lib = [{"method": r.method, "classification": r.classification}
               for r in census(8, SizePolicy.UNCHECKED)]
        assert report["rows"] == lib

    def test_fixed_census_text(self, capsys):
        assert main(["census", "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "0 of 24 methods classified non-OK" in out


class TestFuzzCommand:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["fuzz", "--ops", "300", "--seed", "5"]) == 0
        assert "0 divergences" in capsys.readouterr().out

    @pytest.mark.parametrize("mix, weights", [
        ("balanced", BALANCED_WEIGHTS), ("add-heavy", ADD_HEAVY_WEIGHTS),
    ], ids=["balanced", "add-heavy"])
    def test_tally_counts_what_run_script_finds(self, mix, weights, capsys):
        """One line per Unchecked divergence kind, most common first, over
        every script the run made, its short last one too; balanced scripts
        never reach capacity, so a balanced run prints no such line."""
        seed, length, ops = 4, 400, 1050
        argv = ["fuzz", "--mix", mix, "--length", str(length), "--ops", str(ops)]
        assert main(argv + ["--seed", str(seed)]) == 0
        expected = Counter()
        for k, n in enumerate([length] * (ops // length) + [ops % length]):
            result = run_script(gen_script(seed + k, 8, n, weights), CheckMode.INVARIANT)
            expected.update(d.kind for d in result.divergences["unchecked"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"Unchecked: {expected.total()} divergences (informational)"
        assert lines[2:] == [f"  {kind}: {n}" for kind, n in expected.most_common()]
        assert bool(expected) == (mix == "add-heavy")

    def test_env_seed_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("OVERLIST_SEED", "9")
        assert main(["fuzz", "--ops", "100"]) == 0

    def test_divergence_is_shrunk_and_written(self, monkeypatch, tmp_path, capsys):
        """The reproducer a FailFast-only predicate finds is the one a
        predicate running both policies finds."""
        faults = frozenset({"lastindexof-off-by-one"})
        monkeypatch.setattr(cli, "run_script", functools.partial(run_script, faults=faults))
        path = tmp_path / "shrunk.jsonl"
        argv = ["fuzz", "--ops", "100", "--seed", "3", "--out", str(path)]
        assert main(argv) == 1
        assert "FailFast divergence at seed 3" in capsys.readouterr().out

        def both_policies_fail(s):
            result = run_script(s, check_mode=CheckMode.INVARIANT, faults=faults)
            return result.total("failfast") > 0

        expected = shrink(gen_script(3, 8, 100, BALANCED_WEIGHTS), both_policies_fail)
        assert path.read_text() == dump_script(expected)

    def test_only_the_first_run_uses_both_policies(self, monkeypatch, tmp_path, capsys):
        """After the generated script diverged, the shrinker's runs and the
        re-run that names the divergence run FailFast alone; the report is
        the one a re-run on both policies gives."""
        faults = frozenset({"lastindexof-off-by-one"})
        both = (SizePolicy.UNCHECKED, SizePolicy.FAIL_FAST)
        runs = []

        def recording(script, check_mode, policies=both):
            runs.append(policies)
            return run_script(script, check_mode, policies, faults)

        monkeypatch.setattr(cli, "run_script", recording)
        path = tmp_path / "shrunk.jsonl"
        assert main(["fuzz", "--ops", "100", "--seed", "3", "--out", str(path)]) == 1
        assert runs[0] == both and len(runs) > 2
        assert set(runs[1:]) == {(SizePolicy.FAIL_FAST,)}

        small = load_script(path.read_text())
        first = run_script(small, CheckMode.INVARIANT, faults=faults).divergences["failfast"][0]
        assert capsys.readouterr().out == (
            f"FailFast divergence at seed 3: {first.kind} on {first.op}\n"
            f"shrunk script ({len(small.steps)} steps) written to {path}\n"
        )


class TestReplayCommand:
    def test_replay_saved_script(self, tmp_path, capsys):
        path = tmp_path / "script.jsonl"
        path.write_text(dump_script(gen_script(2, 8, 40)))
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unchecked: 0 divergences" in out
        assert "failfast: 0 divergences" in out

    def test_missing_file_is_io_error(self):
        assert main(["replay", "/nonexistent/script.jsonl"]) == 2

    def test_garbage_file_is_io_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["replay", str(path)]) == 2


#: SHA-256 over the standard output of ``check --ops 500`` at widths 8 and
#: 16, seeds 0 and 1 in turn; it pins the counts ``check`` reports
GOLDEN_CHECK = "1d4f5df4019a8041753fe17c5e4a98a29a0b61b35c5f020c6bddb7eb5a2248e2"


class TestCheckCommand:
    def test_small_battery_passes(self, capsys):
        assert main(["check", "--ops", "200", "--seed", "0"]) == 0
        assert "properties hold" in capsys.readouterr().out

    def test_output_is_byte_identical(self, capsys):
        h = hashlib.sha256()
        for width in ("8", "16"):
            for seed in ("0", "1"):
                assert main(["check", "--ops", "500", "--width", width, "--seed", seed]) == 0
                h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == GOLDEN_CHECK


#: a check that fails on every state it is given, with the line ``check``
#: prints for an enumerated list and for a random state it fails on; a
#: random state that fails C2 alone is the invariant's failure there
FAILING_CHECKS = {
    "check_invariant": (lambda lst: [("C2", "broken")],
                        "enumerated list violates invariant: [('C2', 'broken')]",
                        "C1 held but C2 failed (redundancy broken)"),
    "check_acyclic": (lambda lst: (False, 7), "invariant held but acyclicity failed at 7",
                      "invariant held but a derived property failed"),
    "check_unique_endpoints": (lambda lst: (False, 7),
                               "invariant held but unique endpoints failed at 7",
                               "invariant held but a derived property failed"),
}


@pytest.mark.parametrize("name", sorted(FAILING_CHECKS))
class TestCheckFailures:
    """``check`` exits 1 on any failed property and prints a ``FAIL:``
    line for each of the first 20 failures."""

    def run(self, capsys, ops, enumerated):
        """Run ``check``; return how many random states held the
        invariant, and the ``FAIL:`` lines."""
        assert main(["check", "--ops", str(ops), "--seed", "0"]) == 1
        summary, *fails = capsys.readouterr().out.splitlines()
        assert summary.startswith(f"enumerated {enumerated} small lists, {ops} random states (")
        return int(summary.split("(")[1].split()[0]), fails

    def test_enumerated_failures_are_reported_up_to_20(self, name, monkeypatch, capsys):
        fake, line, _ = FAILING_CHECKS[name]
        monkeypatch.setattr(cli, name, fake)
        assert self.run(capsys, 10, 364)[1] == [f"FAIL: {line}"] * 20

    @pytest.mark.parametrize("ops", [5, 60])
    def test_random_state_failures_are_reported_up_to_20(self, name, ops, monkeypatch, capsys):
        fake, _, line = FAILING_CHECKS[name]
        monkeypatch.setattr(cli, "enumerate_lists", lambda **kwargs: iter(()))
        monkeypatch.setattr(cli, name, fake)
        held, fails = self.run(capsys, ops, 0)
        failed = ops if name == "check_invariant" else held
        assert 0 < failed and fails == [f"FAIL: {line}"] * min(failed, 20)


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2


HEADER = '{"seed": 0, "width": 8, "version": 1}\n'
BAD_SCRIPTS = {
    "unknown-op": '{"step": 0, "op": "frobnicate", "args": []}\n',
    "missing-args": '{"step": 0, "op": "get", "args": []}\n',
    "missing-op": '{"step": 0, "args": [null]}\n',
    "string-index": '{"step": 0, "op": "add", "args": [null]}\n'
    '{"step": 1, "op": "get", "args": ["0"]}\n',
    "non-item": '{"step": 0, "op": "add", "args": [5]}\n',
}
#: headers whose width is not one of WIDTHS as an integer, or whose seed
#: or version is not an integer
BAD_HEADERS = {
    "float-width": '{"seed": 0, "width": 8.0, "version": 1}\n',
    "odd-width": '{"seed": 0, "width": 12, "version": 1}\n',
    "string-width": '{"seed": 0, "width": "8", "version": 1}\n',
    "string-seed": '{"seed": "abc", "width": 8, "version": 1}\n',
    "bool-seed": '{"seed": true, "width": 8, "version": 1}\n',
    "list-version": '{"seed": 0, "width": 8, "version": [1]}\n',
}


class TestBadInput:
    @pytest.mark.parametrize("name", sorted(BAD_SCRIPTS))
    def test_malformed_script_is_usage_error(self, name, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + BAD_SCRIPTS[name])
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        line = 3 if name == "string-index" else 2
        assert f"line {line}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(BAD_HEADERS))
    def test_malformed_header_is_usage_error(self, name, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(BAD_HEADERS[name] + '{"step": 0, "op": "add", "args": [null]}\n')
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,needs", [
        (["fuzz", "--ops", "-5"], None),
        (["check", "--ops", "-5"], None),
        (["repro", "1", "--width", "32"], "2^31 = 2147483648"),
        (["repro", "3", "--width", "32", "--fixed"], "2^31 = 2147483648"),
        (["repro", "4", "--width", "32"], "2^32 = 4294967296"),
        (["census", "--width", "32"], "census at width 32 needs 2^32 = 4294967296"),
    ])
    def test_rejected_at_once(self, argv, needs, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (needs or "must be >= 0") in err

    @pytest.mark.parametrize("args, message", [
        (("--length", "-1"), "argument --length: must be >= 1, got -1"),
        (("--length", "0"), "argument --length: must be >= 1, got 0"),
        (("--length", "many"), "argument --length: invalid count value: 'many'"),
        (("--ops", "abc"), "argument --ops: invalid count value: 'abc'"),
        (("--mix", "bogus"), "argument --mix: invalid choice: 'bogus'"),
        (("--width", "12"), "argument --width: invalid choice: 12"),
    ], ids=["negative-length", "zero-length", "length-not-a-number", "ops-not-a-number",
            "unknown-mix", "bad-width"])
    def test_bad_fuzz_argument_runs_no_script(self, args, message, monkeypatch, capsys):
        """A bad count, mix or width is a usage error, exit code 2, before
        any script runs: no traceback, and nothing printed to stdout."""
        runs = []
        monkeypatch.setattr(cli, "run_script", lambda *a, **k: runs.append(a))
        assert main(["fuzz", "--ops", "10", *args]) == 2
        out, err = capsys.readouterr()
        assert f"error: {message}" in err and "Traceback" not in err
        assert out == "" and runs == []

    @pytest.mark.parametrize("command", ["fuzz", "check"])
    def test_non_integer_env_seed_is_usage_error(self, command, monkeypatch, capsys):
        monkeypatch.setenv("OVERLIST_SEED", "abc")
        assert main([command, "--ops", "10"]) == 2
        err = capsys.readouterr().err
        assert "OVERLIST_SEED" in err and "'abc'" in err and "Traceback" not in err
