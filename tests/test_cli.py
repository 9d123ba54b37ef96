"""Command-line interface: exit codes, text shape, JSON stability."""

import functools
import hashlib
import json

import pytest

from overlist import cli
from overlist.cli import main
from overlist.difftest import (
    BALANCED_WEIGHTS,
    census,
    dump_script,
    gen_script,
    load_script,
    run_script,
    shrink,
)
from overlist.listcore import CheckMode, SizePolicy


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

    @pytest.mark.parametrize("command", ["fuzz", "check"])
    def test_non_integer_env_seed_is_usage_error(self, command, monkeypatch, capsys):
        monkeypatch.setenv("OVERLIST_SEED", "abc")
        assert main([command, "--ops", "10"]) == 2
        err = capsys.readouterr().err
        assert "OVERLIST_SEED" in err and "'abc'" in err and "Traceback" not in err
