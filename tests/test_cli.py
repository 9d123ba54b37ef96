"""Command-line interface: exit codes, text shape, JSON stability."""

import functools
import json

import pytest

from overlist import cli
from overlist.cli import main
from overlist.difftest import (
    BALANCED_WEIGHTS,
    census,
    dump_script,
    gen_script,
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


class TestCheckCommand:
    def test_small_battery_passes(self, capsys):
        assert main(["check", "--ops", "200", "--seed", "0"]) == 0
        assert "properties hold" in capsys.readouterr().out


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


class TestBadInput:
    @pytest.mark.parametrize("name", sorted(BAD_SCRIPTS))
    def test_malformed_script_is_usage_error(self, name, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + BAD_SCRIPTS[name])
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        line = 3 if name == "string-index" else 2
        assert f"line {line}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,needs", [
        (["fuzz", "--ops", "-5"], None),
        (["check", "--ops", "-5"], None),
        (["repro", "1", "--width", "32"], "2^31 = 2147483648"),
        (["repro", "3", "--width", "32", "--fixed"], "2^31 = 2147483648"),
        (["repro", "4", "--width", "32"], "2^32 = 4294967296"),
        (["census", "--width", "32"], "2^31 + 2^32 = 6442450944"),
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
