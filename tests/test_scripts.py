"""Smoke tests for the scripts under scripts/: each runs in a fresh
interpreter against the package source, from an empty directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_overflow_demo(tmp_path):
    done = run_script(tmp_path, "overflow_demo.py", "--width", "8")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "  size(): -128" in lines
    assert "  size(): 0" in lines
    assert "  index_of(marker): -1" in lines


def test_overflow_demo_refuses_an_infeasible_width(tmp_path):
    done = run_script(tmp_path, "overflow_demo.py", "--width", "32")
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "error: the census at width 32" in done.stderr



def test_opcount_counts_and_digests_the_same_twice(tmp_path):
    """Two runs with 10-step scripts for both inputs, each in a fresh
    interpreter with its own hash seed, give the same counts and digests;
    every FailFast step of a checked mode goes through ``checked_step``,
    and the checks change no result of fault-free code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "scripts"))))
    code = "import json, opcount; print(json.dumps(opcount.measure(10)))"
    runs = [subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                           env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True,
                           timeout=120) for seed in ("0", "1")]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    first, second = (json.loads(done.stdout) for done in runs)
    assert first == second
    assert [r["steps"] for r in first[::3]] == [200, 10]
    assert [(r["input"], r["mode"]) for r in first] == [
        (name, mode) for name in ("balanced", "add-heavy") for mode in ("off", "invariant", "full")]
    for row in first:
        calls = row["nothing_written"][0] + row["written"][0]
        assert row["bytecodes"] > 0 and calls == (0 if row["mode"] == "off" else row["steps"]), row
    for name in ("balanced", "add-heavy"):
        assert len({r["digest"] for r in first if r["input"] == name}) == 1
