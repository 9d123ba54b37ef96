"""Smoke tests for the scripts under scripts/: each runs in a fresh
interpreter against the package source, from an empty directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_fuzz_sweep(tmp_path):
    done = run_script(tmp_path, "fuzz_sweep.py", "--scripts", "3", "--length", "100")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("width 8: 3 scripts x 100 ops") for line in done.stdout.splitlines())


@pytest.mark.parametrize("args, message", [
    (("--length", "-1"), "argument --length: must be >= 0, got -1"),
    (("--scripts", "-3"), "argument --scripts: must be >= 0, got -3"),
    (("--widths", "7"), "argument --widths: invalid choice: 7"),
    (("--widths", "8", "12"), "argument --widths: invalid choice: 12"),
    (("--length", "many"), "argument --length: invalid count value: 'many'"),
], ids=["negative-length", "negative-scripts", "bad-width", "bad-second-width", "not-a-number"])
def test_fuzz_sweep_refuses_bad_arguments(tmp_path, args, message):
    """A bad count or width is a usage error, exit code 2, before any
    script runs: no traceback, and nothing printed to stdout."""
    done = run_script(tmp_path, "fuzz_sweep.py", "--scripts", "1", "--length", "10", *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"error: {message}" in done.stderr
    assert done.stdout == ""
