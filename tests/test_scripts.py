"""Smoke tests for the scripts under scripts/: each runs in a fresh
interpreter against the package source, from an empty directory."""

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

