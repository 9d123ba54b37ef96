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
    """Two smoke runs (10-step scripts for the ``run_script`` inputs, the
    shrink input's smoke shape, the overflow input at width 8), each in a
    fresh interpreter with its own hash seed, give the same counts and
    digests; every FailFast step of a checked mode goes through
    ``checked_step``, the checks change no result of fault-free code, the
    shrink's seed, predicate calls and reproducer are pinned, and so are
    the overflow input's digest and its censuses' probe counts: FailFast
    probes its one state once, Unchecked its two. Each preparation reports
    its accepted and refused adds, and each wrap the bytecodes of its 128
    adds beyond the flip, all accepted under Unchecked and all refused
    under FailFast."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "scripts"))))
    code = "import json, opcount; print(json.dumps(opcount.measure(10)))"
    # the two interpreters run side by side
    procs = [subprocess.Popen([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for seed in ("0", "1")]
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert all(proc.returncode == 0 for proc in procs), outs[0][1]
    first, second = (json.loads(out) for out, _ in outs)
    assert first == second
    *runs, shrunk, overflow = first
    assert [r["steps"] for r in runs[::3]] == [200, 10]
    assert [(r["input"], r.get("mode")) for r in first] == [
        (name, mode) for name in ("balanced", "add-heavy") for mode in ("off", "invariant", "full")
    ] + [("shrink", "off"), ("overflow", None)]
    for row in runs:
        calls = row["nothing_written"][0] + row["written"][0]
        assert row["bytecodes"] > 0 and calls == (0 if row["mode"] == "off" else row["steps"]), row
    for name in ("balanced", "add-heavy"):
        assert len({r["digest"] for r in first if r["input"] == name}) == 1
    assert (shrunk["seed"], shrunk["calls"], shrunk["digest"]) == (
        2, 272, "282b1b5d3b45c5d363babe1cc7e8dcfd11b20b2a085e4892af0b92bff64b652f")
    censuses = {k["kind"]: k for k in overflow["kinds"] if "probes" in k}
    assert (overflow["width"], len(overflow["kinds"])) == (8, 6)
    assert [censuses[f"census {p}"]["probes"] for p in ("failfast", "unchecked")] == [28, 56]
    assert all(k["bytecodes"] > 0 for k in overflow["kinds"])
    assert all(k["find"][1] > 0 for k in censuses.values())
    # accepted and refused adds per preparation, and what the wrap's extra 128 adds cost each
    preparations = {k["kind"]: k for k in overflow["kinds"] if "adds" in k}
    assert {kind: k["adds"] for kind, k in preparations.items()} == {
        "prepare flip unchecked": [128, 0], "prepare wrap unchecked": [256, 0],
        "prepare flip failfast": [127, 1], "prepare wrap failfast": [127, 129]}
    per_add = [preparations[f"prepare wrap {p}"]["per_add"] for p in ("unchecked", "failfast")]
    assert [p[:2] for p in per_add] == [["accepted", 128], ["refused", 128]]
    assert all(p[2] > 0 for p in per_add)
    assert all(k.get("per_add") is None for kind, k in preparations.items() if "flip" in kind)
    assert overflow["digest"] == "8a7a6ef498d0e8fdcd80e29af78986cfa60a36ba38e37d140e4f2994f9a33ac7"
