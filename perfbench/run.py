#!/usr/bin/env python3
"""The overlist benchmark: one command, each workload in a fresh process.

    python3 perfbench/run.py --workload fuzz-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads, metric names and units come from BENCHMARK.json. With
``--trace 0`` a run reports the end-to-end metrics, measured with no
tracing installed; with ``--trace 1`` it reports the per-layer metrics of
a separate traced pass. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 0 on success, 1 when a workload process
fails, 2 for bad arguments or a checkout without the package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args: list[str], deadline: float) -> dict:
    """Run workloads.py in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    line = f"  {name}: median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            line += f", p{pct} {q:.6g} {unit}"
            break
    return line


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> None:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        result = child(["run", name, str(seed), str(seconds), "1"], deadline)
        wanted = spec["per_layer"]
        values = result["per_layer"]
        samples = {"traced_pass": 1}
        lines = []
    else:
        probes = [child(["setup", name, str(seed)], deadline) for _ in range(SETUP_SAMPLES)]
        result = child(["run", name, str(seed), str(seconds), "0"], deadline)
        probes.append(result)
        setups = [p["setup_s"] for p in probes]
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "task_s": statistics.median(result["task_s"]),
            "ops_per_s": statistics.median(result["ops_per_s"]),
        }
        samples = {"setup": len(setups), "tasks": len(result["task_s"])}
        lines = [describe("setup_s", setups, "s"),
                 describe("setup wall", [p["setup_raw_s"] for p in probes], "s"),
                 describe("task_s", result["task_s"], "s"),
                 describe("task wall", result["task_raw_s"], "s"),
                 describe("ops_per_s", result["ops_per_s"], "1/s"),
                 describe("ops per wall second", result["ops_per_raw_s"], "1/s")]
        lines += [describe(f"{part} wall", vals, "s") for part, vals in result["parts"].items()]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for metric, entry in metrics.items():
        print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    for line in lines:
        print(line)
    print(f"  error_rate {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} checks failed)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "samples": samples}
    print(f"  meta {json.dumps(meta)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description="overlist benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "overlist" / "__init__.py").is_file():
        print(f"error: no overlist package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for name in names if args.workload == "all" else [args.workload]:
        try:
            run_workload(spec, name, args.seed, args.seconds, args.trace == 1)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
            print(f"error: workload {name}: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
