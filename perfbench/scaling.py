#!/usr/bin/env python3
"""On-demand scaling report for the two superlinear paths; not part of
the timed benchmark runs. Takes under a minute.

    python3 perfbench/scaling.py [--seed N]

Prints fuzz-full-long's ops_per_s and heapmodel.snapshot records per
snapshot call at script lengths 100, 400 and 1600, then
build_overflow_states wall time and oracle.oracle_apply.items_copied at
widths 8 and 16. Every ratio is printed with its base.
"""

from __future__ import annotations

import argparse

import spans
import workloads
from overlist import difftest
from overlist.difftest import ADD_HEAVY_WEIGHTS
from overlist.listcore import CheckMode

LENGTHS = (100, 400, 1600)
WIDTHS = (8, 16)
STEPS_PER_LENGTH = 3200


def ratio(name: str, values: dict, unit: str) -> str:
    (lo, base), (hi, top) = list(values.items())[0], list(values.items())[-1]
    return f"  {name} ratio {hi}/{lo}: {top / base:.3g} (base: {base:.6g} {unit} at {lo})"


def fuzz_scaling(seed: int) -> None:
    print("fuzz-full-long scaling (ADD_HEAVY, width 8, check_mode=full)")
    rates, per_call = {}, {}
    for length in LENGTHS:
        fuzz = workloads.Fuzz(ADD_HEAVY_WEIGHTS, length, CheckMode.FULL,
                              scripts_per_task=STEPS_PER_LENGTH // length, traced_tasks=1)
        scripts = fuzz.inputs(seed, 0)
        task = workloads.run_task(fuzz, scripts, workloads.Checks())
        tracer = spans.Tracer()
        with tracer.installed():
            workloads.run_task(fuzz, scripts, workloads.Checks())
        rates[length] = task.ops / task.paced
        per_call[length] = (tracer.summary()["heapmodel.snapshot.records"]
                            / tracer.calls("heapmodel.snapshot"))
        print(f"  length {length:5d}: ops_per_s {rates[length]:9.1f} 1/s, "
              f"snapshot.records/call {per_call[length]:8.1f} over {len(scripts)} scripts")
    print(ratio("ops_per_s", rates, "1/s"))
    print(ratio("snapshot.records/call", per_call, "records"))


def overflow_scaling() -> None:
    print("build_overflow_states scaling (UNCHECKED)")
    times, copied = {}, {}
    for width in WIDTHS:
        clock = workloads.Clock()
        clock(None, difftest.build_overflow_states, width)
        times[width] = clock.paced
        tracer = spans.Tracer()
        with tracer.installed():
            difftest.build_overflow_states(width)
        copied[width] = tracer.summary()["oracle.oracle_apply.items_copied"]
        print(f"  width {width:2d}: {times[width]:8.3f} s, items_copied {copied[width]}")
    print(ratio("build_overflow_states time", times, "s"))
    print(ratio("items_copied", copied, "items"))


def main() -> None:
    parser = argparse.ArgumentParser(description="overlist scaling report")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    fuzz_scaling(args.seed)
    overflow_scaling()


if __name__ == "__main__":
    main()
