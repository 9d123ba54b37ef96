#!/usr/bin/env python3
"""Differential fuzzing sweep across seeds and widths.

Runs random scripts through both policies in lock-step with the oracle
and tallies divergences per kind. Unchecked divergences are the point of
the exercise; a fail-fast divergence would be a real bug and gets its
shrunk reproducer written next to this script.

    python scripts/fuzz_sweep.py --scripts 200 --length 400 --widths 8 16
"""

import argparse
import collections
import time

from overlist.difftest import ADD_HEAVY_WEIGHTS, dump_script, gen_script, run_script, shrink
from overlist.listcore import CheckMode, SizePolicy


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scripts", type=int, default=100)
    parser.add_argument("--length", type=int, default=400)
    parser.add_argument("--widths", type=int, nargs="+", default=[8])
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--check-mode", choices=[m.value for m in CheckMode],
                        default="invariant")
    args = parser.parse_args()
    mode = CheckMode(args.check_mode)

    for width in args.widths:
        tally = collections.Counter()
        diverging_scripts = 0
        t0 = time.perf_counter()
        for k in range(args.scripts):
            script = gen_script(args.seed + k, width, args.length, ADD_HEAVY_WEIGHTS)
            result = run_script(script, check_mode=mode)
            if result.total("unchecked"):
                diverging_scripts += 1
                tally.update(d.kind for d in result.divergences["unchecked"])
            if result.total("failfast"):
                def still_fails(s):
                    failfast = run_script(s, check_mode=mode, policies=(SizePolicy.FAIL_FAST,))
                    return failfast.total("failfast") > 0

                path = f"failfast_repro_w{width}_seed{script.seed}.jsonl"
                with open(path, "w") as fh:
                    fh.write(dump_script(shrink(script, still_fails)))
                print(f"  !! fail-fast divergence, reproducer saved to {path}")
        dt = time.perf_counter() - t0
        print(f"width {width}: {args.scripts} scripts x {args.length} ops in {dt:.1f}s")
        print(f"  scripts with unchecked divergences: {diverging_scripts}")
        for kind, count in tally.most_common():
            print(f"    {kind}: {count}")


if __name__ == "__main__":
    main()
