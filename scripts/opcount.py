#!/usr/bin/env python3
"""Count the bytecodes ``run_script`` executes in each check mode, and
digest what it returns, for one source tree.

    python scripts/opcount.py                      # the tree beside this script
    python scripts/opcount.py --src OTHER/src      # another checkout's tree

The tree is imported in a fresh interpreter (``PYTHONPATH`` set to it,
``PYTHONHASHSEED=0``), so two trees can be compared run against run.
Two inputs, both policies, each check mode:

* ``balanced``: 20 BALANCED width-8 scripts of 100 steps, seeds 0-19
  (the shape of what a plain ``overlist fuzz`` runs);
* ``add-heavy``: one ADD_HEAVY width-8 script of 1,600 steps, seed 0 (it
  crosses capacity and stays there).

For each, it prints the bytecodes executed (``sys.settrace`` opcode
events) in total and per script step; the FailFast steps that went
through ``checked_step``, split into those whose call wrote nothing and
those that wrote (the call reached a store write or allocation), with
the mean bytecodes per call, the operation included; the ``TOP``
functions that executed the most bytecodes, by module and ``co_qualname``; and the
SHA-256 of ``repr((divergences, oracles, aborted))`` over the input's
scripts, which two trees with the same behaviour share.

Counts are not time. A call into C (``list.index``, a slice, a tuple
built from a list) counts once, whatever its length, so work moved into
C reads as a gain even where it is none. Counts locate and size a change
in Python-level work exactly; timed runs remain the evidence for a
speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

#: the store's methods that write a node field or allocate one
WRITERS = frozenset({
    "NodeStore.alloc", "NodeStore.link", "NodeStore.link_run", "NodeStore.set_prev",
    "NodeStore.set_next", "NodeStore.set_item", "NodeStore.clear_node", "NodeStore.clear_chain",
})
STEP = "checked_step"
TOP = 8  # functions listed per input and mode


class OpCounter:
    """A ``sys.settrace`` tracer counting opcode events per code object,
    and per ``checked_step`` call with everything it calls."""

    def __init__(self):
        self.cells: dict = {}  # code object -> [opcodes]
        self.total = [0]
        self.open: list = []  # [opcodes at entry, wrote] per active checked_step
        self.steps = {False: [0, 0], True: [0, 0]}  # wrote -> [calls, opcodes]

    def __enter__(self):
        self.outer = sys.gettrace()
        sys.settrace(self.call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.outer)

    def call(self, frame, event, arg):
        code = frame.f_code
        if code is _EXIT:  # the counter's own exit
            return None
        name = code.co_qualname
        if self.open and name in WRITERS:
            self.open[-1][1] = True
        cell = self.cells.get(code)
        if cell is None:
            cell = self.cells[code] = [0]
        total = self.total
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
                total[0] += 1
            return local

        if name != STEP:
            return local
        self.open.append([total[0], False])

        def step(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
                total[0] += 1
            elif event == "return":  # also when the call raises
                start, wrote = self.open.pop()
                tally = self.steps[wrote]
                tally[0] += 1
                tally[1] += total[0] - start
            return step

        return step

    def top(self) -> list:
        by_name: dict[str, int] = {}
        for code, (count,) in self.cells.items():
            key = f"{Path(code.co_filename).stem}.{code.co_qualname}"
            by_name[key] = by_name.get(key, 0) + count
        return sorted(by_name.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]


_EXIT = OpCounter.__exit__.__code__


def measure(length: int | None = None) -> list[dict]:
    """Every input in every check mode, in this interpreter; with
    ``length``, each script has that many steps (a smoke run)."""
    from overlist import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, CheckMode, gen_script, run_script

    inputs = {
        "balanced": [gen_script(seed, 8, length or 100, BALANCED_WEIGHTS) for seed in range(20)],
        "add-heavy": [gen_script(0, 8, length or 1600, ADD_HEAVY_WEIGHTS)],
    }
    rows = []
    for name, batch in inputs.items():
        steps = sum(len(s.steps) for s in batch)
        for mode in CheckMode:
            results = []
            with OpCounter() as counter:  # this frame runs untraced: only run_script counts
                for script in batch:
                    results.append(run_script(script, check_mode=mode))
            out = repr([(r.divergences, r.oracles, r.aborted) for r in results])
            rows.append({
                "input": name, "mode": mode.value, "steps": steps,
                "bytecodes": counter.total[0],
                "nothing_written": counter.steps[False], "written": counter.steps[True],
                "top": counter.top(),
                "digest": hashlib.sha256(out.encode()).hexdigest(),
            })
    return rows


def per_call(tally) -> str:
    """``calls x bytecodes per call``, right-aligned in 19 columns."""
    calls, opcodes = tally
    return f"{calls:>9,} x {opcodes / calls:7.1f}" if calls else f"{'-':>19}"


def report(rows: list[dict], src: str) -> str:
    lines = [f"bytecodes run_script executes, both policies (tree: {src})",
             "counts are not time: a C call counts once, whatever its length", ""]
    for name in dict.fromkeys(r["input"] for r in rows):
        group = [r for r in rows if r["input"] == name]
        lines.append(f"{name}: {group[0]['steps']:,} script steps")
        lines.append(f"  {'':32}{'checked_step calls x bytecodes each':>38}")
        lines.append(f"  {'mode':<10}{'bytecodes':>12}{'per step':>10}"
                     f"{'wrote nothing':>19}{'wrote':>19}")
        for r in group:
            per_step = r["bytecodes"] / r["steps"]
            lines.append(f"  {r['mode']:<10}{r['bytecodes']:>12,}{per_step:>10.1f}"
                         f"{per_call(r['nothing_written'])}{per_call(r['written'])}")
        for r in group:
            lines.append(f"  {r['mode']:<10}sha256 {r['digest']}")
        for r in group:
            if r["top"]:
                lines.append(f"  top functions under {r['mode']}:")
                lines += [f"    {count:>12,}  {fn}" for fn, count in r["top"]]
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the source tree holding the overlist package")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    src = Path(args.src).resolve()
    if not (src / "overlist" / "__init__.py").is_file():
        parser.error(f"no overlist package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    child = subprocess.run([sys.executable, __file__, "--child"],
                           env=env, capture_output=True, text=True)
    if child.returncode:
        sys.stderr.write(child.stderr)
        return 1
    print(report(json.loads(child.stdout), str(src)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
