"""Command-line entry point.

Subcommands:

* ``repro N``: rebuild overflow test case N (1..5) at desk scale and
  report expected-vs-observed; ``--fixed`` runs the fail-fast variant
  instead and reports that the bug is unreachable.
* ``census``: classify every public method in the two overflow states.
* ``fuzz``: random differential scripts; fail-fast divergences are
  shrunk and saved.
* ``replay``: re-run a saved JSON Lines script.
* ``check``: invariant / derived-property battery over enumerated and
  randomized states.

Exit codes: 0 success (or bug reproduced as predicted), 1 property or
divergence failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import difftest
from .difftest import MARKER, BALANCED_WEIGHTS, census, gen_script, run_script, shrink
from .errors import IndexOutOfBoundsError, NegativeArraySizeError, UsageError
from .ghostspec import check_acyclic, check_invariant, check_unique_endpoints
from .jint import WIDTHS, max_value, min_value
from .listcore import CheckMode, SizePolicy
from .statespace import enumerate_lists, random_state


def _emit(report: dict, text: str, fmt: str, out: str | None) -> None:
    payload = json.dumps(report, indent=2) + "\n" if fmt == "json" else text
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OVERLIST_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"OVERLIST_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# repro


def cmd_repro(args) -> int:
    case, width = args.case, args.width
    policy = SizePolicy.FAIL_FAST if args.fixed else SizePolicy.UNCHECKED
    # cases 1-3 flip the size sign, cases 4-5 wrap it back to zero
    lst, first_refusal = difftest.prepare_overflow(width, policy, wrap=case >= 4)
    cap = max_value(width).value
    lines = [f"test case {case} at width {width} ({policy.value})"]
    report: dict = {"case": case, "width": width, "policy": policy.value, "fixed": args.fixed}

    if args.fixed:
        expected_refusal = cap + 1
        inv_ok = not check_invariant(lst)
        as_predicted = (
            first_refusal == expected_refusal and lst.size == cap and inv_ok
        )
        lines += [
            f"  IllegalState raised at add #{first_refusal} (expected #{expected_refusal})",
            f"  size() == {lst.size} (bound {cap}), invariant holds: {inv_ok}",
            "  verdict: bug not reproducible (fail-fast guard held)"
            if as_predicted
            else "  verdict: UNEXPECTED fail-fast behavior",
        ]
        report.update(
            {
                "first_refusal_at_add": first_refusal,
                "size": lst.size,
                "invariant_holds": inv_ok,
                "reproduced": False,
                "as_predicted": as_predicted,
            }
        )
        _emit(report, "\n".join(lines) + "\n", args.format, args.out)
        return 0 if as_predicted else 1

    chain_len = len(lst.chain())
    if case == 1:
        observed = lst.size
        expected = cap
        reproduced = observed == min_value(width).value
        lines += [
            f"  expected (documented): size() == {expected}",
            f"  observed:              size() == {observed}",
            f"  actual chain length:   {chain_len}",
        ]
        report.update({"expected": expected, "observed": observed, "chain_length": chain_len})
    elif case == 2:
        expected = "element at index 0"
        try:
            got = lst.get(0)
            observed, reproduced = f"returned {got!r}", False
        except IndexOutOfBoundsError:
            observed, reproduced = "IndexOutOfBoundsException", True
        lines += [
            f"  expected (documented): get(0) returns the {expected}",
            f"  observed:              {observed}",
        ]
        report.update({"expected": expected, "observed": observed})
    elif case == 3:
        expected = f"array of the {chain_len} elements"
        try:
            arr = lst.to_array()
            observed, reproduced = f"array of length {len(arr)}", False
        except NegativeArraySizeError:
            observed, reproduced = "NegativeArraySizeException", True
        lines += [
            f"  expected (documented): to_array() returns an {expected}",
            f"  observed:              {observed}",
        ]
        report.update({"expected": expected, "observed": observed})
    elif case == 4:
        idx = lst.index_of(MARKER)
        marker_pos = chain_len - 1 if lst.get_last() == MARKER else None
        reproduced = idx == -1 and marker_pos == (1 << width) - 1
        lines += [
            f"  expected (documented): index_of(marker) is the marker's position, {marker_pos}",
            f"  observed:              index_of(marker) == {idx}"
            + (" (element reported absent)" if idx == -1 else ""),
            f"  marker IS in the chain at actual position {marker_pos}",
        ]
        report.update({"expected": marker_pos, "observed": idx, "marker_position": marker_pos})
    else:
        has = lst.contains(MARKER)
        marker_pos = chain_len - 1 if lst.get_last() == MARKER else None
        reproduced = has is False and marker_pos == (1 << width) - 1
        lines += [
            "  expected (documented): contains(marker) == True",
            f"  observed:              contains(marker) == {has}",
            f"  marker IS in the chain at actual position {marker_pos}",
        ]
        report.update({"expected": True, "observed": has, "marker_position": marker_pos})

    lines.append("  verdict: bug reproduced" if reproduced else "  verdict: NOT reproduced")
    report["reproduced"] = reproduced
    _emit(report, "\n".join(lines) + "\n", args.format, args.out)
    return 0 if reproduced else 1


# ---------------------------------------------------------------------------
# census


def cmd_census(args) -> int:
    policy = SizePolicy.FAIL_FAST if args.fixed else SizePolicy.UNCHECKED
    rows = census(args.width, policy)
    report = {
        "width": args.width,
        "policy": policy.value,
        "rows": [{"method": r.method, "classification": r.classification} for r in rows],
    }
    widest = max(len(r.method) for r in rows)
    lines = [f"method census at width {args.width} ({policy.value})"]
    lines += [f"  {r.method.ljust(widest)}  {r.classification}" for r in rows]
    broken = sum(r.classification != "OK" for r in rows)
    lines.append(f"  -> {broken} of {len(rows)} methods classified non-OK")
    _emit(report, "\n".join(lines) + "\n", args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# fuzz / replay


def cmd_fuzz(args) -> int:
    seed = _default_seed(args)
    check_mode = CheckMode(args.check_mode)
    script_len = 100
    remaining = args.ops
    unchecked_divergences = 0
    script_index = 0
    while remaining > 0:
        length = min(script_len, remaining)
        script = gen_script(seed + script_index, args.width, length, BALANCED_WEIGHTS)
        result = run_script(script, check_mode=check_mode)
        unchecked_divergences += result.total("unchecked")
        if result.total("failfast"):
            def run_failfast(s):
                # only the FailFast divergences are read, so only FailFast runs
                return run_script(s, check_mode=check_mode, policies=(SizePolicy.FAIL_FAST,))

            small = shrink(script, lambda s: run_failfast(s).total("failfast") > 0)
            path = args.out or "shrunk_script.jsonl"
            with open(path, "w") as fh:
                fh.write(difftest.dump_script(small))
            first = run_failfast(small).divergences["failfast"][0]
            print(f"FailFast divergence at seed {script.seed}: {first.kind} on {first.op}")
            print(f"shrunk script ({len(small.steps)} steps) written to {path}")
            return 1
        remaining -= length
        script_index += 1
    print(f"FailFast: 0 divergences over {args.ops} operations (width {args.width})")
    print(f"Unchecked: {unchecked_divergences} divergences (informational)")
    return 0


def cmd_replay(args) -> int:
    try:
        with open(args.path) as fh:
            script = difftest.load_script(fh.read())
    except (OSError, ValueError, UsageError) as e:
        print(f"cannot load script: {e}", file=sys.stderr)
        return 2
    result = run_script(script, check_mode=CheckMode(args.check_mode))
    for policy in ("unchecked", "failfast"):
        divs = result.divergences[policy]
        print(f"{policy}: {len(divs)} divergences")
        for d in divs:
            print(f"  step {d.step}: {d.op} -> {d.kind} (impl {d.impl}, oracle {d.oracle})")
    return 1 if result.total("failfast") else 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    failures = []
    enumerated = 0
    for lst in enumerate_lists(max_len=5, width=args.width):
        enumerated += 1
        violated = check_invariant(lst)
        if violated:
            failures.append(f"enumerated list violates invariant: {violated}")
            continue
        ok, witness = check_acyclic(lst)
        if not ok:
            failures.append(f"invariant held but acyclicity failed at {witness}")
        ok, witness = check_unique_endpoints(lst)
        if not ok:
            failures.append(f"invariant held but unique endpoints failed at {witness}")

    rng = random.Random(_default_seed(args))
    non_vacuous = 0
    for _ in range(args.ops):
        state = random_state(rng, width=args.width)
        failed = dict(check_invariant(state))
        if "C1" not in failed and "C2" in failed:
            failures.append("C1 held but C2 failed (redundancy broken)")
        if not failed:
            non_vacuous += 1
            if not check_acyclic(state)[0] or not check_unique_endpoints(state)[0]:
                failures.append("invariant held but a derived property failed")

    print(f"enumerated {enumerated} small lists, {args.ops} random states "
          f"({non_vacuous} satisfied the invariant)")
    if failures:
        for f in failures[:20]:
            print(f"FAIL: {f}")
        return 1
    print("all invariant and implication properties hold")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="overlist")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False):
        p.add_argument("--width", type=int, default=8, choices=WIDTHS)
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("--out", default=None)

    p = sub.add_parser("repro", help="reproduce one of the five overflow test cases")
    p.add_argument("case", type=int, choices=(1, 2, 3, 4, 5))
    p.add_argument("--fixed", action="store_true", help="run the fail-fast variant instead")
    common(p, fmt=True)
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("census", help="classify every method in the overflow states")
    p.add_argument("--fixed", action="store_true")
    common(p, fmt=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("fuzz", help="random differential scripts")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ops", type=non_negative_int, default=10000)
    p.add_argument("--check-mode", choices=[m.value for m in CheckMode], default="invariant")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("replay", help="re-run a saved JSON Lines script")
    p.add_argument("path")
    p.add_argument("--check-mode", choices=[m.value for m in CheckMode], default="off")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("check", help="invariant and implication property battery")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ops", type=non_negative_int, default=2000, help="number of random states")
    common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
