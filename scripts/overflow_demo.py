#!/usr/bin/env python3
"""Walk through the overflow pathology end to end at desk scale.

Builds the two broken states, shows each symptom next to the documented
answer, then prints the per-method census for the unchecked and the
fail-fast variant side by side.

    python scripts/overflow_demo.py --width 8
"""

import argparse

from overlist import MARKER, NULL, WIDTHS, ListError, SizePolicy, census, new_list


def added(width, items):
    """An unchecked list after add() of each of ``items`` in turn."""
    lst = new_list(width, SizePolicy.UNCHECKED)
    for item in items:
        lst.add(item)
    return lst


def show(label, thunk):
    try:
        print(f"  {label}: {thunk()!r}")
    except ListError as e:
        print(f"  {label}: raised {type(e).__name__} ({e})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=8, choices=WIDTHS)
    args = parser.parse_args()
    w = args.width
    # the census first: it refuses a width whose preparation is infeasible
    broken = {r.method: r.classification for r in census(w, SizePolicy.UNCHECKED)}
    fixed = {r.method: r.classification for r in census(w, SizePolicy.FAIL_FAST)}
    half = 1 << (w - 1)
    s1 = added(w, [NULL] * half)
    s2 = added(w, [NULL] * (2 * half - 1) + [MARKER])
    print(f"state A: {half} adds on a {w}-bit list (capacity {s1.max_size})")
    show("size()", lambda: s1.size)
    show("actual chain length", lambda: len(s1.chain()))
    show("get(0)", lambda: s1.get(0))
    show("to_array()", lambda: s1.to_array())
    show("get_first()  [endpoint, still fine]", lambda: s1.get_first())

    print(f"\nstate B: {1 << w} adds, marker last")
    show("size()", lambda: s2.size)
    show("index_of(marker)", lambda: s2.index_of(MARKER))
    show("contains(marker)", lambda: s2.contains(MARKER))
    show("get_last()  [the marker is right there]", lambda: s2.get_last())

    print("\nmethod census (worst outcome over both states):")
    widest = max(map(len, broken))
    print(f"  {'method'.ljust(widest)}  {'unchecked'.ljust(16)}  fail-fast")
    for method in sorted(broken):
        print(f"  {method.ljust(widest)}  {broken[method].ljust(16)}  {fixed[method]}")


if __name__ == "__main__":
    main()
