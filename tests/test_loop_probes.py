"""The FULL-mode loop probes of ``last_index_of`` and ``clear``.

Each iteration tests only the position it newly exposes, so a checked
call reads O(n) records. Their verdicts must equal those of the
reference probes below, which re-test every earlier position on every
iteration: the same ``ContractViolation`` (operation and witnesses), or
the same result or error, on each injected fault and on corrupted
states.
"""

import random

import pytest

from overlist.errors import ContractViolation
from overlist.ghostspec import run_checked
from overlist.heapmodel import NULL, Atom, NullItem, items_equal
from overlist.listcore import FAULTS, CheckMode, JavaLinkedList, SizePolicy, new_list
from overlist.statespace import random_state

A, B, Z = Atom("a"), Atom("b"), Atom("z")
ITEMS = (NULL, A, B, Z)


# -- reference: the probes that re-test the whole checked prefix ------------


def reference_last_index_probe(lst, index, node, target):
    nl = lst.ghost
    violations = []
    if not 1 <= index <= lst.size:
        violations.append(("probe", f"index {index} outside [1, {lst.size}]"))
    elif index - 1 >= len(nl) or nl[index - 1] != node:
        violations.append(("probe", f"node {node} is not nodeList[{index - 1}]"))
    else:
        for p in range(index, min(lst.size, len(nl))):
            if items_equal(target, lst.store.record(nl[p]).item):
                violations.append(("probe", f"unreported match at position {p}"))
                break
    if violations:
        raise ContractViolation("last_index_of.loop", violations)


def reference_last_index_of(lst, target):
    index = lst.size
    if "lastindexof-off-by-one" in lst.faults:
        index = lst._dec(index)
    node = lst.last
    while node is not None:
        if lst.check_mode is CheckMode.FULL:
            reference_last_index_probe(lst, index, node, target)
        index = lst._dec(index)
        rec = lst.store.record(node)
        if items_equal(target, rec.item):
            return index
        node = rec.prev
    return -1


def reference_clear_probe(lst, node, ghost_pos):
    nl = lst.ghost
    violations = []
    if ghost_pos >= len(nl) or nl[ghost_pos] != node:
        violations.append(("probe", f"node {node} is not nodeList[{ghost_pos}]"))
    for p in range(min(ghost_pos, len(nl))):
        rec = lst.store.record(nl[p])
        if rec.prev is not None or rec.next is not None or not isinstance(rec.item, NullItem):
            violations.append(("probe", f"nodeList[{p}] not cleared"))
            break
    if violations:
        raise ContractViolation("clear.loop", violations)


@pytest.fixture
def use_reference(monkeypatch):
    def install():
        monkeypatch.setattr(JavaLinkedList, "last_index_of", reference_last_index_of)
        monkeypatch.setattr(JavaLinkedList, "_clear_probe", reference_clear_probe)

    return install


def outcome(call):
    """A call's value with its type, so an int answer never equals a
    ``JInt``; or its violation or error."""
    try:
        r = call()
        return ("value", type(r), r)
    except ContractViolation as cv:
        return ("violation", cv.operation, cv.violations)
    except Exception as e:  # corrupted states may raise chain errors
        return ("error", type(e).__name__, str(e))


CALLS = [("clear", ())] + [("last_index_of", (x,)) for x in ITEMS]


def outcomes(make_state, run):
    return [outcome(lambda: run(make_state(), op, args)) for op, args in CALLS]


def filled(n, policy, faults):
    # an Unchecked list cannot be checked: on it the searches run unprobed,
    # and their answers must still equal the reference's
    mode = CheckMode.FULL if policy is SizePolicy.FAIL_FAST else CheckMode.OFF
    lst = new_list(8, policy, mode, faults)
    for i in range(n):
        lst.add((A, NULL, B)[i % 3])
    return lst


def direct(lst, op, args):
    return getattr(lst, op)(*args)


# -- cost ---------------------------------------------------------------------


@pytest.mark.parametrize("op,args", [("last_index_of", (Z,)), ("clear", ())])
def test_checked_loop_reads_each_record_at_most_twice(node_reads, op, args):
    """A checked miss and a checked clear at 127 nodes read each node
    once in the loop and at most once in the probe: linear, where
    re-testing the prefix read n(n+1)/2 nodes. A read is one node read
    through the store's public reads (``node_reads``)."""
    n = 127
    lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL)
    for _ in range(n):
        lst.add(NULL)
    node_reads.clear()
    getattr(lst, op)(*args)
    assert n < len(node_reads) <= 2 * n  # the probe did run, once per iteration


# -- same verdicts as the reference ---------------------------------------------


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("policy", list(SizePolicy))
def test_same_verdicts_on_faults(use_reference, fault, policy):
    faults = frozenset() if fault is None else frozenset({fault})

    def verdicts():
        # 130 adds run the list past the wrap (FailFast only with the fault
        # that skips its capacity check; otherwise it refuses them)
        return [outcomes(lambda: filled(n, policy, faults), run)
                for n in (0, 1, 2, 3, 7, 127, 130) for run in (direct, run_checked)]

    new = verdicts()
    use_reference()
    assert new == verdicts()


def test_same_verdicts_on_corrupted_states(use_reference):
    def make(seed):
        lst = random_state(random.Random(seed), 8, 8)
        lst.check_mode = CheckMode.FULL
        return lst

    seeds = range(1500)
    new = [outcomes(lambda: make(seed), direct) for seed in seeds]
    use_reference()
    ref = [outcomes(lambda: make(seed), direct) for seed in seeds]
    assert new == ref
    witnesses = {
        (o[1], o[2][0][1].split()[0]) for row in new for o in row if o[0] == "violation"
    }
    assert {("last_index_of.loop", "index"), ("last_index_of.loop", "node"),
            ("clear.loop", "node")} <= witnesses


def test_unreported_match_witness(use_reference):
    """The off-by-one search starts at the last node's index; with a ghost
    that names the last node twice, the probe sees the match above it."""
    def make():
        lst = new_list(8, SizePolicy.FAIL_FAST, CheckMode.FULL,
                       frozenset({"lastindexof-off-by-one"}))
        lst.add(B)
        lst.add(A)
        lst.ghost[0] = lst.last
        return lst

    new = outcome(lambda: make().last_index_of(A))
    use_reference()
    assert new == outcome(lambda: make().last_index_of(A))
    assert new == ("violation", "last_index_of.loop", [("probe", "unreported match at position 1")])


def test_not_cleared_witness():
    """The loop never reaches an uncleared earlier position, but the
    clause stays live: called on one, the probe names it."""
    lst = filled(3, SizePolicy.FAIL_FAST, frozenset())
    nl = lst.ghost
    with pytest.raises(ContractViolation) as new:
        lst._clear_probe(nl[1], 1)
    with pytest.raises(ContractViolation) as ref:
        reference_clear_probe(lst, nl[1], 1)
    assert new.value.violations == ref.value.violations == [("probe", "nodeList[0] not cleared")]
