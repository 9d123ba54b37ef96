"""The list's ghost log.

While a savepoint of the list is open (``open_savepoint``), each method
that writes the ghost logs its edit, as JML's ghost ``set`` statements
sit in the methods that link and unlink: ``(delta, position, node)`` for
a node inserted (1) or removed (-1), a run for ``fast_forward`` and a
whole-ghost entry for ``clear`` and the door ``replace_ghost``. A trial
undoes the logged edits instead of copying the ghost, and a checked step
reads the call's edit from the log.

The obligations here: every trial, in both censuses at widths 8 and 16,
nested, around ``clear``, ``fast_forward``, the door or a checked call,
puts back the whole fingerprint of the list (header, ghost, the store's
length and every node's three fields); and the harness's ghost reads do
not grow with the list: a passing checked step reads as many ghost
entries at 8 nodes as at 1,000, and a query probe's trial on the
65,536-node wrap state reads none. A removal that walked to its node
logs the walked position without scanning the ghost, and on a chain a
fault parted from its ghost, or under a wrapped size, removes as the
scan did.
"""

from contextlib import contextmanager
from functools import partial
from itertools import chain

import pytest
from oracle_model import model_for
from test_fast_forward import fingerprint

from overlist import ghostspec
from overlist.difftest import _probe_classification, _stage_items, census, run_op
from overlist.errors import ListError, UsageError
from overlist.ghostspec import checked_step
from overlist.heapmodel import NULL, Atom
from overlist.listcore import FAULTS, JavaLinkedList, SizePolicy, apply_op, new_list
from overlist.oracle import OP_SPECS, ModelList
from overlist.statespace import build_list

A, B, Z = Atom("a"), Atom("b"), Atom("z")


def logged(lst, change):
    """The ghost edits ``change()`` logs inside a savepoint of ``lst``."""
    mark = lst.open_savepoint()
    try:
        change()
    finally:
        _, edits = lst.close_savepoint(mark)
    return edits


class TestLogEntries:
    def test_each_writer_logs_its_edit(self):
        lst = build_list([A, B] * 3)
        g = list(lst.ghost)
        assert logged(lst, lambda: lst.add(Z)) == [(1, 6, len(lst.store) - 1)]
        assert logged(lst, lambda: lst.add_first(Z)) == [(1, 0, len(lst.store) - 1)]
        assert logged(lst, lambda: lst.add_at(4, Z)) == [(1, 4, len(lst.store) - 1)]
        assert logged(lst, lambda: lst.remove_at(4)) == [(-1, 4, len(lst.store) - 1)]
        assert logged(lst, lambda: lst.poll_first()) == [(-1, 0, len(lst.store) - 2)]
        assert logged(lst, lambda: lst.poll_last()) == [(-1, 6, len(lst.store) - 3)]
        assert lst.ghost == g
        start = len(lst.store)
        assert logged(lst, lambda: lst.fast_forward((A, B, A))) == [(3, 6, start)]
        old = lst.ghost
        assert logged(lst, lambda: lst.clear()) == [(None, 0, old)]
        assert lst.ghost == [] and old == g + [start, start + 1, start + 2]
        empty = lst.ghost
        assert logged(lst, lambda: lst.replace_ghost([3, 1])) == [(None, 0, empty)]

    def test_queries_refusals_and_misses_log_nothing(self):
        lst = new_list(8)
        for i in range(127):
            lst.add(A if i % 2 else NULL)
        for op, args in (("get", (5,)), ("index_of", (B,)), ("to_array", ()), ("add", (A,)),
                         ("add_first", (A,)), ("remove_item", (Z,)), ("set_at", (3, B))):
            assert logged(lst, lambda: run_op(lst, op, args)) == [], op

    def test_no_log_without_a_savepoint(self):
        lst = build_list([A, B])
        assert lst._ghost_log is None
        mark = lst.open_savepoint()
        inner = lst.open_savepoint()
        lst.add(A)
        journal, edits = lst.close_savepoint(inner)
        assert edits == [(1, 2, 2)] and lst._ghost_log == edits
        lst.add_first(B)
        journal, edits = lst.close_savepoint(mark)
        assert edits == [(1, 2, 2), (1, 0, 3)] and journal[1] == range(2, 4)
        assert lst._ghost_log is None
        lst.add(B)
        assert lst._ghost_log is None

    def test_savepoints_close_innermost_first(self):
        lst = build_list([A])
        outer = lst.open_savepoint()
        lst.open_savepoint()
        with pytest.raises(UsageError):
            lst.close_savepoint(outer)

    def test_add_at_hands_link_before_the_position(self):
        """A middle insert logs the position ``add_at`` knows; the ghost
        is not searched for the successor."""
        lst = build_list([A, B] * 50)
        lst.ghost = Unsearchable(lst.ghost)
        assert logged(lst, lambda: lst.add_at(60, Z)) == [(1, 60, 100)]
        assert lst.chain() == lst.ghost


class Unsearchable(list):
    """A ghost that fails when it is searched."""

    def index(self, *args):
        raise AssertionError("the ghost was searched")


def walked_then_scanned(lst, op, args):
    """``op`` as it removed before ``unlink`` was handed the walked
    position: the same walk, then ``unlink(node)``, which scans the ghost."""
    if op == "remove_at":
        lst._check_element_index(args[0])
        return lst.unlink(lst.node_at(args[0]))
    forward = op == "remove_first_occurrence"
    _, node = lst.store.find(lst.first if forward else lst.last, args[0],
                             "next" if forward else "prev")
    return node is not None and lst.unlink(node) is not None


def outcome_and_state(call, lst):
    try:
        got = ("value", call())
    except Exception as e:  # a parted chain can dangle; a harness error is a difference
        got = ("error", type(e).__name__, str(e))
    return got, fingerprint(lst)


class TestWalkedPositions:
    """``remove_at`` and the occurrence removals hand ``unlink`` the
    position their walk reached it at, so a removal far from the first
    node makes no ghost scan."""

    @pytest.mark.parametrize("op, args, p", [
        ("remove_at", (0,), 0), ("remove_at", (37,), 37), ("remove_at", (99,), 99),
        ("remove_first_occurrence", (Z,), 60), ("remove_last_occurrence", (Z,), 70),
        ("remove_item", (Z,), 60),
    ])
    def test_a_removal_is_logged_at_the_walked_position(self, op, args, p):
        items = [A, B] * 50
        items[60] = items[70] = Z
        for probes in (False, True):
            lst = build_list(items, probes=probes)
            node = lst.ghost[p]
            lst.ghost = Unsearchable(lst.ghost)
            assert logged(lst, lambda: apply_op(lst, op, args)) == [(-1, p, node)]
            assert lst.chain() == lst.ghost

    @pytest.mark.parametrize("fault", [None, *FAULTS])
    def test_a_chain_parted_from_its_ghost_removes_as_the_scan_did(self, fault):
        """``unlink-skip-relink`` leaves a cleared node linked, so a walk
        past it finds positions the ghost no longer holds; with no fault,
        so does a walk from ``last`` on a wrapped size (258 adds at width
        8 leave the size at 2, and ``remove_at(1)`` reaches position 257).
        Each removal, on a list with probes and on one without, gives the
        outcome and the list the scan gave, and no harness error."""
        faults = frozenset() if fault is None else frozenset({fault})
        calls = [("remove_at", (i,)) for i in range(-1, 12)]
        calls += [(op, (x,)) for op in ("remove_first_occurrence", "remove_last_occurrence")
                  for x in (A, B, NULL, Z)]

        def parted(probes):
            lst = new_list(8, SizePolicy.FAIL_FAST, probes, faults)
            for x in [A, B, NULL] * 4:
                lst.add(x)
            lst.remove_at(4)
            lst.remove_first_occurrence(B)
            return lst

        def wrapped():
            lst = new_list(8, SizePolicy.UNCHECKED, faults=faults)
            for x in [A, B, NULL] * 86:
                lst.add(x)
            return lst

        lst = wrapped()
        assert lst.size == 2
        last = lst.last
        assert logged(lst, lambda: lst.remove_at(1)) == [(-1, 257, last)]
        for build in (partial(parted, False), partial(parted, True), wrapped):
            for op, args in calls:
                new, old = build(), build()
                got = outcome_and_state(lambda: apply_op(new, op, args), new)
                assert got == outcome_and_state(lambda: walked_then_scanned(old, op, args), old)
                assert "UsageError" not in got[0], (fault, build, op, args)


# -- trials restore the whole fingerprint ----------------------------------------


@pytest.mark.parametrize("policy", list(SizePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("width", [8, 16])
def test_every_census_trial_restores_the_fingerprint(monkeypatch, width, policy):
    """Each census probe runs in a trial, which undoes the probe's logged
    ghost edits and copies no ghost: header, ghost, the store's length
    and every node's fields are as before the probe, and no log stays
    open."""
    real = JavaLinkedList.trial
    trials = []

    @contextmanager
    def checked_trial(self):
        before = fingerprint(self)
        with real(self):
            yield
        assert fingerprint(self) == before
        assert self._ghost_log is None and self.store._journal is None
        trials.append(None)

    monkeypatch.setattr(JavaLinkedList, "trial", checked_trial)
    census(width, policy)
    stages = 1 if policy is SizePolicy.FAIL_FAST else 2  # FailFast refuses the second stage's adds
    assert len(trials) == stages * sum(len(spec.probes) for spec in OP_SPECS.values())


def wrap_state(width, policy=SizePolicy.UNCHECKED):
    """The census's second state, prepared as it prepares it, with its
    oracle state."""
    items = tuple(chain(*_stage_items(width)))
    lst = new_list(width, policy)
    lst.fast_forward(items)
    model = ModelList((), width, bounded=policy is SizePolicy.FAIL_FAST)
    model.add_all(items)
    return lst, model


class TestTrialBodies:
    @pytest.mark.parametrize("width", [8, 16])
    def test_clear_and_fast_forward_inside_a_trial(self, width):
        lst, _ = wrap_state(width)
        before = fingerprint(lst)
        ghost = lst.ghost
        with lst.trial():
            lst.clear()
            lst.fast_forward((A, B) * 5)
            lst.add_first(Z)
            lst.clear()
            lst.fast_forward((B,))
        assert fingerprint(lst) == before
        assert lst.ghost is ghost  # clear's log entry kept it whole, no copy

    def test_nested_trials_restore_each_level(self):
        lst = build_list([A, B] * 6)
        levels = [fingerprint(lst)]
        with lst.trial():
            lst.add_at(3, Z)
            lst.remove_at(7)
            levels.append(fingerprint(lst))
            with lst.trial():
                lst.clear()
                lst.fast_forward((A, A, B))
                levels.append(fingerprint(lst))
                with lst.trial():
                    lst.replace_ghost(lst.ghost[::-1])
                    lst.poll_last()
                    lst.add_at(1, B)
                assert fingerprint(lst) == levels.pop()
                lst.add(Z)
            assert fingerprint(lst) == levels.pop()
            lst.poll_first()
        assert fingerprint(lst) == levels.pop()
        assert lst._ghost_log is None

    @pytest.mark.parametrize("mode", ["invariant", "full"])
    def test_a_checked_call_inside_a_trial(self, mode):
        """The call's edit and journal are the ones it has with no trial
        open, and the trial undoes the call."""
        full = mode == "full"
        steps = [("add", (Z,)), ("add_at", (5, Z)), ("remove_at", (4,)), ("set_at", (2, Z)),
                 ("clear", ()), ("poll_first", ()), ("get", (3,)), ("add_first", (B,))]
        for op, args in steps:
            seen = []
            real = ghostspec.exit_invariant_holds

            def spy(lst, edits, journal):
                journal = (list(journal[0]), journal[1])  # the writes, read once
                seen.append((list(edits), journal))
                return real(lst, edits, journal)

            def call(lst):
                items = tuple(lst.items())
                model = model_for(items, 8, op, args) if full else None
                return checked_step(lst, op, args, model)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ghostspec, "exit_invariant_holds", spy)
                lst = build_list([A, B] * 5, probes=full)
                before = fingerprint(lst)
                with lst.trial():
                    in_trial = call(lst)
                assert fingerprint(lst) == before, op
                assert call(lst) == in_trial, op
            assert len(seen) in (0, 2) and seen[:1] == seen[1:], op


# -- the harness reads no ghost in proportion to its length ---------------------


class CountingGhost(list):
    """A ghost that counts the entries read from it: one per index, each
    entry of a slice, an iteration or a comparison, and the entries a
    search passes."""

    reads = 0

    def _count(self, n):
        CountingGhost.reads += n

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self._count(len(got) if isinstance(i, slice) else 1)
        return got

    def __iter__(self):
        for x in super().__iter__():
            self._count(1)
            yield x

    def __reversed__(self):
        for x in super().__reversed__():
            self._count(1)
            yield x

    def index(self, x, *args):
        try:
            i = super().index(x, *args)
        except ValueError:
            self._count(len(self))
            raise
        self._count(i + 1)
        return i

    def __contains__(self, x):
        try:
            self.index(x)
        except ValueError:
            return False
        return True

    def __eq__(self, other):
        self._count(len(self))
        return super().__eq__(other)

    def __ne__(self, other):
        self._count(len(self))
        return super().__ne__(other)

    __hash__ = None


def counted(lst):
    """``lst`` with its ghost swapped for a ``CountingGhost``."""
    lst.ghost = CountingGhost(lst.ghost)
    return lst


def ghost_reads(fn, *args):
    CountingGhost.reads = 0
    try:
        fn(*args)
    except ListError:
        pass
    return CountingGhost.reads


def filled(n, width):
    return counted(build_list([(A, B, NULL)[i % 3] for i in range(n)], width))


def harness_reads(n, width, op, args):
    """The ghost entries an ``invariant`` checked step reads beyond what
    the same call reads on its own."""
    return (ghost_reads(checked_step, filled(n, width), op, args)
            - ghost_reads(apply_op, filled(n, width), op, args))


@pytest.mark.parametrize("op, args_at", [
    ("add", lambda n: (A,)), ("add_first", lambda n: (B,)), ("add_at", lambda n: (n // 2, A)),
    ("remove_at", lambda n: (n // 2,)), ("set_at", lambda n: (n // 2, Z)),
    ("poll_last", lambda n: ()), ("poll_first", lambda n: ()), ("get", lambda n: (n // 2,)),
    ("remove_item", lambda n: (Z,)),
])
def test_a_passing_checked_step_reads_as_much_ghost_at_8_as_at_1000_nodes(op, args_at):
    assert harness_reads(8, 16, op, args_at(8)) == harness_reads(1000, 16, op, args_at(1000))


def test_a_refused_add_at_capacity_reads_no_ghost():
    # capacity is 127 nodes at width 8 and 32,767 at width 16
    assert harness_reads(127, 8, "add", (A,)) == harness_reads(32767, 16, "add", (A,)) == 0


@pytest.mark.parametrize("policy", list(SizePolicy), ids=lambda p: p.value)
def test_a_query_probes_trial_on_the_wrap_state_copies_nothing(policy):
    lst, abs_state = wrap_state(16, policy)
    counted(lst)
    ghost = lst.ghost
    queries = [(m, args) for m, spec in sorted(OP_SPECS.items()) if not spec.mutating
               for args in spec.probes]
    assert queries
    for method, args in queries:
        def probe():
            with lst.trial():
                _probe_classification(lst, abs_state, method, args)

        assert ghost_reads(probe) == 0, method
        assert lst.ghost is ghost
