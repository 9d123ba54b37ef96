"""Runtime-checkable specification layer.

Each invariant clause gets a targeted corruption that must trip exactly
that clause with a witness. The derived properties (acyclicity, unique
endpoints) must follow from the invariant, which is checked here on
hand-built states and exhaustively elsewhere.
"""

import gc
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracle_model import model_for

from overlist.difftest import OpScript, run_script
from overlist.errors import ContractViolation, CycleDetected, ListError, UsageError
from overlist.ghostspec import (
    EMPTY_FOOTPRINT,
    Footprint,
    check_acyclic,
    check_invariant,
    check_unique_endpoints,
    checked_step,
    contract_for,
    frame_check,
    observe,
    run_checked,
)
from overlist import listcore, oracle
from overlist.heapmodel import NULL, Atom, walk_chain
from overlist.jint import max_value
from overlist.listcore import CheckMode, SizePolicy, new_list
from overlist.statespace import build_list, random_state

A, B = Atom("a"), Atom("b")
SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE_MODULES = sorted(p.stem for p in (SRC / "overlist").glob("*.py") if p.stem != "__init__")


#: run as ``python -c IMPORT_FIRST <package dir> <module>...``: for each
#: module, forget the package, execute that module's file first inside a
#: fresh package object whose ``__init__.py`` never runs, then drive the
#: checked harness through the modules it pulled in. Prints a JSON object
#: mapping each module to None or the traceback of its failure.
IMPORT_FIRST = """
import importlib.util, json, sys, traceback, types
pkg_dir, *modules = sys.argv[1:]
failures = {}
for first in modules:
    for name in [n for n in sys.modules if n == "overlist" or n.startswith("overlist.")]:
        del sys.modules[name]
    pkg = types.ModuleType("overlist")
    pkg.__path__ = [pkg_dir]
    sys.modules["overlist"] = pkg
    failures[first] = None
    try:
        spec = importlib.util.spec_from_file_location(f"overlist.{first}", f"{pkg_dir}/{first}.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
        from overlist import ghostspec, heapmodel, listcore, oracle
        assert sys.modules["overlist"] is pkg and not hasattr(pkg, "__file__")
        assert ghostspec.listcore is listcore and ghostspec.oracle is oracle
        lst = listcore.new_list(8, listcore.SizePolicy.FAIL_FAST, probes=True)
        assert ghostspec.run_checked(lst, "add", (heapmodel.NULL,)) is True
        found = ghostspec.run_checked(lst, "index_of", (heapmodel.NULL,))
        assert type(found) is int and found == 0
    except Exception:
        failures[first] = traceback.format_exc()
print(json.dumps(failures))
"""


@pytest.fixture(scope="module")
def import_first_failures():
    """Each module's failure when loaded first, all from one interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_FIRST, str(SRC / "overlist"),
                           *PACKAGE_MODULES], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def checked_list(items):
    return build_list(items, probes=True)


class TestInvariantClauses:
    def test_well_formed_passes_all(self):
        for items in ([], [A], [A, NULL, B]):
            assert check_invariant(build_list(items)) == []

    def test_c1_size_vs_ghost_length(self):
        lst = build_list([A, B])
        lst.size = 3
        failures = check_invariant(lst)
        assert [cid for cid, _ in failures] == ["C1"]
        assert "size=3" in dict(failures)["C1"]

    def test_c3_ghost_entries_allocated(self):
        lst = build_list([A, B])
        lst.ghost.append(999)
        lst.size = 3  # keep C1 quiet to isolate C3
        failed = {cid for cid, _ in check_invariant(lst)}
        assert "C3" in failed

    def test_c3_witness_names_the_first_unallocated_position(self):
        lst = build_list([A, B, A, B])
        lst.ghost[1] = 999
        lst.ghost[3] = 999
        assert check_invariant(lst) == [
            ("C3", "nodeList[1]=999 unallocated"),
            ("C5", "unallocated ghost entry"),
            ("C6", "unallocated ghost entry"),
        ]

    def test_c4_empty_endpoints_absent(self):
        lst = build_list([A])
        nid = lst.ghost[0]
        lst.ghost.clear()
        lst.size = 0
        failed = dict(check_invariant(lst))
        assert "C4" in failed
        assert str(nid) in failed["C4"]

    def test_c5_first_matches_ghost_head(self):
        lst = build_list([A, B])
        lst.first = lst.ghost[1]
        failed = dict(check_invariant(lst))
        assert "C5" in failed
        assert "first" in failed["C5"]

    def test_c5_outer_links_absent(self):
        lst = build_list([A, B])
        lst.store.set_prev(lst.first, lst.last)
        failed = dict(check_invariant(lst))
        assert "C5" in failed
        assert "has prev" in failed["C5"]

    def test_c6_internal_links_agree(self):
        lst = build_list([A, B, A])
        n0, n1, n2 = lst.ghost
        lst.store.set_next(n0, n2)
        failed = dict(check_invariant(lst))
        assert "C6" in failed
        assert "next" in failed["C6"]

    def test_c6_prev_direction_checked_separately(self):
        lst = build_list([A, B, A])
        n0, n1, n2 = lst.ghost
        lst.store.set_prev(n2, n0)
        assert "C6" in dict(check_invariant(lst))

    def test_overflowed_unchecked_state_fails_c1(self):
        lst = new_list(8, SizePolicy.UNCHECKED)
        for _ in range(128):
            lst.add(NULL)
        failed = dict(check_invariant(lst))
        assert "C1" in failed
        assert "C2" not in failed  # the width bound itself holds


def reference_check_invariant(state) -> list:
    """The six clauses evaluated node by node, one store lookup per
    field read: the reference the bulk ``check_invariant`` must match."""
    store = state.store
    nl = state.ghost
    n = len(nl)
    failures = []
    if state.size != n:
        failures.append(("C1", f"size={state.size} vs |nodeList|={n}"))
    cap = max_value(state.width).value
    if state.size > cap:
        failures.append(("C2", f"size={state.size} > {cap}"))
    bad = next((i for i, nid in enumerate(nl) if nid not in store), None)
    if bad is not None:
        failures.append(("C3", f"nodeList[{bad}]={nl[bad]} unallocated"))
    if n == 0:
        if state.first is not None or state.last is not None:
            failures.append(("C4", f"empty but first={state.first} last={state.last}"))
        return failures
    if bad is not None:
        failures += [("C5", "unallocated ghost entry"), ("C6", "unallocated ghost entry")]
        return failures
    c5_witness = None
    if state.first != nl[0]:
        c5_witness = f"first={state.first} != nodeList[0]={nl[0]}"
    elif state.last != nl[-1]:
        c5_witness = f"last={state.last} != nodeList[{n - 1}]={nl[-1]}"
    elif store.record(nl[0]).prev is not None:
        c5_witness = f"first node {nl[0]} has prev={store.record(nl[0]).prev}"
    elif store.record(nl[-1]).next is not None:
        c5_witness = f"last node {nl[-1]} has next={store.record(nl[-1]).next}"
    if c5_witness is not None:
        failures.append(("C5", c5_witness))
    c6_witness = None
    for i in range(1, n):
        if store.record(nl[i]).prev != nl[i - 1]:
            c6_witness = f"i={i}: prev={store.record(nl[i]).prev} != nodeList[{i - 1}]={nl[i - 1]}"
            break
    if c6_witness is None:
        for i in range(n - 1):
            if store.record(nl[i]).next != nl[i + 1]:
                c6_witness = f"i={i}: next={store.record(nl[i]).next} != nodeList[{i + 1}]={nl[i + 1]}"
                break
    if c6_witness is not None:
        failures.append(("C6", c6_witness))
    return failures


def reference_walk(store, first):
    """A chain walk that keeps a visited set and looks up each node."""
    seq, seen, node = [], set(), first
    while node is not None:
        if node in seen or len(seq) > len(store):
            raise CycleDetected(node, len(seq))
        seen.add(node)
        seq.append(node)
        node = store.record(node).next
    return seq


def walk_outcome(walk, state):
    try:
        return walk(state.store, state.first)
    except Exception as e:  # the exception type and message are the outcome
        return type(e).__name__, str(e)


def corrupted_states(seed: int, count: int):
    """Random states (well-formed, with one corruption, or scrambled),
    some longer than the default."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_state(rng, max_nodes=rng.choice((8, 8, 40)))


class TestBulkChecksMatchPerNodeReference:
    def test_check_invariant_and_walk_chain_on_corrupted_states(self):
        seen = Counter()
        for state in corrupted_states(seed=17, count=6000):
            failures = check_invariant(state)
            assert failures == reference_check_invariant(state)
            outcome = walk_outcome(walk_chain, state)
            assert outcome == walk_outcome(reference_walk, state)
            seen.update(cid for cid, _ in failures)
            if isinstance(outcome, tuple):
                seen[outcome[0]] += 1
        # every clause that a W-bit size can break (C2 cannot: the cached
        # size never exceeds its width's maximum) and both kinds of chain
        # corruption were exercised
        assert {"C1", "C3", "C4", "C5", "C6", "CycleDetected", "DanglingLink"} <= set(seen)


def test_random_states_break_c3_and_dangle():
    """``random_state`` alone, as ``overlist check`` draws it, builds
    unallocated ghost entries and chains that end in a dangling link."""
    rng = random.Random(5)
    c3 = dangling = 0
    for _ in range(20_000):
        state = random_state(rng)
        c3 += "C3" in dict(check_invariant(state))
        outcome = walk_outcome(walk_chain, state)
        dangling += isinstance(outcome, tuple) and outcome[0] == "DanglingLink"
    assert c3 > 0 and dangling > 0


class TestDerivedProperties:
    def test_acyclic_on_well_formed(self):
        ok, witness = check_acyclic(build_list([A, B, A]))
        assert ok and witness is None

    def test_acyclic_witness_positions(self):
        lst = build_list([A, B])
        lst.ghost.append(lst.ghost[0])
        ok, witness = check_acyclic(lst)
        assert not ok and witness == (0, 2)

    def test_unique_endpoints_on_well_formed(self):
        ok, witness = check_unique_endpoints(build_list([A, NULL, B]))
        assert ok and witness is None

    def test_unique_endpoints_witness(self):
        lst = build_list([A, B, A])
        lst.store.set_next(lst.ghost[1], None)
        ok, witness = check_unique_endpoints(lst)
        assert not ok and witness == 1


@dataclass(frozen=True)
class CyclePropagation:
    """Outcome of stepping the cycle-propagation induction for (i, j).

    ``kind`` is "refutation" when the two positions hold distinct nodes.
    Otherwise the induction chain of node equalities (k, k - (j - i)) is
    verified step by step against the store's next links, ending at the
    last position where the unique-endpoint contradiction shows up."""

    kind: str  # "refutation" | "chain"
    i: int
    j: int
    equalities: tuple[tuple[int, int], ...] = ()
    steps_hold: bool = True
    contradiction_next_present: bool | None = None


def cycle_propagation_witness(state, i: int, j: int) -> CyclePropagation:
    """Step the paper's acyclicity induction for the ghost positions
    ``i < j`` of ``state``; a test-side witness, as no product path needs it."""
    nl = state.ghost
    n = len(nl)
    if not 0 <= i < j < n:
        raise UsageError(f"need 0 <= i < j < {n}, got i={i} j={j}")
    if nl[i] != nl[j]:
        return CyclePropagation("refutation", i, j)
    d = j - i
    store = state.store
    equalities = []
    steps_hold = True
    for k in range(j, n):
        # base case k == j holds by assumption; each further step follows
        # because both sides are the next of the previous (equal) pair
        if k > j:
            same_source = nl[k - 1] == nl[k - 1 - d]
            propagated = (
                store.next(nl[k - 1]) == nl[k]
                and store.next(nl[k - 1 - d]) == nl[k - d]
            )
            if not (same_source and propagated and nl[k] == nl[k - d]):
                steps_hold = False
                break
        equalities.append((k, k - d))
    contradiction = store.next(nl[n - 1]) is not None if steps_hold else None
    return CyclePropagation(
        "chain",
        i,
        j,
        equalities=tuple(equalities),
        steps_hold=steps_hold,
        contradiction_next_present=contradiction,
    )


class TestCyclePropagation:
    def test_refutation_when_nodes_distinct(self):
        w = cycle_propagation_witness(build_list([A, B, A]), 0, 2)
        assert w.kind == "refutation"

    def test_induction_chain_on_duplicated_ghost(self):
        # hand-built: ghost [a, b, a, b] over a 2-node cycle a <-> b.
        # Assuming nodeList[0] == nodeList[2] propagates equality to the
        # end of the sequence, where the last node still has a next
        # pointer, contradicting unique endpoints.
        lst = new_list(8, SizePolicy.FAIL_FAST)
        na = lst.store.alloc(None, A, None)
        nb = lst.store.alloc(None, B, None)
        lst.store.set_next(na, nb)
        lst.store.set_prev(nb, na)
        lst.store.set_next(nb, na)
        lst.store.set_prev(na, nb)
        lst.first, lst.last = na, nb
        lst.size = 4
        lst.ghost[:] = [na, nb, na, nb]
        w = cycle_propagation_witness(lst, 0, 2)
        assert w.kind == "chain"
        assert w.steps_hold
        assert w.equalities == ((2, 0), (3, 1))
        assert w.contradiction_next_present is True

    def test_bad_positions_rejected(self):
        with pytest.raises(UsageError):
            cycle_propagation_witness(build_list([A, B]), 1, 1)


def framed(lst, write, fp=EMPTY_FOOTPRINT):
    """Frame violations of ``write()`` run on ``lst`` under a journal."""
    pre = observe((lst.first, lst.last, lst.size), len(lst.ghost))
    mark = lst.store.open_journal()
    write()
    entries, fresh = lst.store.close_journal(mark)
    return frame_check(pre, lst, (list(lst.store.writes(entries, fp.nodes)), fresh), fp, lst.ghost)


class TestFrameCheck:
    def test_unchanged_state_passes_empty_footprint(self):
        lst = build_list([A, B])
        assert framed(lst, lambda: lst.get(0)) == []

    def test_out_of_frame_node_write_reported(self):
        lst = build_list([A, B])
        violations = framed(lst, lambda: lst.store.set_item(lst.ghost[0], B))
        assert len(violations) == 1
        assert violations[0][0] == "frame" and ".item" in violations[0][1]

    def test_header_write_reported(self):
        lst = build_list([A, B])
        violations = framed(lst, lambda: setattr(lst, "size", 5))
        assert any("header size" in w for _, w in violations)

    def test_footprint_permits_declared_writes(self):
        lst = build_list([A, B])
        fp = Footprint(header_fields=frozenset({"size"}))
        assert framed(lst, lambda: setattr(lst, "size", 5), fp) == []

    def test_unexpected_allocation_reported(self):
        lst = build_list([A])
        violations = framed(lst, lambda: lst.store.alloc(None, B, None))
        assert any("allocation" in w for _, w in violations)

    def test_restoring_write_is_not_a_change(self):
        lst = build_list([A, B])
        node = lst.ghost[0]

        def write_and_restore():
            lst.store.set_item(node, B)
            lst.store.set_next(node, None)
            lst.store.set_item(node, A)
            lst.store.set_next(node, lst.ghost[1])

        assert framed(lst, write_and_restore) == []

    def test_writes_to_fresh_nodes_are_not_changes(self):
        lst = build_list([A])

        def alloc_and_write():
            node = lst.store.alloc(None, A, None)
            lst.store.set_item(node, B)
            lst.store.set_prev(node, lst.first)
            lst.store.set_next(node, node)

        assert framed(lst, alloc_and_write, Footprint(fresh=True)) == []


class TestContracts:
    def test_search_ops_have_null_and_nonnull_branches(self):
        assert contract_for("index_of", (NULL,)) == "index_of[null]"
        assert contract_for("index_of", (A,)) == "index_of[non-null]"

    def test_unknown_operation_rejected(self):
        with pytest.raises(UsageError):
            contract_for("sort", ())


class TestModuleBindings:
    """ghostspec imports listcore and oracle at the top, like any other
    module (the package's imports form no cycle, see test_package.py),
    and looks their functions up through the modules at call time."""

    @pytest.mark.parametrize("first", [f"overlist.{m}" for m in PACKAGE_MODULES])
    def test_each_module_can_be_imported_first(self, first, import_first_failures):
        failure = import_first_failures[first.removeprefix("overlist.")]
        assert failure is None, failure

    def test_calls_see_functions_replaced_on_the_modules(self, monkeypatch):
        seen = []
        apply_op, spec_of = listcore.apply_op, oracle.spec_of
        monkeypatch.setattr(listcore, "apply_op", lambda *a: seen.append("apply") or apply_op(*a))
        monkeypatch.setattr(oracle, "spec_of", lambda op: seen.append("spec") or spec_of(op))
        assert run_checked(checked_list([A]), "get", (0,)) == A
        assert seen == ["spec", "apply"]


class TestRunChecked:
    def test_requires_full_mode(self):
        with pytest.raises(UsageError, match="requires a list with probes"):
            run_checked(build_list([A]), "size")

    def test_value_passthrough(self):
        lst = checked_list([A, NULL, B])
        assert run_checked(lst, "get", (1,)) == NULL
        assert run_checked(lst, "remove_at", (0,)) == A
        assert lst.items() == [NULL, B]

    def test_error_passthrough_after_checks(self):
        from overlist.errors import IndexOutOfBoundsError

        lst = checked_list([A])
        with pytest.raises(IndexOutOfBoundsError):
            run_checked(lst, "get", (7,))
        assert lst.items() == [A]

    @pytest.mark.parametrize("op,args", [("index_of", ()), ("get", ()), ("add", (A, B))],
                             ids=["index_of", "get", "add"])
    def test_wrong_argument_count_is_harness_error(self, op, args):
        lst = checked_list([A])
        with pytest.raises(UsageError, match=rf"{op} takes 1 argument\(s\)"):
            run_checked(lst, op, args)
        assert lst.items() == [A]

    def test_broken_entry_state_is_harness_error(self):
        lst = checked_list([A, B])
        lst.size = 1
        with pytest.raises(UsageError):
            run_checked(lst, "size")

    def test_fault_caught_as_contract_violation(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, probes=True,
                       faults=frozenset({"unlink-skip-relink"}))
        for x in (A, B, A):
            run_checked(lst, "add", (x,))
        with pytest.raises(ContractViolation) as exc:
            run_checked(lst, "remove_at", (1,))
        assert "invariant" in exc.value.categories()

    def test_last_index_probe_catches_off_by_one(self):
        lst = new_list(8, SizePolicy.FAIL_FAST, probes=True,
                       faults=frozenset({"lastindexof-off-by-one"}))
        for x in (A, B):
            run_checked(lst, "add", (x,))
        with pytest.raises(ContractViolation):
            run_checked(lst, "last_index_of", (B,))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([NULL, A, B]), max_size=8), st.data())
    def test_clean_implementation_never_trips(self, items, data):
        lst = checked_list(items)
        op, args = data.draw(st.sampled_from([
            ("add", (A,)), ("add_first", (NULL,)), ("clear", ()),
            ("get", (data.draw(st.integers(-1, 9)),)),
            ("remove_at", (data.draw(st.integers(-1, 9)),)),
            ("add_at", (data.draw(st.integers(-1, 9)), B)),
            ("index_of", (NULL,)), ("last_index_of", (A,)),
            ("remove_item", (B,)), ("poll_first", ()), ("to_array", ()),
        ]))
        try:
            run_checked(lst, op, args)
        except ContractViolation as cv:
            pytest.fail(f"spurious contract violation: {cv}")
        except Exception:
            pass  # documented list errors are fine


class TestCheckedStepReturns:
    """``checked_step`` returns ``(outcome, error, failures)``: ``error``
    is the ListError the call raised, with its traceback cleared, and
    None for a value outcome, with or without a model and on either
    exit (a call that wrote nothing, or one that wrote)."""

    @pytest.mark.parametrize("with_model", [False, True], ids=["no-model", "model"])
    @pytest.mark.parametrize("op,args,outcome", [
        ("get", (0,), ("value", A)),
        ("poll_first", (), ("value", A)),
        ("add", (B,), ("value", True)),
        ("get", (7,), ("error", "index_out_of_bounds")),
        ("remove_at", (-1,), ("error", "index_out_of_bounds")),
    ])
    def test_error_is_the_raised_list_error_or_none(self, with_model, op, args, outcome):
        lst = checked_list([A])
        model = model_for((A,), 8, op, args) if with_model else None
        got, error, failures = checked_step(lst, op, args, model)
        assert got == outcome and failures == ()
        if outcome[0] == "value":
            assert error is None
        else:
            assert isinstance(error, ListError) and error.kind == outcome[1]
            assert error.__traceback__ is None

    def test_a_refusal_at_capacity_is_its_error(self):
        lst = checked_list([NULL] * max_value(8).value)
        got, error, failures = checked_step(lst, "add", (A,))
        assert got == ("error", "illegal_state") and failures == ()
        assert isinstance(error, ListError) and error.kind == "illegal_state"


class TestRefusalsLeaveNoCycles:
    """A refused checked call leaves no garbage that only the cyclic
    collector frees, and the error that passes through keeps its type
    and message."""

    @pytest.fixture
    def collector_off(self):
        gc.disable()
        yield
        gc.enable()

    def test_refused_run_checked_calls(self, collector_off):
        calls = [("add", (B,)), ("get", (500,))] * 10
        plain = build_list([A] * 127)
        lst = checked_list([A] * 127)
        expected, raised = [], []
        for op, args in calls:
            with pytest.raises(ListError) as exc:
                listcore.apply_op(plain, op, args)
            expected.append((type(exc.value), str(exc.value)))
        del exc
        gc.collect()
        for op, args in calls:
            try:
                run_checked(lst, op, args)
            except ListError as e:
                raised.append((type(e), str(e)))
        assert gc.collect() == 0
        assert raised == expected

    @pytest.mark.parametrize("mode", list(CheckMode))
    def test_refused_run_script_steps(self, collector_off, mode):
        script = OpScript(0, 8, (("add", (A,)),) * 137 + (("get", (500,)),) * 10)
        gc.collect()
        result = run_script(script, mode)
        assert gc.collect() == 0
        assert result.total("failfast") == 0
