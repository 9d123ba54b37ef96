"""Documented-semantics oracle.

The oracle is itself an oracle for other tests, so it gets its own
check against a third, dumber model: plain Python lists manipulated
inline in each test. Expected values are written out literally.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from overlist.errors import UsageError
from overlist.heapmodel import NULL, Atom, NullItem, items_equal
from overlist.oracle import (
    ALPHABET,
    INDEX,
    MARKER,
    OP_SPECS,
    AbstractList,
    ModelList,
    UNSPECIFIED,
    Verdict,
    error,
    first_index,
    last_index,
    observe_equal,
    oracle_apply,
    value,
)

A, B = Atom("a"), Atom("b")


def state(*items, width=8, bounded=True):
    return AbstractList(tuple(items), width, bounded)


def applied(a, op, args):
    """The verdict of ``op`` on an oracle state built from the snapshot
    ``a``, and the snapshot of that state after it."""
    m = ModelList(*a)
    v, _ = oracle_apply(m, op, args)
    return v, m.snapshot()


def verdict_of(a, op, *args):
    return applied(a, op, args)[0]


def next_state(a, op, *args):
    return applied(a, op, args)[1]


class TestQueries:
    def test_size_plain(self):
        assert verdict_of(state(A, B), "size").value == 2

    def test_size_clamps_at_width_max(self):
        # documented size of a 130-element list is MAX when W = 8:
        # the spec can promise no more than the return type can hold
        big = state(*([NULL] * 130), bounded=False)
        assert verdict_of(big, "size").value == 127

    def test_get(self):
        a = state(A, NULL, B)
        assert verdict_of(a, "get", 1).value == NULL
        assert verdict_of(a, "get", 3).error == "index_out_of_bounds"
        assert verdict_of(a, "get", -1).error == "index_out_of_bounds"

    def test_index_of_null_vs_atom(self):
        a = state(A, NULL, A, NULL)
        assert verdict_of(a, "index_of", NULL).value == 1
        assert verdict_of(a, "last_index_of", NULL).value == 3
        assert verdict_of(a, "index_of", A).value == 0
        assert verdict_of(a, "last_index_of", A).value == 2
        assert verdict_of(a, "index_of", B).value == -1
        assert verdict_of(a, "last_index_of", B).value == -1

    def test_index_beyond_max_is_unspecified(self):
        # W = 8: positions above 127 cannot be represented, the
        # documented contract simply has nothing to say
        big = state(*([NULL] * 130 + [A]), bounded=False)
        assert verdict_of(big, "index_of", A) is UNSPECIFIED
        assert verdict_of(big, "last_index_of", A) is UNSPECIFIED
        assert verdict_of(big, "index_of", NULL).value == 0

    def test_contains_is_true_membership(self):
        big = state(*([NULL] * 130 + [A]), bounded=False)
        assert verdict_of(big, "contains", A).value is True
        assert verdict_of(big, "contains", B).value is False

    def test_to_array(self):
        assert verdict_of(state(A, B), "to_array").value == (A, B)
        big = state(*([NULL] * 130), bounded=False)
        assert verdict_of(big, "to_array") is UNSPECIFIED


class TestMutators:
    def test_add_appends(self):
        a = next_state(state(A), "add", B)
        assert a.items == (A, B)

    def test_add_at_position_bounds(self):
        a = state(A, B)
        assert verdict_of(a, "add_at", 2, NULL).value is None
        assert verdict_of(a, "add_at", 3, NULL).error == "index_out_of_bounds"
        assert next_state(a, "add_at", 1, NULL).items == (A, NULL, B)

    def test_set_at_returns_displaced(self):
        a = state(A, B)
        assert verdict_of(a, "set_at", 0, NULL).value == A
        assert next_state(a, "set_at", 0, NULL).items == (NULL, B)

    def test_remove_at(self):
        a = state(A, NULL, B)
        assert verdict_of(a, "remove_at", 1).value == NULL
        assert next_state(a, "remove_at", 1).items == (A, B)

    def test_remove_item_first_match_only(self):
        a = state(A, B, A)
        assert next_state(a, "remove_item", A).items == (B, A)
        assert next_state(a, "remove_last_occurrence", A).items == (A, B)
        assert verdict_of(a, "remove_item", NULL).value is False

    def test_clear(self):
        assert next_state(state(A, B), "clear").items == ()


class TestCapacityBound:
    def test_bounded_add_refused_at_max(self):
        full = state(*([A] * 127))
        for op in ("add", "add_first", "add_last"):
            assert verdict_of(full, op, B).error == "illegal_state"
        assert verdict_of(full, "add_at", 0, B).error == "illegal_state"

    def test_position_check_precedes_capacity_check(self):
        full = state(*([A] * 127))
        assert verdict_of(full, "add_at", 200, B).error == "index_out_of_bounds"

    def test_unbounded_add_always_allowed(self):
        full = state(*([A] * 127), bounded=False)
        assert verdict_of(full, "add", B).value is True
        assert verdict_of(full, "check_size").error == "illegal_state"
        assert verdict_of(full, "is_max_size").value is True

    @settings(deadline=None)
    @given(st.integers(127, 140),
           st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=40), st.data())
    def test_bounded_run_from_empty_is_never_unspecified(self, adds, ops, data):
        # a FailFast run's oracle starts empty and is bounded, so its length
        # stays at most 127 and its searches and to_array stay specified;
        # at least one add is refused at capacity
        steps = [("add", (NULL,))] * adds + [
            (op, tuple(data.draw(st.integers(-1, 130) if kind == INDEX else st.sampled_from(ALPHABET))
                       for kind in OP_SPECS[op].args))
            for op in ops
        ]
        a = ModelList()
        for op, args in steps:
            v, a = oracle_apply(a, op, args)
            assert v.kind != "unspecified", (op, args, len(a.items))
            assert len(a.items) <= 127

    def test_below_bound_equivalent(self):
        a, b = state(A, B), state(A, B, bounded=False)
        assert verdict_of(a, "add", NULL) == verdict_of(b, "add", NULL)
        for op in ("size", "to_array", "get_first"):
            assert verdict_of(a, op) == verdict_of(b, op)


def add_fold(a, items):
    """``add`` applied one item at a time to the snapshot ``a``: the rule
    ``ModelList.add_all`` must equal."""
    m = ModelList(*a)
    for x in items:
        oracle_apply(m, "add", (x,))
    return m.snapshot()


def add_all(a, items):
    m = ModelList(*a)
    m.add_all(items)
    return m.snapshot()


class TestBulkAdd:
    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_preparations_equal_the_fold(self, bounded, wrap):
        # the census preparations at width 8: 128 nulls flip the sign,
        # 255 nulls and the marker wrap it to zero
        items = [NULL] * 255 + [MARKER] if wrap else [NULL] * 128
        empty = state(bounded=bounded)
        bulk = add_all(empty, items)
        assert bulk == add_fold(empty, items)
        assert len(bulk.items) == (127 if bounded else 256 if wrap else 128)

    @given(
        st.lists(st.sampled_from([NULL, A, B]), max_size=140),
        st.lists(st.sampled_from([NULL, A, B]), max_size=140),
        st.booleans(),
    )
    def test_random_sequences_equal_the_fold(self, start, items, bounded):
        # width 8 puts the bound at 127, inside the drawn lengths; a
        # bounded start may already sit past it
        a = state(*start, bounded=bounded)
        assert add_all(a, items) == add_fold(a, items)


class TestDequeEnds:
    def test_empty_list_behavior_split(self):
        e = state()
        assert verdict_of(e, "get_first").error == "no_such_element"
        assert verdict_of(e, "remove_last").error == "no_such_element"
        assert verdict_of(e, "peek_first").value is None
        assert verdict_of(e, "poll_last").value is None

    def test_nonempty_endpoints(self):
        a = state(A, NULL, B)
        assert verdict_of(a, "get_first").value == A
        assert verdict_of(a, "get_last").value == B
        assert next_state(a, "poll_first").items == (NULL, B)
        assert next_state(a, "remove_last").items == (A, NULL)
        assert next_state(a, "add_first", B).items == (B, A, NULL, B)

    @given(st.lists(st.sampled_from([NULL, A, B]), max_size=300))
    def test_deque_ops_never_unspecified(self, items):
        a = AbstractList(tuple(items), 8, bounded=False)
        for op in [name for name, spec in OP_SPECS.items() if spec.interface == "Deque"]:
            args = (A,) if op.startswith("add") else ()
            assert verdict_of(a, op, *args).kind != "unspecified"


class TestObserveEqual:
    def test_agree_on_values_and_errors(self):
        assert observe_equal(("value", 3), value(3)) == "agree"
        assert observe_equal(("error", "index_out_of_bounds"),
                             verdict_of(state(), "get", 0)) == "agree"

    def test_disagreements(self):
        assert observe_equal(("value", 3), value(4)) == "disagree"
        assert observe_equal(("value", 3), verdict_of(state(), "get", 0)) == "disagree"
        assert observe_equal(("error", "no_such_element"),
                             verdict_of(state(), "get", 0)) == "disagree"

    def test_unspecified_skips(self):
        assert observe_equal(("value", -1), UNSPECIFIED) == "skipped"
        assert observe_equal(("error", "anything"), UNSPECIFIED) == "skipped"


def reference_apply(a: AbstractList, op: str, args: tuple) -> tuple[Verdict, AbstractList]:
    """The oracle as one ``if`` chain with a fresh verdict per answer:
    the reference the rule table must equal."""
    items = a.items
    n = len(items)
    cap = (1 << (a.width - 1)) - 1

    def updated(new_items) -> AbstractList:
        return AbstractList(tuple(new_items), a.width, a.bounded)

    def add_allowed() -> Verdict | None:
        if a.bounded and n >= cap:
            return error("illegal_state")
        return None

    if op == "size":
        return value(min(n, cap)), a
    if op == "is_max_size":
        return value(n >= cap), a
    if op == "check_size":
        if n >= cap:
            return error("illegal_state"), a
        return value(None), a
    if op == "get":
        (i,) = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), a
    if op == "set_at":
        i, x = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), updated(items[:i] + (x,) + items[i + 1 :])
    if op == "add_at":
        i, x = args
        if not 0 <= i <= n:
            return error("index_out_of_bounds"), a
        blocked = add_allowed()
        if blocked:
            return blocked, a
        return value(None), updated(items[:i] + (x,) + items[i:])
    if op == "remove_at":
        (i,) = args
        if not 0 <= i < n:
            return error("index_out_of_bounds"), a
        return value(items[i]), updated(items[:i] + items[i + 1 :])
    if op in ("add", "add_last", "add_first"):
        (x,) = args
        blocked = add_allowed()
        if blocked:
            return blocked, a
        new = (x,) + items if op == "add_first" else items + (x,)
        return value(True if op == "add" else None), updated(new)
    if op == "index_of":
        (x,) = args
        p = first_index(items, x)
        if p is None:
            return value(-1), a
        return (value(p), a) if p <= cap else (UNSPECIFIED, a)
    if op == "last_index_of":
        (x,) = args
        p = last_index(items, x)
        if p is None:
            return value(-1), a
        return (value(p), a) if p <= cap else (UNSPECIFIED, a)
    if op == "contains":
        (x,) = args
        return value(first_index(items, x) is not None), a
    if op in ("remove_item", "remove_first_occurrence", "remove_last_occurrence"):
        (x,) = args
        find = last_index if op == "remove_last_occurrence" else first_index
        p = find(items, x)
        if p is None:
            return value(False), a
        return value(True), updated(items[:p] + items[p + 1 :])
    if op == "clear":
        return value(None), updated(())
    if op == "to_array":
        if n > cap:
            return UNSPECIFIED, a
        return value(items), a
    if op == "get_first":
        return (value(items[0]), a) if n else (error("no_such_element"), a)
    if op == "get_last":
        return (value(items[-1]), a) if n else (error("no_such_element"), a)
    if op == "peek_first":
        return value(items[0] if n else None), a
    if op == "peek_last":
        return value(items[-1] if n else None), a
    if op == "poll_first":
        if not n:
            return value(None), a
        return value(items[0]), updated(items[1:])
    if op == "poll_last":
        if not n:
            return value(None), a
        return value(items[-1]), updated(items[:-1])
    if op == "remove_first":
        if not n:
            return error("no_such_element"), a
        return value(items[0]), updated(items[1:])
    if op == "remove_last":
        if not n:
            return error("no_such_element"), a
        return value(items[-1]), updated(items[:-1])
    raise UsageError(f"unknown operation {op!r}")


def assert_matches_reference(a, op, args):
    """The in-place oracle on a ``ModelList`` built from the snapshot
    ``a``, in a savepoint: the reference's verdict fields and repr and its
    post-state, the state itself handed back, one edit logged exactly
    where the reference returns a new state, and ``undo`` of the logged
    edit restoring ``a``. Returns the post-state's snapshot."""
    want, want_post = reference_apply(a, op, args)
    m = ModelList(*a)
    m.open_savepoint()
    got, post = oracle_apply(m, op, args)
    edits = m.close_savepoint()
    assert post is m
    assert (got.kind, got.value, got.error) == (want.kind, want.value, want.error), (op, args)
    assert repr(got) == repr(want), (op, args)
    assert repr(tuple(m.items)) == repr(want_post.items), (op, args)
    assert (m.width, m.bounded) == (want_post.width, want_post.bounded)
    assert len(edits) == (want_post is not a), (op, args)
    snapshot = m.snapshot()
    m.undo(edits)
    assert repr(tuple(m.items)) == repr(a.items), (op, args)
    return snapshot


def all_calls(n):
    """Every call of every operation on a list of ``n`` items: every
    alphabet item, and every index from -1 to n + 1."""
    for op, spec in OP_SPECS.items():
        choices = [range(-1, n + 2) if kind == INDEX else ALPHABET for kind in spec.args]
        for args in product(*choices):
            yield op, args


def reference_states():
    """Width-8 states around the empty list and around the maximum size
    127, bounded and unbounded: the alphabet cycled, and a run of nulls
    ending in one ``b`` and one marker, whose positions pass 127 at the
    longest lengths (so searches and ``to_array`` turn Unspecified)."""
    for n, bounded in product([0, 1, 2, 3, 125, 126, 127, 128, 129], [True, False]):
        yield AbstractList(tuple(ALPHABET[i % len(ALPHABET)] for i in range(n)), 8, bounded)
        tail = (B, MARKER)[: min(n, 2)]
        yield AbstractList((NULL,) * (n - len(tail)) + tail, 8, bounded)


class TestRuleTableMatchesReference:
    def test_every_call_on_the_reference_states(self):
        kinds = set()
        for a in reference_states():
            for op, args in all_calls(len(a.items)):
                assert_matches_reference(a, op, args)
                kinds.add(reference_apply(a, op, args)[0].kind)
        assert kinds == {"value", "error", "unspecified"}

    def test_unknown_operation(self):
        for op in ("sort", "", ["add"]):
            with pytest.raises(UsageError, match="unknown operation"):
                oracle_apply(state(), op, ())

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(ALPHABET), max_size=140),
        st.booleans(),
        st.lists(st.sampled_from(sorted(OP_SPECS)), min_size=1, max_size=30),
        st.data(),
    )
    def test_drawn_states_and_calls(self, items, bounded, ops, data):
        # each call runs on the state the previous one left
        a = AbstractList(tuple(items), 8, bounded)
        for op in ops:
            n = len(a.items)
            args = tuple(
                data.draw(st.integers(-1, n + 1) if kind == INDEX else st.sampled_from(ALPHABET))
                for kind in OP_SPECS[op].args
            )
            a = assert_matches_reference(a, op, args)


def fresh_copy(item):
    """An item equal to ``item`` that is a distinct instance."""
    return NullItem() if isinstance(item, NullItem) else Atom(item.token)


def loop_first(items, target):
    for i, item in enumerate(items):
        if items_equal(target, item):
            return i
    return None


def loop_last(items, target):
    for i in reversed(range(len(items))):
        if items_equal(target, items[i]):
            return i
    return None


class TestSearchesMatchItemsEqual:
    """``first_index`` and ``last_index`` are the sequence's own ``==``
    scans; on the item domain they must answer what a plain loop over
    ``heapmodel.items_equal`` answers. The reference oracle above calls
    them, so this is their independent check: every tuple over
    ``ALPHABET`` up to length 5, also rebuilt from fresh instances and as
    a list, against every ``ALPHABET`` item and a fresh copy of each."""

    def test_every_short_sequence(self):
        targets = ALPHABET + tuple(map(fresh_copy, ALPHABET))
        assert not any(a is b for a, b in zip(targets, targets[len(ALPHABET):]))
        seen = set()
        for n in range(6):
            for items in product(ALPHABET, repeat=n):
                for seq in (items, tuple(map(fresh_copy, items)), list(items)):
                    for target in targets:
                        p, q = loop_first(seq, target), loop_last(seq, target)
                        assert first_index(seq, target) == p, (seq, target)
                        assert last_index(seq, target) == q, (seq, target)
                        seen.add((p is None, p == q))
        # misses, single hits and repeated hits all occurred
        assert seen == {(True, True), (False, True), (False, False)}
