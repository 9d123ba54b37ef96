"""Documented-semantics oracle.

The oracle is itself an oracle for other tests, so it gets its own
check against a third, dumber model: plain Python lists manipulated
inline in each test. Expected values are written out literally.
"""

import pytest
from hypothesis import given, strategies as st

from overlist.heapmodel import NULL, Atom
from overlist.ops import MARKER, OP_SPECS
from overlist.oracle import (
    AbstractList,
    UNSPECIFIED,
    normalize,
    observe_equal,
    oracle_add_all,
    oracle_apply,
    value,
)

A, B = Atom("a"), Atom("b")


def state(*items, width=8, bounded=True):
    return AbstractList(tuple(items), width, bounded)


def verdict_of(a, op, *args):
    v, _ = oracle_apply(a, op, args)
    return v


def next_state(a, op, *args):
    _, a2 = oracle_apply(a, op, args)
    return a2


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

    def test_below_bound_equivalent(self):
        a, b = state(A, B), state(A, B, bounded=False)
        assert verdict_of(a, "add", NULL) == verdict_of(b, "add", NULL)
        for op in ("size", "to_array", "get_first"):
            assert verdict_of(a, op) == verdict_of(b, op)


def add_fold(a, items):
    """``add`` applied one item at a time: the rule ``oracle_add_all``
    must equal."""
    for x in items:
        _, a = oracle_apply(a, "add", (x,))
    return a


class TestBulkAdd:
    @pytest.mark.parametrize("bounded", [True, False])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_preparations_equal_the_fold(self, bounded, wrap):
        # the census preparations at width 8: 128 nulls flip the sign,
        # 255 nulls and the marker wrap it to zero
        items = [NULL] * 255 + [MARKER] if wrap else [NULL] * 128
        empty = state(bounded=bounded)
        bulk = oracle_add_all(empty, items)
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
        assert oracle_add_all(a, items) == add_fold(a, items)


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
            v, _ = oracle_apply(a, op, args)
            assert v.kind != "unspecified"


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

    def test_normalize_bridges_jint_and_list(self):
        from overlist.jint import JInt

        assert observe_equal(("value", JInt(5, 8)), value(5)) == "agree"
        assert normalize([A, B]) == (A, B)
