"""Linked list behavior, below and above the size bound.

Below the bound both policies must behave like a plain Python list
(model-based hypothesis test). Above it, the unchecked policy must
exhibit the documented cached-size pathologies while the chain itself
stays intact; the fail-fast policy must refuse to get there at all.
"""

import pytest
from hypothesis import given, settings, strategies as st

from overlist.difftest import prepare_overflow
from overlist.errors import (
    IllegalStateError,
    IndexOutOfBoundsError,
    ListError,
    NegativeArraySizeError,
    NoSuchElementError,
    UsageError,
)
from overlist.heapmodel import NULL, Atom, walk_chain
from overlist.jint import WIDTHS, max_value, min_value, wrap
from overlist.listcore import CheckMode, SizePolicy, new_list
from overlist.statespace import build_list

A, B, C = Atom("a"), Atom("b"), Atom("c")
MARKER = Atom("marker")


def int_answer(r):
    """An int answer of the list, checked to be a plain int: not a bool,
    not a ``JInt``."""
    assert type(r) is int, r
    return r


def fill_nulls(count, policy=SizePolicy.UNCHECKED, width=8):
    lst = new_list(width, policy)
    for _ in range(count):
        lst.add(NULL)
    return lst


class TestBasicsBelowBound:
    def test_grows_in_order(self):
        lst = build_list([A, B, C])
        assert lst.items() == [A, B, C]
        assert lst.size == 3

    def test_get_set(self):
        lst = build_list([A, B, C])
        assert lst.get(1) == B
        assert lst.set_at(1, NULL) == B
        assert lst.items() == [A, NULL, C]

    def test_add_at_middle_and_ends(self):
        lst = build_list([A, C])
        lst.add_at(1, B)
        lst.add_at(0, NULL)
        lst.add_at(4, NULL)
        assert lst.items() == [NULL, A, B, C, NULL]

    def test_remove_at(self):
        lst = build_list([A, B, C])
        assert lst.remove_at(1) == B
        assert lst.items() == [A, C]

    def test_index_queries(self):
        lst = build_list([A, NULL, A, B])
        assert int_answer(lst.index_of(A)) == 0
        assert int_answer(lst.last_index_of(A)) == 2
        assert int_answer(lst.index_of(NULL)) == 1
        assert int_answer(lst.index_of(C)) == -1
        assert lst.contains(B) is True
        assert lst.contains(C) is False

    def test_remove_matches(self):
        lst = build_list([A, B, A])
        assert lst.remove_item(A) is True
        assert lst.items() == [B, A]
        assert lst.remove_last_occurrence(A) is True
        assert lst.items() == [B]
        assert lst.remove_item(C) is False

    def test_clear(self):
        lst = build_list([A, B])
        lst.clear()
        assert lst.items() == []
        assert lst.size == 0
        assert lst.first is None and lst.last is None

    def test_to_array(self):
        assert build_list([A, NULL]).to_array() == (A, NULL)
        assert build_list([]).to_array() == ()

    def test_deque_ends(self):
        lst = build_list([B])
        lst.add_first(A)
        lst.add_last(C)
        assert (lst.get_first(), lst.get_last()) == (A, C)
        assert (lst.peek_first(), lst.peek_last()) == (A, C)
        assert lst.poll_first() == A
        assert lst.remove_last() == C
        assert lst.items() == [B]

    def test_empty_deque_behavior(self):
        lst = build_list([])
        with pytest.raises(NoSuchElementError):
            lst.get_first()
        with pytest.raises(NoSuchElementError):
            lst.remove_last()
        assert lst.peek_first() is None
        assert lst.poll_last() is None


class TestErrorsAndAtomicity:
    @pytest.mark.parametrize("index", [-1, 2, 100])
    def test_element_index_checked(self, index):
        lst = build_list([A, B])
        for call in (lambda: lst.get(index),
                     lambda: lst.set_at(index, C),
                     lambda: lst.remove_at(index)):
            with pytest.raises(IndexOutOfBoundsError):
                call()
        assert lst.items() == [A, B]

    def test_position_index_inclusive(self):
        lst = build_list([A, B])
        with pytest.raises(IndexOutOfBoundsError):
            lst.add_at(3, C)
        assert lst.items() == [A, B]
        lst.add_at(2, C)  # == size is a valid insert position
        assert lst.items() == [A, B, C]

    def test_failed_ops_leave_state_unchanged(self):
        lst = build_list([A, B], check_mode=CheckMode.FULL)
        before = (lst.items(), lst.size, list(lst.ghost))
        for call in (lambda: lst.get(5), lambda: lst.remove_at(-1)):
            with pytest.raises(IndexOutOfBoundsError):
                call()
            assert (lst.items(), lst.size, list(lst.ghost)) == before


class TestModelBased:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_python_list_below_bound(self, data):
        """Random op sequences against a plain list, both policies."""
        policy = data.draw(st.sampled_from(list(SizePolicy)))
        lst = new_list(8, policy)
        model = []
        items = st.sampled_from([NULL, A, B])
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(
                ["add", "add_first", "add_at", "get", "set_at", "remove_at",
                 "index_of", "last_index_of", "poll_first", "poll_last",
                 "remove_item", "to_array", "size"]))
            if op == "add":
                x = data.draw(items)
                lst.add(x)
                model.append(x)
            elif op == "add_first":
                x = data.draw(items)
                lst.add_first(x)
                model.insert(0, x)
            elif op == "add_at":
                i = data.draw(st.integers(0, len(model)))
                x = data.draw(items)
                lst.add_at(i, x)
                model.insert(i, x)
            elif op in ("get", "set_at", "remove_at"):
                if not model:
                    continue
                i = data.draw(st.integers(0, len(model) - 1))
                if op == "get":
                    assert lst.get(i) == model[i]
                elif op == "set_at":
                    x = data.draw(items)
                    assert lst.set_at(i, x) == model[i]
                    model[i] = x
                else:
                    assert lst.remove_at(i) == model.pop(i)
            elif op in ("index_of", "last_index_of"):
                x = data.draw(items)
                find = model.index if op == "index_of" else \
                    (lambda v: len(model) - 1 - model[::-1].index(v))
                expect = find(x) if x in model else -1
                assert int_answer(getattr(lst, op)(x)) == expect
            elif op == "poll_first":
                assert lst.poll_first() == (model.pop(0) if model else None)
            elif op == "poll_last":
                assert lst.poll_last() == (model.pop() if model else None)
            elif op == "remove_item":
                x = data.draw(items)
                expect = x in model
                if expect:
                    model.remove(x)
                assert lst.remove_item(x) is expect
            elif op == "to_array":
                assert lst.to_array() == tuple(model)
            else:
                assert lst.size == len(model)
        assert lst.items() == model

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([NULL, A, B]), max_size=30), st.data())
    def test_policies_agree_below_capacity(self, items, data):
        a = build_list(items, policy=SizePolicy.UNCHECKED)
        b = build_list(items, policy=SizePolicy.FAIL_FAST)
        probe = data.draw(st.sampled_from([NULL, A, B, C]))
        assert a.items() == b.items()
        assert a.index_of(probe) == b.index_of(probe)
        assert a.last_index_of(probe) == b.last_index_of(probe)
        assert a.to_array() == b.to_array()


class TestCachedSizeVsChain:
    def test_size_is_wrapped_chain_length(self):
        lst = fill_nulls(0)
        for n in range(1, 301):
            lst.add(NULL)
            assert lst.size == wrap(n, 8)
            assert len(lst.chain()) == n

    def test_chain_survives_size_wrap(self):
        lst = fill_nulls(130)
        assert lst.size == -126
        chain = walk_chain(lst.store, lst.first)
        assert len(chain) == 130
        assert chain == lst.ghost


#: the operations of the int-size property's scripts
SIZE_SCRIPT_OPS = (
    "add", "add_first", "add_at", "remove_first", "remove_last", "remove_at",
    "poll_first", "poll_last", "clear",
)

#: runs of one operation (op, repeat, index), so that width-8 scripts
#: cross capacity; expanded and cut to at most 600 steps
SIZE_SCRIPTS = st.lists(
    st.tuples(st.sampled_from(SIZE_SCRIPT_OPS), st.integers(1, 300), st.integers(0, 300)),
    max_size=12,
).map(lambda runs: [(op, index) for op, k, index in runs for _ in range(k)][:600])


class TestJavaIntSize:
    """The cached size is a plain int kept in the signed W-bit range."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_max_plus_one_is_min(self, width):
        # MAX + 1 == MIN and MIN - 1 == MAX, on the list's own arithmetic:
        # each linking method steps the size itself, and removals use _dec
        lst = new_list(width, SizePolicy.UNCHECKED)
        hi, lo = max_value(width).value, min_value(width).value
        assert (lst.max_size, lst.min_size) == (hi, lo)
        for add in (lst.add, lst.add_first, lambda x: lst.add_at(0, x)):
            lst.size = hi
            add(NULL)
            assert lst.size == lo
        lst.size = -1
        lst.add(NULL)
        assert lst.size == 0
        assert lst._dec(lo) == hi and lst._dec(0) == -1

    @pytest.mark.parametrize("width", (8, 16))
    def test_remove_first_on_the_sign_flip_state_gives_max(self, width):
        lst, _ = prepare_overflow(width, SizePolicy.UNCHECKED, wrap=False)
        assert lst.size == min_value(width).value
        lst.remove_first()
        assert type(lst.size) is int and lst.size == max_value(width).value
        assert int_answer(lst.size_field()) == lst.size

    @pytest.mark.parametrize("width", (8, 16))
    def test_marker_unfindable_on_the_wrap_state(self, width):
        lst, _ = prepare_overflow(width, SizePolicy.UNCHECKED, wrap=True)
        assert lst.size == 0 and len(lst.chain()) == 1 << width
        assert int_answer(lst.index_of(MARKER)) == -1
        assert lst.get_last() == MARKER

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SizePolicy), SIZE_SCRIPTS)
    def test_size_stays_a_wrapped_int(self, policy, script):
        lst = new_list(8, policy)
        for op, index in script:
            args = {"add": (B,), "add_first": (B,), "add_at": (index, A), "remove_at": (index,)}
            try:
                getattr(lst, op)(*args.get(op, ()))
            except ListError:
                pass
            assert type(lst.size) is int
            assert int_answer(lst.size_field()) == lst.size
            if policy is SizePolicy.UNCHECKED:
                assert lst.size == wrap(len(lst.chain()), 8)


class TestOverflowedStates:
    def test_negative_size_state(self):
        lst = fill_nulls(128)
        assert lst.size == -128
        with pytest.raises(IndexOutOfBoundsError):
            lst.get(0)
        with pytest.raises(NegativeArraySizeError):
            lst.to_array()
        assert int_answer(lst.index_of(NULL)) == 0  # found before any size use
        assert int_answer(lst.last_index_of(NULL)) == 127  # wrapped start index

    def test_zero_size_state_hides_marker(self):
        lst = fill_nulls(255)
        lst.add(MARKER)
        assert lst.size == 0
        assert int_answer(lst.index_of(MARKER)) == -1
        assert lst.contains(MARKER) is False
        assert int_answer(lst.last_index_of(NULL)) == -2  # start index wrapped past 0
        assert lst.get_last() == MARKER  # the chain still has it

    def test_deque_ops_still_work_when_overflowed(self):
        lst = fill_nulls(129)
        lst.add_last(MARKER)
        assert lst.get_last() == MARKER
        assert lst.poll_last() == MARKER
        lst.add_first(MARKER)
        assert lst.remove_first() == MARKER
        assert lst.peek_first() == NULL
        assert len(lst.chain()) == 129


class TestFailFastGuard:
    def test_refuses_add_at_capacity(self):
        lst = fill_nulls(127, SizePolicy.FAIL_FAST)
        assert lst.is_max_size() is True
        for call in (lambda: lst.add(A), lambda: lst.add_first(A),
                     lambda: lst.add_last(A), lambda: lst.add_at(0, A)):
            with pytest.raises(IllegalStateError):
                call()
        assert lst.size == 127
        assert len(lst.chain()) == 127

    @pytest.mark.parametrize("width", [8, 16])
    def test_every_refusal_names_the_size_and_the_width(self, width):
        lst = fill_nulls(max_value(width).value, SizePolicy.FAIL_FAST, width)
        text = f"size {lst.max_size} is at the {width}-bit maximum"
        for call in (lambda: lst.add(A), lambda: lst.add_first(A), lambda: lst.add_at(0, A),
                     lst.check_size, lambda: lst.add(B)):
            with pytest.raises(IllegalStateError) as info:
                call()
            assert str(info.value) == text

    def test_check_size_below_capacity(self):
        lst = fill_nulls(10, SizePolicy.FAIL_FAST)
        lst.check_size()  # no exception
        assert lst.is_max_size() is False

    def test_remove_then_add_allowed_again(self):
        lst = fill_nulls(127, SizePolicy.FAIL_FAST)
        lst.remove_first()
        lst.add(A)
        assert lst.size == 127
        with pytest.raises(IllegalStateError):
            lst.add(B)

    def test_unchecked_never_raises_illegal_state(self):
        lst = fill_nulls(127)
        lst.add(A)
        assert lst.size == -128


class TestEnumArguments:
    """A policy or check mode given as its string value is refused, not
    read as some other member: "failfast" used to build a list that
    guards nothing, whose size wraps after 127 adds."""

    @pytest.mark.parametrize("policy", [p.value for p in SizePolicy] + [None])
    def test_policy_must_be_a_member(self, policy):
        with pytest.raises(UsageError, match="policy must be a SizePolicy"):
            new_list(8, policy)

    @pytest.mark.parametrize("mode", [m.value for m in CheckMode] + [None])
    def test_check_mode_must_be_a_member(self, mode):
        with pytest.raises(UsageError, match="check_mode must be a CheckMode"):
            new_list(8, SizePolicy.FAIL_FAST, mode)


class TestNodeWalk:
    def test_bidirectional_walk_agrees(self):
        # node_at may start from either end; both directions must meet
        lst = build_list([A, B, C, NULL, A, B, C])
        for i, expect in enumerate(lst.items()):
            assert lst.store.record(lst.node_at(i)).item == expect

    def test_wrapped_positive_size_misdirects_backward_walk(self):
        # 129 nodes, cached size -127: index checks reject everything,
        # but node_at itself (called with checks bypassed) walks relative
        # to the bogus size. This mirrors the upstream arithmetic.
        lst = fill_nulls(129)
        assert lst.size == -127
        with pytest.raises(IndexOutOfBoundsError):
            lst.get(5)

    def test_walk_direction_uses_floor_shift(self):
        # with a cached size of 5 on a 7-node chain the two directions
        # reach different nodes: indices below 5 >> 1 == 2 walk forward
        # from first, the rest walk backward from last
        items = [Atom(str(k)) for k in range(7)]
        lst = build_list(items)
        lst.size = 5
        got = [lst.store.record(lst.node_at(i)).item for i in range(5)]
        assert got == items[:2] + items[4:]
