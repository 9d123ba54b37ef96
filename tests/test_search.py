"""Element searches against one reference built on ``items_equal``.

The list's searches and the oracle's make the null split of Java's
``o == null ? e == null : o.equals(e)`` once per call. Here each of them
must answer what a plain loop calling ``items_equal`` on every element
answers. Lists and targets are drawn as fresh ``NullItem()`` and
``Atom(...)`` instances, so a search that matched by identity instead of
by equality would show. Width-8 lists run past the wrap, where the size
field and the search counters wrap around.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from overlist.errors import IllegalStateError
from overlist.heapmodel import Atom, NullItem, items_equal
from overlist.jint import wrap
from overlist.listcore import SizePolicy, new_list
from overlist.oracle import first_index, last_index

WIDTH = 8
TOKENS = (None, "a", "b")  # None draws a null


def fresh(token):
    return NullItem() if token is None else Atom(token)


def reference_first(items, target):
    for i, it in enumerate(items):
        if items_equal(target, it):
            return i
    return None


def reference_last(items, target):
    for i in range(len(items) - 1, -1, -1):
        if items_equal(target, items[i]):
            return i
    return None


tokens = st.lists(st.sampled_from(TOKENS), max_size=6)


@st.composite
def item_lists(draw):
    """A drawn head, a run of one drawn filler up to past 2^W elements,
    and a drawn tail; every element a fresh instance."""
    head = draw(tokens)
    filler = draw(st.sampled_from(TOKENS + ("f",)))
    gap = draw(st.one_of(st.integers(0, 8), st.integers(120, 300)))
    tail = draw(tokens)
    return [fresh(t) for t in head + [filler] * gap + tail]


def build(policy, items):
    """The list that adding ``items`` in turn leads to; FailFast refuses
    the adds past capacity."""
    lst = new_list(WIDTH, policy)
    for x in items:
        try:
            lst.add(x)
        except IllegalStateError:
            pass
    return lst


def java_index(p):
    """The W-bit search answer for position ``p``: the counters wrap."""
    return -1 if p is None else wrap(p, WIDTH)


@pytest.mark.parametrize("policy", list(SizePolicy))
@pytest.mark.parametrize("target_token", TOKENS + ("f", "c"))
@settings(max_examples=25, deadline=None)
@given(items=item_lists())
# a null at position 255 = 2^8 - 1, where the wrapped counter reads -1
@example(items=[fresh(t) for t in ["f"] * 255 + [None, "a"]])
def test_searches_equal_the_items_equal_reference(policy, target_token, items):
    target = fresh(target_token)
    lst = build(policy, items)
    stored = lst.items()
    ids = lst.chain()
    p, q = reference_first(stored, target), reference_last(stored, target)

    assert first_index(tuple(stored), target) == p
    assert first_index(stored, target) == p
    assert last_index(tuple(stored), target) == q
    assert last_index(stored, target) == q

    found, last = lst.index_of(target), lst.last_index_of(target)
    assert type(found) is int and found == java_index(p)
    assert type(last) is int and last == java_index(q)
    # Java's contains is indexOf(o) != -1, so it reads the wrapped counter too
    assert lst.contains(target) is (java_index(p) != -1)
    for remove, hit in ((lst.remove_first_occurrence, p), (lst.remove_last_occurrence, q)):
        with lst.trial():
            assert remove(target) is (hit is not None)
            assert lst.chain() == (ids if hit is None else ids[:hit] + ids[hit + 1:])


@pytest.mark.parametrize("target_token", [None, "a"])
def test_matches_past_the_wrap(target_token):
    """300 fillers put the one match at position 300 = 2^8 + 44: the
    forward counter wraps to 44, and so does the backward one, which
    starts from the wrapped size field."""
    items = [fresh("f") for _ in range(300)] + [fresh(target_token)]
    lst = build(SizePolicy.UNCHECKED, items)
    assert lst.size == wrap(301, WIDTH) == 45
    target = fresh(target_token)
    found, last = lst.index_of(target), lst.last_index_of(target)
    assert type(found) is type(last) is int and found == last == 44
    assert first_index(tuple(lst.items()), target) == last_index(lst.items(), target) == 300
