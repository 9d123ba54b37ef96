"""The operation table: every layer's view of the operations must agree
with it, and deriving facts from its rows must not change what the
harness generates or checks.
"""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from overlist.difftest import (
    ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, census, dump_script, gen_script, prepare_overflow,
)
from overlist.errors import ListError, UsageError
from overlist.ghostspec import contract_for, observe
from overlist.heapmodel import NULL, Atom, NullItem
from overlist.listcore import OPS, JavaLinkedList, SizePolicy, apply_op
from overlist.oracle import (
    ALPHABET,
    EMPTY_FOOTPRINT,
    INDEX,
    ITEM,
    OP_SPECS,
    AbstractList,
    Footprint,
    first_index,
    last_index,
    oracle_apply,
    spec_of,
)
from overlist.statespace import enumerate_lists

EQUALITY_BRANCH_OPS = {
    "index_of",
    "last_index_of",
    "contains",
    "remove_item",
    "remove_first_occurrence",
    "remove_last_occurrence",
}


class TestConsistency:
    def test_names_match_the_implementation(self):
        for name, spec in OP_SPECS.items():
            assert name == spec.name
            assert callable(getattr(JavaLinkedList, spec.method or name, None)), name
        assert OPS.keys() == OP_SPECS.keys()

    @pytest.mark.parametrize("bounded", [True, False])
    def test_oracle_has_a_rule_for_every_row(self, bounded):
        empty = AbstractList((), 8, bounded=bounded)
        for name, spec in OP_SPECS.items():
            args = tuple(0 if kind == INDEX else Atom("a") for kind in spec.args)
            try:
                oracle_apply(empty, name, args)
            except UsageError:
                pytest.fail(f"oracle has no rule for {name}")

    def test_census_covers_exactly_the_probed_rows(self):
        probed = sorted(name for name, spec in OP_SPECS.items() if spec.probes)
        assert len(probed) == 24
        assert [r.method for r in census(8)] == probed

    def test_equality_branch_ops(self):
        derived = {name for name, spec in OP_SPECS.items() if spec.equality_branches}
        assert derived == EQUALITY_BRANCH_OPS

    def test_contract_names(self):
        assert contract_for("index_of", (NULL,)) == "index_of[null]"
        assert contract_for("remove_item", (Atom("a"),)) == "remove_item[non-null]"
        assert contract_for("add", (NULL,)) == "add"
        assert contract_for("clear", ()) == "clear"

    def test_interfaces(self):
        counts = Counter(spec.interface for spec in OP_SPECS.values())
        assert counts == {"List": 14, "Deque": 10, None: 2}

    def test_unknown_operation(self):
        with pytest.raises(UsageError):
            spec_of("sort")


#: SHA-256 over the 200 dumped scripts of each mix: saved scripts and
#: seeds must keep replaying the same steps
GOLDEN = [
    (BALANCED_WEIGHTS, "2bac8c02e41b47c1ca3f35a7051bb00eb31483e0319c3e92b0978e1d7815d6a3"),
    (ADD_HEAVY_WEIGHTS, "9df071b17c42ea690383cdca806ea7aee805523ac06e9a0ad58542fe5f214700"),
]


@pytest.mark.parametrize("weights,digest", GOLDEN, ids=["balanced", "add-heavy"])
def test_generated_scripts_unchanged(weights, digest):
    h = hashlib.sha256()
    for seed in range(200):
        h.update(dump_script(gen_script(seed, 8, 400, weights)).encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# The reference for the rows' edits: one hand-written footprint builder
# per shape of edit, and each operation's effect on the list length, as
# the table stated them before the rows named their edit.


def _fp_pure(pre, args) -> Footprint:
    return EMPTY_FOOTPRINT


def _fp_append(pre, args) -> Footprint:
    nodes = {(pre.ghost[-1], "next")} if pre.ghost else set()
    header = {"last", "size"} | ({"first"} if not pre.ghost else set())
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _fp_prepend(pre, args) -> Footprint:
    nodes = {(pre.ghost[0], "prev")} if pre.ghost else set()
    header = {"first", "size"} | ({"last"} if not pre.ghost else set())
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _fp_insert_at(pre, args) -> Footprint:
    i = args[0]
    n = len(pre.ghost)
    if not 0 <= i <= n:
        return EMPTY_FOOTPRINT
    if i == n:
        return _fp_append(pre, args)
    nodes = {(pre.ghost[i], "prev")}
    header = {"size"}
    if i > 0:
        nodes.add((pre.ghost[i - 1], "next"))
    else:
        header.add("first")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True, fresh=True)


def _ref_removal_footprint(pre, p: int) -> Footprint:
    ids = pre.ghost
    n = len(ids)
    x = ids[p]
    nodes = {(x, "prev"), (x, "item"), (x, "next")}
    header = {"size"}
    if p > 0:
        nodes.add((ids[p - 1], "next"))
    else:
        header.add("first")
    if p < n - 1:
        nodes.add((ids[p + 1], "prev"))
    else:
        header.add("last")
    return Footprint(frozenset(nodes), frozenset(header), ghost=True)


def _fp_remove_at(pre, args) -> Footprint:
    i = args[0]
    if not 0 <= i < len(pre.ghost):
        return EMPTY_FOOTPRINT
    return _ref_removal_footprint(pre, i)


def _fp_set_at(pre, args) -> Footprint:
    i = args[0]
    if not 0 <= i < len(pre.ghost):
        return EMPTY_FOOTPRINT
    return Footprint(frozenset({(pre.ghost[i], "item")}))


def _fp_remove_match(last: bool):
    find = last_index if last else first_index

    def fp(pre, args) -> Footprint:
        p = find(pre.items, args[0])
        return EMPTY_FOOTPRINT if p is None else _ref_removal_footprint(pre, p)

    return fp


def _fp_remove_end(p_of_n):
    def fp(pre, args) -> Footprint:
        if not pre.ghost:
            return EMPTY_FOOTPRINT
        return _ref_removal_footprint(pre, p_of_n(len(pre.ghost)))

    return fp


def _fp_clear(pre, args) -> Footprint:
    nodes = {(nid, f) for nid in pre.ghost for f in ("prev", "item", "next")}
    return Footprint(frozenset(nodes), frozenset({"first", "last", "size"}), ghost=True)


GROWS, SHRINKS, NONE, RESET = "grows", "shrinks", "none", "reset"

#: operation -> (size effect, footprint builder)
REFERENCE = {
    "add": (GROWS, _fp_append),
    "add_first": (GROWS, _fp_prepend),
    "add_last": (GROWS, _fp_append),
    "get": (NONE, _fp_pure),
    "set_at": (NONE, _fp_set_at),
    "add_at": (GROWS, _fp_insert_at),
    "remove_at": (SHRINKS, _fp_remove_at),
    "index_of": (NONE, _fp_pure),
    "last_index_of": (NONE, _fp_pure),
    "contains": (NONE, _fp_pure),
    "remove_item": (SHRINKS, _fp_remove_match(last=False)),
    "remove_first_occurrence": (SHRINKS, _fp_remove_match(last=False)),
    "remove_last_occurrence": (SHRINKS, _fp_remove_match(last=True)),
    "clear": (RESET, _fp_clear),
    "to_array": (NONE, _fp_pure),
    "size": (NONE, _fp_pure),
    "is_max_size": (NONE, _fp_pure),
    "check_size": (NONE, _fp_pure),
    "get_first": (NONE, _fp_pure),
    "get_last": (NONE, _fp_pure),
    "peek_first": (NONE, _fp_pure),
    "peek_last": (NONE, _fp_pure),
    "poll_first": (SHRINKS, _fp_remove_end(lambda n: 0)),
    "poll_last": (SHRINKS, _fp_remove_end(lambda n: n - 1)),
    "remove_first": (SHRINKS, _fp_remove_end(lambda n: 0)),
    "remove_last": (SHRINKS, _fp_remove_end(lambda n: n - 1)),
}


def reference_script(seed: int, width: int, length: int, weights: dict) -> tuple:
    """The steps ``gen_script`` drew when its length estimate read the
    reference size effects."""
    rng = random.Random(seed)
    ops = sorted(weights)
    cum = [weights[o] for o in ops]
    est = 0
    steps = []
    for _ in range(length):
        op = rng.choices(ops, weights=cum)[0]
        args: tuple = ()
        for kind in OP_SPECS[op].args:
            args += (rng.randint(-1, est + 1) if kind == INDEX else rng.choice(ALPHABET),)
        steps.append((op, args))
        effect = REFERENCE[op][0]
        if effect == GROWS:
            est += 1
        elif effect == SHRINKS and est > 0:
            est -= 1
        elif effect == RESET:
            est = 0
    return tuple(steps)


def is_plain_answer(r) -> bool:
    """Whether a list's answer is in the oracle's answer domain: an int, a
    bool, None, an item or a tuple of items; never a ``JInt`` or a list."""
    item = (Atom, NullItem)
    if r is None or type(r) in (int, bool) or isinstance(r, item):
        return True
    return type(r) is tuple and all(isinstance(x, item) for x in r)


class TestDerivedEdits:
    """Each row names its edit once; what the harness derives from it
    equals the hand-written reference."""

    def test_reference_covers_every_row(self):
        assert REFERENCE.keys() == OP_SPECS.keys()

    @staticmethod
    def sweep(lst) -> int:
        """Every call on ``lst``: its footprint equals the reference's, and
        the value it answers, run in a trial, is plain. Returns the number
        of calls."""
        calls = 0
        pre = observe(lst)
        n = len(pre.ghost)
        for name, spec in OP_SPECS.items():
            build = REFERENCE[name][1]
            choices = [range(-2, n + 3) if kind == INDEX else ALPHABET for kind in spec.args]
            for args in itertools.product(*choices):
                got, want = spec.footprint(pre, args), build(pre, args)
                assert got.node_fields == want.node_fields, (name, args, pre)
                assert got.header_fields == want.header_fields, (name, args, pre)
                assert got.ghost == want.ghost, (name, args, pre)
                assert got.fresh == want.fresh, (name, args, pre)
                with lst.trial():
                    try:
                        answer = apply_op(lst, name, args)
                    except ListError:
                        answer = None
                assert is_plain_answer(answer), (name, args, answer)
                calls += 1
        return calls

    def test_footprints_equal_the_reference(self):
        """On every small list, and on both width-8 overflow states (the
        sign flip and the wrap), where the size field has wrapped."""
        calls = sum(map(self.sweep, enumerate_lists(max_len=4)))
        assert calls == 16_239
        for wrap in (False, True):
            lst, _ = prepare_overflow(8, SizePolicy.UNCHECKED, wrap=wrap)
            assert self.sweep(lst) > 0

    def test_mutating_and_equality_branches_follow_the_size_effect(self):
        for name, spec in OP_SPECS.items():
            effect, build = REFERENCE[name]
            assert spec.mutating == (build is not _fp_pure), name
            assert spec.equality_branches == (spec.args == (ITEM,) and effect != GROWS), name

    def test_generated_lengths_follow_the_size_effect(self):
        uniform = dict.fromkeys(OP_SPECS, 1)
        for weights in (uniform, BALANCED_WEIGHTS, ADD_HEAVY_WEIGHTS):
            for seed in range(20):
                want = reference_script(seed, 8, 300, weights)
                assert gen_script(seed, 8, 300, weights).steps == want, seed
