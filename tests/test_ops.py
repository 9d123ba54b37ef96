"""The operation table: every layer's view of the operations must agree
with it, and deriving facts from its rows must not change what the
harness generates or checks.
"""

import hashlib
from collections import Counter

import pytest

from overlist import oracle
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS, census, dump_script, gen_script
from overlist.errors import UsageError
from overlist.ghostspec import contract_for
from overlist.heapmodel import NULL, Atom
from overlist.listcore import OPS, JavaLinkedList
from overlist.ops import INDEX, OP_SPECS, spec_of
from overlist.oracle import AbstractList, oracle_apply

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
        # and no rule without a row
        assert oracle._RULES.keys() == OP_SPECS.keys()

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
