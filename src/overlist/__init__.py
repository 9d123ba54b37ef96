"""Desk-scale doubly linked list with Java int semantics, a runtime
checkable specification layer, and a differential testing harness."""

from .errors import (
    ContractViolation,
    CycleDetected,
    IllegalStateError,
    IndexOutOfBoundsError,
    ListError,
    NegativeArraySizeError,
    NoSuchElementError,
    UsageError,
)
from .jint import WIDTHS, JInt, max_value, min_value, wrap
from .heapmodel import NULL, Atom, Item, NodeRecord, NodeStore, walk_chain
from .listcore import CheckMode, FAULTS, JavaLinkedList, SizePolicy, new_list
from .ghostspec import (
    check_acyclic,
    check_invariant,
    check_unique_endpoints,
    cycle_propagation_witness,
    frame_check,
    run_checked,
)
from .oracle import AbstractList, Verdict, observe_equal, oracle_apply
from .difftest import (
    Divergence,
    OpScript,
    census,
    dump_script,
    gen_script,
    load_script,
    run_script,
    shrink,
)

__all__ = [
    "ContractViolation",
    "CycleDetected",
    "IllegalStateError",
    "IndexOutOfBoundsError",
    "ListError",
    "NegativeArraySizeError",
    "NoSuchElementError",
    "UsageError",
    "WIDTHS",
    "JInt",
    "max_value",
    "min_value",
    "wrap",
    "NULL",
    "Atom",
    "Item",
    "NodeRecord",
    "NodeStore",
    "walk_chain",
    "CheckMode",
    "FAULTS",
    "JavaLinkedList",
    "SizePolicy",
    "new_list",
    "check_acyclic",
    "check_invariant",
    "check_unique_endpoints",
    "cycle_propagation_witness",
    "frame_check",
    "run_checked",
    "AbstractList",
    "Verdict",
    "observe_equal",
    "oracle_apply",
    "Divergence",
    "OpScript",
    "census",
    "dump_script",
    "gen_script",
    "load_script",
    "run_script",
    "shrink",
]
