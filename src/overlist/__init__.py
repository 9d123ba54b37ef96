"""Desk-scale doubly linked list with Java int semantics, a runtime
checkable specification layer, and a differential testing harness.

The names below are the public API, the one ``tests/test_package.py``
pins. Everything else lives in the modules, which change without notice;
CHANGES.md records each change."""

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
from .jint import WIDTHS
from .heapmodel import NULL, Atom, Item
from .oracle import MARKER
from .listcore import CheckMode, JavaLinkedList, SizePolicy, new_list
from .ghostspec import check_acyclic, check_invariant, check_unique_endpoints, run_checked
from .difftest import (
    ADD_HEAVY_WEIGHTS,
    BALANCED_WEIGHTS,
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
    "NULL",
    "Atom",
    "Item",
    "MARKER",
    "CheckMode",
    "JavaLinkedList",
    "SizePolicy",
    "new_list",
    "check_acyclic",
    "check_invariant",
    "check_unique_endpoints",
    "run_checked",
    "ADD_HEAVY_WEIGHTS",
    "BALANCED_WEIGHTS",
    "Divergence",
    "OpScript",
    "census",
    "dump_script",
    "gen_script",
    "load_script",
    "run_script",
    "shrink",
]
