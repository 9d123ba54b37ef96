"""Exception taxonomy shared by all modules.

Two disjoint families:

* ``ListError`` subclasses model the Java exceptions the list can raise;
  they are part of the behavior under test and are compared against the
  oracle's verdicts.
* ``UsageError`` / ``ContractViolation`` / ``ChainCorruption`` are
  harness errors: caller bugs, broken checks, or corrupted chains. They
  are never expected behavior and never count as a "result". A
  ``ChainCorruption`` (a cycle or a dangling link) says the state itself
  is broken, a ``UsageError`` that the harness was called wrongly.
"""

from __future__ import annotations


class UsageError(Exception):
    """A precondition of the harness itself was violated (caller bug)."""


class ChainCorruption(Exception):
    """Following the links of a node store led somewhere no well-formed
    chain leads."""


class CycleDetected(ChainCorruption):
    """A chain walk revisited a node or exceeded the store size."""

    def __init__(self, node_id: int, steps: int):
        super().__init__(f"cycle detected at node {node_id} after {steps} steps")
        self.node_id = node_id
        self.steps = steps


class DanglingLink(ChainCorruption):
    """A link or a header field names a node the store never allocated,
    or a walk the cached size asked for ran off the end of the chain
    (``node_id`` is then None)."""

    def __init__(self, node_id):
        if node_id is None:
            super().__init__("dangling link: followed a null link into the chain")
        else:
            super().__init__(f"dangling link to unallocated node {node_id}")
        self.node_id = node_id


class ListError(Exception):
    """Base for the Java-exception analogues raised by list operations."""

    kind = "list_error"


class IndexOutOfBoundsError(ListError):
    kind = "index_out_of_bounds"


class NoSuchElementError(ListError):
    kind = "no_such_element"


class IllegalStateError(ListError):
    kind = "illegal_state"


class NegativeArraySizeError(ListError):
    kind = "negative_array_size"


class ContractViolation(Exception):
    """A runtime contract check failed (invariant, postcondition, frame,
    or loop probe). Carries per-clause details for reporting."""

    def __init__(self, operation: str, violations: list[tuple[str, str]]):
        self.operation = operation
        self.violations = violations
        lines = "; ".join(f"[{cat}] {msg}" for cat, msg in violations)
        super().__init__(f"{operation}: {lines}")

    def categories(self) -> set[str]:
        return {cat for cat, _ in self.violations}
