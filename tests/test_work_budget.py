"""Work budgets of the overflow reproduction's add path.

The bytecodes an accepted add and a refused add execute are counted as
``scripts/opcount.py`` counts them (``sys.settrace`` opcode events), on
the width-8 preparations: the wrap less the flip, over the 128 adds the
wrap makes beyond the flip, all accepted under Unchecked and all refused
under FailFast. The wrap also chains its two stages of items once, a
few bytecodes that the division spreads over the adds (4/128 at width
8), so a figure's whole part is what one add executes. It may not
rise above its ceiling. Bytecode counts depend on the interpreter, so
the ceilings hold for the one they were calibrated on; a change that
lowers a figure lowers its ceiling.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from overlist import SizePolicy

ROOT = Path(__file__).resolve().parents[1]

#: the interpreter the ceilings were calibrated on, as (implementation, major, minor)
CALIBRATED = ("cpython", 3, 11)
#: bytecodes per accepted add and per refusal
CEILINGS = {"accepted": 119, "refused": 46}


def load_opcount():
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "scripts" / "opcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif((sys.implementation.name, *sys.version_info[:2]) != CALIBRATED,
                    reason="the ceilings count bytecodes of CPython 3.11, and other "
                           "interpreters execute other bytecodes")
@pytest.mark.parametrize("policy, kind", [(SizePolicy.UNCHECKED, "accepted"),
                                          (SizePolicy.FAIL_FAST, "refused")])
def test_add_path_stays_within_its_budget(policy, kind):
    (_, wrap), _ = load_opcount().preparations(8, policy)
    per_add, adds, opcodes = wrap["per_add"]
    assert (per_add, adds) == (kind, 128)
    assert int(opcodes) <= CEILINGS[kind], f"{opcodes} bytecodes per {kind} add"
