"""``checked_step``'s model for a call, as ``run_script`` builds it under
``full``: the oracle steps first, in a savepoint of its state."""

from overlist.oracle import ModelList, oracle_apply


def model_for(items, width, op, args):
    """``(verdict, a, edits)`` for ``op`` on a chain holding ``items``:
    the oracle's verdict, its state ``a`` after the call, and the edit its
    rule logged."""
    a = ModelList(items, width)
    a.open_savepoint()
    verdict, _ = oracle_apply(a, op, args)
    return verdict, a, a.close_savepoint()
