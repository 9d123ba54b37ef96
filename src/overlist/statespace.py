"""State-space helpers for property checks: exhaustive enumeration of
small well-formed lists and randomized (possibly corrupted) states for
implication testing."""

from __future__ import annotations

import itertools
import random

from .heapmodel import NULL, Atom, Item
from .jint import wrap
from .listcore import JavaLinkedList, SizePolicy, new_list

SMALL_ALPHABET: tuple[Item, ...] = (NULL, Atom("a"), Atom("b"))


def build_list(
    items,
    width: int = 8,
    policy: SizePolicy = SizePolicy.FAIL_FAST,
    probes: bool = False,
) -> JavaLinkedList:
    lst = new_list(width, policy, probes)
    for item in items:
        lst.add(item)
    return lst


def enumerate_lists(max_len: int = 6, width: int = 8, probes: bool = False):
    """All well-formed FailFast lists up to ``max_len`` over
    ``SMALL_ALPHABET``."""
    for n in range(max_len + 1):
        for combo in itertools.product(SMALL_ALPHABET, repeat=n):
            yield build_list(combo, width, probes=probes)


def random_state(rng: random.Random, width: int = 8, max_nodes: int = 8) -> JavaLinkedList:
    """A random state that may or may not satisfy the class invariant.

    Mix of three regimes: well-formed lists, well-formed lists with one
    corruption (a wrong header, link or ghost entry, or one naming an
    unallocated node), and fully random header/store/ghost combinations.
    The mix keeps the invariant-implies-derived-properties check
    non-vacuous while still exploring garbage. The ghost is written
    through the list's door, ``replace_ghost``."""
    regime = rng.random()
    n = rng.randint(0, max_nodes)
    if regime < 0.4:
        return build_list((rng.choice(SMALL_ALPHABET) for _ in range(n)), width)
    if regime < 0.8:
        lst = build_list((rng.choice(SMALL_ALPHABET) for _ in range(n)), width)
        _corrupt_one(rng, lst)
        return lst
    return _scramble(rng, width, n)


def _corrupt_one(rng: random.Random, lst: JavaLinkedList) -> None:
    nl = lst.ghost
    choice = rng.randint(0, 8)
    some_id = rng.choice(nl) if nl else None
    unallocated = len(lst.store)  # a built list holds ids 0..n-1
    if choice == 0:
        lst.size = wrap(lst.size + rng.choice((-2, -1, 1, 2)), lst.width)
    elif choice == 1:
        lst.first = some_id if rng.random() < 0.7 else None
    elif choice == 2:
        lst.last = some_id if rng.random() < 0.7 else None
    elif choice == 3 and nl:
        lst.store.set_next(some_id, rng.choice(nl + [None]))
    elif choice == 4 and nl:
        lst.store.set_prev(some_id, rng.choice(nl + [None]))
    elif choice == 5 and nl:
        ghost = list(nl)
        i, j = rng.randrange(len(ghost)), rng.randrange(len(ghost))
        ghost[i], ghost[j] = ghost[j], ghost[i]
        if rng.random() < 0.5 and ghost:
            ghost[rng.randrange(len(ghost))] = rng.choice(ghost)
        lst.replace_ghost(ghost)
    elif choice == 6 and nl:
        # a dangling link: the setters refuse one
        lst.store.raw_write(some_id, "next", unallocated)
    elif choice == 7:
        lst.first = unallocated
    elif choice == 8 and nl:
        ghost = list(nl)
        for _ in range(rng.randint(1, 2)):
            ghost[rng.randrange(len(ghost))] = unallocated
        lst.replace_ghost(ghost)


def _scramble(rng: random.Random, width: int, n: int) -> JavaLinkedList:
    lst = new_list(width, SizePolicy.FAIL_FAST)
    ids = []
    for _ in range(n):
        ids.append(lst.store.alloc(None, rng.choice(SMALL_ALPHABET), None))
    pool = ids + [None]
    for nid in ids:
        lst.store.set_prev(nid, rng.choice(pool))
        lst.store.set_next(nid, rng.choice(pool))
    lst.first = rng.choice(pool)
    lst.last = rng.choice(pool)
    lst.size = wrap(rng.randint(-2, n + 2), width)
    ghost_len = rng.randint(0, n + 1)
    lst.replace_ghost([rng.choice(ids) for _ in range(ghost_len)] if ids else [])
    return lst
