"""The package's shape: its modules import each other without a cycle,
its public API is pinned, and the public names survive moves between
modules."""

import ast
import importlib
import types
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import overlist
from overlist import ghostspec, listcore, oracle

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "overlist"


class _ModuleLevel(ast.NodeVisitor):
    """Collects the package modules a module imports at import time:
    relative imports anywhere outside function bodies."""

    def __init__(self):
        self.found = set()

    def visit_ImportFrom(self, node):
        if node.level == 1:
            if node.module:
                self.found.add(node.module.split(".")[0])
            else:
                self.found.update(alias.name for alias in node.names)

    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_FunctionDef


def relative_imports(source: str) -> set[str]:
    visitor = _ModuleLevel()
    visitor.visit(ast.parse(source))
    return visitor.found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: relative_imports(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_relative_imports_reads_module_level_imports_only():
    source = (
        "from . import heapmodel\n"
        "from .ops import OP_SPECS\n"
        "def f():\n"
        "    from . import cli\n"
        "from . import listcore, oracle  # noqa: E402\n"
    )
    assert relative_imports(source) == {"heapmodel", "ops", "listcore", "oracle"}


def test_package_imports_form_no_cycle():
    graph = import_graph()
    modules = set(graph)
    for name, deps in graph.items():
        assert deps <= modules, f"{name} imports unknown modules {deps - modules}"
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")
    # the layering the cycle used to break
    assert graph["oracle"] == {"errors", "heapmodel"}
    assert {"listcore", "oracle"} <= graph["ghostspec"]
    assert "oracle" in graph["listcore"] and "ghostspec" not in graph["listcore"]


def test_every_public_name_resolves():
    for name in overlist.__all__:
        assert hasattr(overlist, name), name
    # the ghost is a plain list; its wrapper and the report class are gone
    for gone in ("GhostState", "InvariantReport"):
        assert not hasattr(overlist, gone), gone
    assert type(listcore.JavaLinkedList().ghost) is list


#: the public API: what the README and ``scripts/`` name. A change to it
#: is deliberate, and CHANGES.md records it.
PUBLIC_API = {
    "ContractViolation", "CycleDetected", "IllegalStateError", "IndexOutOfBoundsError",
    "ListError", "NegativeArraySizeError", "NoSuchElementError", "UsageError",
    "WIDTHS", "NULL", "Atom", "Item", "MARKER",
    "JavaLinkedList", "new_list", "SizePolicy", "CheckMode",
    "run_checked", "check_invariant", "check_acyclic", "check_unique_endpoints",
    "run_script", "census", "gen_script", "shrink", "dump_script", "load_script",
    "OpScript", "Divergence", "ADD_HEAVY_WEIGHTS", "BALANCED_WEIGHTS",
}

#: names the package no longer exports, by the module they import from
INTERNAL = {
    "jint": ("JInt", "max_value", "min_value", "wrap"),
    "heapmodel": ("NodeStore", "NodeRecord", "walk_chain"),
    "listcore": ("FAULTS",),
    "ghostspec": ("frame_check",),
    "oracle": ("AbstractList", "ModelList", "Verdict", "observe_equal", "oracle_apply"),
}


def test_the_public_api_is_pinned():
    assert len(overlist.__all__) == len(PUBLIC_API) == 31
    assert set(overlist.__all__) == PUBLIC_API
    # the package imports its API and its modules, nothing else
    exported = {name for name, value in vars(overlist).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_API
    for module, names in INTERNAL.items():
        for name in names:
            assert hasattr(importlib.import_module(f"overlist.{module}"), name), (module, name)
            assert name not in exported, name


SCRIPTS = PACKAGE.parents[1] / "scripts"


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name imported from the package or one of
    its modules, and of every package module imported by path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "overlist":
                found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.startswith("overlist."))
    return sorted(found)


def test_package_imports_finds_every_form():
    source = (
        "import os, overlist\n"
        "from overlist import census, new_list\n"
        "from overlist.heapmodel import walk_chain\n"
        "import overlist.difftest as d\n"
        "from overlistx import y\n"
        "def f():\n"
        "    from overlist.jint import JInt\n"
    )
    assert package_imports(source) == [
        (2, "census"), (2, "new_list"), (3, "walk_chain"), (4, "overlist.difftest"), (7, "JInt"),
    ]


def test_scripts_use_only_the_public_api():
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths
    for path in paths:
        names = package_imports(path.read_text())
        assert names, path.name
        internal = [(line, name) for line, name in names if name not in overlist.__all__]
        assert internal == [], (path.name, internal)


def test_moved_names_still_import_from_ghostspec():
    from overlist.ghostspec import EMPTY_FOOTPRINT, Footprint

    assert Footprint is oracle.Footprint and EMPTY_FOOTPRINT is oracle.EMPTY_FOOTPRINT
    assert EMPTY_FOOTPRINT == Footprint()
    assert ghostspec.listcore is listcore and ghostspec.oracle is oracle


#: the operation mixes: weights keyed by name, not a second table of facts
WEIGHT_TABLES = {"ADD_HEAVY_WEIGHTS", "BALANCED_WEIGHTS"}


def name_keyed_tables(source: str) -> list[int]:
    """Lines of the dict and set displays with three or more string
    keys that all name operations, outside the weight tables."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in WEIGHT_TABLES for t in targets):
                exempt.add(id(node.value))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Set):
            keys = node.elts
        else:
            continue
        names = [k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)]
        if len(names) >= 3 and set(names) <= oracle.OP_SPECS.keys():
            found.append(node.lineno)
    return found


def test_name_keyed_tables_finds_dicts_and_sets():
    source = (
        "RULES = {'add': f, 'get': g, 'size': h}\n"
        "HEAD = {'first', 'last', 'size'}\n"
        "BIG = {'add', 'get', 'clear'}\n"
        "TWO = {'add': 1, 'get': 2}\n"
        "BALANCED_WEIGHTS = {'add': 1, 'get': 2, 'size': 3}\n"
    )
    assert name_keyed_tables(source) == [1, 3]


def test_operations_are_keyed_by_name_in_one_table():
    """An operation's facts sit on its ``OpSpec`` row; a second
    hand-written table keyed by operation name would have to be kept in
    step with ``OP_SPECS`` by hand."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert name_keyed_tables(path.read_text()) == [], path.name


NODE_FIELDS = {"prev", "item", "next"}


def node_field_writes(source: str) -> list[tuple[int, str]]:
    """(line, field) of every assignment to or deletion of a ``.prev``,
    ``.item`` or ``.next`` attribute, of every ``setattr`` that names one
    of them or computes the name, and of every ``raw_write`` call (the
    store's unjournaled write), with the field it names."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NODE_FIELDS:
            if not isinstance(node.ctx, ast.Load):
                writes.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1):
            name = node.args[1]
            if not isinstance(name, ast.Constant) or name.value in NODE_FIELDS:
                writes.append((node.lineno, ast.unparse(name)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "raw_write"):
            name = node.args[1] if len(node.args) > 1 else None
            writes.append((node.lineno, "?" if name is None else ast.unparse(name)))
    return sorted(writes)


def test_node_field_writes_finds_every_form():
    source = (
        "rec.prev = 1\n"
        "a.item, b = x\n"
        "store.record(n).next += 1\n"
        "del rec.item\n"
        "setattr(rec, 'next', None)\n"
        "setattr(rec, name, old)\n"
        "self.first = rec.next\n"
        "setattr(lst, 'size', 3)\n"
        "for r.prev in xs: pass\n"
        "store.raw_write(n, 'next', 99)\n"
        "store.raw_write(n, field, None)\n"
    )
    assert node_field_writes(source) == [
        (1, "prev"), (2, "item"), (3, "next"), (4, "item"), (5, "'next'"), (6, "name"), (9, "prev"),
        (10, "'next'"), (11, "field"),
    ]


@pytest.mark.parametrize("module", ["listcore", "ghostspec"])
def test_node_fields_change_only_through_the_store(module):
    """The derived post-state items, the scoped exit check and the frame
    check all read a call's node writes from the store's journal, so the
    list and the checks write node fields only through ``NodeStore``'s
    journaled setters, ``link``, ``alloc``, ``clear_node`` and ``clear_chain``.
    ``statespace`` is exempt: it corrupts states on purpose, outside
    checked calls, with ``raw_write``."""
    assert node_field_writes((PACKAGE / f"{module}.py").read_text()) == []
    assert node_field_writes((PACKAGE / "statespace.py").read_text())


#: the store's field lists, indexed by node id
STORE_FIELDS = {"_prev", "_item", "_next"}


def store_field_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every attribute access, read or write, to one of
    the store's field lists."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in STORE_FIELDS)


def test_store_field_uses_finds_reads_and_writes():
    source = (
        "x = store._prev[n]\n"
        "store._next[n] = None\n"
        "del s._item[3:]\n"
        "store.prev(n)\n"
        "self._previous = 1\n"
    )
    assert store_field_uses(source) == [(1, "_prev"), (2, "_next"), (3, "_item")]


def test_only_heapmodel_touches_the_store_fields():
    """``NodeStore`` keeps each field in a list indexed by node id, where a
    negative id would read from the end; only ``heapmodel`` indexes those
    lists, behind reads that check the id."""
    for path in sorted(PACKAGE.glob("*.py")):
        uses = store_field_uses(path.read_text())
        assert bool(uses) == (path.stem == "heapmodel"), (path.name, uses)


#: the list methods that write the ghost, each logging its edit (``rollback``
#: undoes logged edits; ``replace_ghost`` is the door for everything else)
GHOST_WRITERS = {
    f"JavaLinkedList.{name}" for name in (
        "__init__", "link_last", "link_first", "link_before", "unlink", "clear",
        "fast_forward", "rollback", "replace_ghost",
    )
}

#: the list methods that change a list in place
LIST_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse",
    "__setitem__", "__delitem__", "__iadd__", "__imul__",
}


#: the oracle state's methods that write its items, each logging its edit
#: (``undo`` reverts logged edits)
ITEM_WRITERS = {
    f"ModelList.{name}" for name in (
        "__init__", "insert", "remove", "replace", "add_all", "clear", "undo",
    )
}


class _Writes(ast.NodeVisitor):
    """Collects (line, enclosing function) of every write to an ``attr``
    attribute (``ghost``, say) or to a local name bound to one
    (``nl = self.ghost``)."""

    def __init__(self, attr: str):
        self.attr = attr
        self.found = []
        self.scope = []
        self.aliases = set()

    def _function(self, node):
        outer = self.aliases
        self.scope.append(node.name)
        self.aliases = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    pairs = ([(target, sub.value)] if not isinstance(target, ast.Tuple)
                             else zip(target.elts, sub.value.elts)
                             if isinstance(sub.value, ast.Tuple) else [])
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and self._is_ghost(value):
                            self.aliases.add(name.id)
        self.generic_visit(node)
        self.scope.pop()
        self.aliases = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _is_ghost(self, node) -> bool:
        return ((isinstance(node, ast.Attribute) and node.attr == self.attr)
                or (isinstance(node, ast.Name) and node.id in self.aliases))

    def _write(self, node):
        self.found.append((node.lineno, ".".join(self.scope) or "<module>"))

    def visit_Attribute(self, node):
        # ``x.ghost = ...``, ``del x.ghost``, ``x.ghost += ...``
        if node.attr == self.attr and not isinstance(node.ctx, ast.Load):
            self._write(node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        # item or slice assignment and deletion, ``+=`` on an entry
        if not isinstance(node.ctx, ast.Load) and self._is_ghost(node.value):
            self._write(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        # ``nl += ids`` through an alias; an attribute target is visited
        if isinstance(node.target, ast.Name) and node.target.id in self.aliases:
            self._write(node)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in LIST_MUTATORS
                and self._is_ghost(func.value)):
            self._write(node)
        elif (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
              and len(node.args) > 1
              and (not isinstance(node.args[1], ast.Constant) or node.args[1].value == self.attr)):
            self._write(node)
        self.generic_visit(node)


def ghost_writes(source: str, attr: str = "ghost") -> list[tuple[int, str]]:
    """(line, enclosing function) of every write to a ghost (or to what
    another ``attr`` names): assignment or deletion of a ``.ghost``
    attribute (``+=`` included), item or slice assignment or deletion on
    one, an in-place list method called on one, and each of these through
    a local name bound to one; also every ``setattr`` or ``delattr`` that
    names ``ghost`` or computes the name."""
    visitor = _Writes(attr)
    visitor.visit(ast.parse(source))
    return sorted(visitor.found)


def test_ghost_writes_finds_every_form():
    source = (
        "class L:\n"
        "    def f(self, ids):\n"
        "        self.ghost = []\n"
        "        self.ghost.append(1)\n"
        "        self.ghost[0] = 2\n"
        "        self.ghost[1:3] = []\n"
        "        del self.ghost[0]\n"
        "        self.ghost += ids\n"
        "        x = self.ghost[0] + len(self.ghost) + self.ghost.index(3)\n"
        "def g(lst, ids):\n"
        "    nl = lst.ghost\n"
        "    nl.insert(0, 4)\n"
        "    nl[2] = 5\n"
        "    del nl[1:]\n"
        "    nl += ids\n"
        "    nl[0] += 1\n"
        "    first, other = nl[0], list(nl)\n"
        "    other.append(1)\n"
        "    setattr(lst, 'ghost', [])\n"
        "    setattr(lst, name, [])\n"
        "    setattr(lst, 'size', 3)\n"
        "    del lst.ghost\n"
        "    a, g = 1, lst.ghost\n"
        "    g.sort()\n"
        "lst.ghost.clear()\n"
    )
    assert ghost_writes(source) == [
        (3, "L.f"), (4, "L.f"), (5, "L.f"), (6, "L.f"), (7, "L.f"), (8, "L.f"),
        (12, "g"), (13, "g"), (14, "g"), (15, "g"), (16, "g"), (19, "g"), (20, "g"),
        (22, "g"), (24, "g"), (25, "<module>"),
    ]


def test_the_ghost_changes_only_through_logged_methods():
    """The trial's undo and the scoped exit check read the ghost's edits
    from the list's ghost log, so only the list's logged methods write
    the ghost; ``statespace`` and every other module go through the door,
    ``replace_ghost``, which logs a whole-ghost replace."""
    for path in sorted(PACKAGE.glob("*.py")):
        writes = ghost_writes(path.read_text())
        allowed = GHOST_WRITERS if path.stem == "listcore" else set()
        assert {where for _, where in writes} <= allowed, (path.name, writes)
    # each logged method is still there and still writes
    listcore_writes = {where for _, where in ghost_writes((PACKAGE / "listcore.py").read_text())}
    assert listcore_writes == GHOST_WRITERS


def test_the_oracle_items_change_only_through_logged_methods():
    """A census probe and an aborted ``full`` step undo the oracle's
    edits from its log, and a checked step compares the logged edit, so
    only ``ModelList``'s logging methods write its items; every other
    module, the rules included, goes through them."""
    source = "def f(a, xs):\n    items = a.items\n    items.append(1)\n    a.items[0] = 2\n"
    assert ghost_writes(source, "items") == [(3, "f"), (4, "f")]
    for path in sorted(PACKAGE.glob("*.py")):
        writes = ghost_writes(path.read_text(), "items")
        allowed = ITEM_WRITERS if path.stem == "oracle" else set()
        assert {where for _, where in writes} <= allowed, (path.name, writes)
    oracle_writes = {where for _, where in ghost_writes((PACKAGE / "oracle.py").read_text(), "items")}
    assert oracle_writes == ITEM_WRITERS
