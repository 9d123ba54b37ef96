"""The package's shape: its modules import each other without a cycle,
and the public names survive moves between modules."""

import ast
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
    journaled setters, ``link``, ``alloc`` and ``clear_node``.
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
