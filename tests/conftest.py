import sys

import pytest

from overlist import heapmodel


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion, emitted after the test run."""
    module = next(
        (m for name, m in sys.modules.items()
         if name.rpartition(".")[2] == "test_acceptance" and m is not None),
        None,
    )
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(results):
        status, summary = results[n]
        terminalreporter.write_line(f"criterion {n:2d} {status}  {summary}")


@pytest.fixture
def node_reads(monkeypatch):
    """A list that grows by one entry per node read through the public
    reads of every ``NodeStore``: a per-field read or a ``record`` reads
    one node, a bulk read one per id, ``walk`` one per item it
    yields, ``find`` each node it visits, ``follow`` one per step,
    ``links_agree`` the node at each position it checks, ``clear_node``
    the node it clears and ``clear_chain`` each node it clears or finds
    dangling. Each entry is the reading method's name."""
    reads = []
    store = heapmodel.NodeStore

    def once(name):
        real = getattr(store, name)

        def counted(self, node_id, *args):
            reads.append(name)
            return real(self, node_id, *args)
        return counted

    def per_id(name):
        real = getattr(store, name)

        def counted(self, ids):
            ids = list(ids)
            reads.extend([name] * len(ids))
            return real(self, ids)
        return counted

    walk, find, follow, links_agree = store.walk, store.find, store.follow, store.links_agree
    clear_chain = store.clear_chain

    def counted_walk(self, node):
        for item in walk(self, node):
            reads.append("walk")
            yield item

    def counted_find(self, node, matches, link="next"):
        steps, hit = find(self, node, matches, link)
        reads.extend(["find"] * (steps + (hit is not None)))
        return steps, hit

    def counted_follow(self, node, steps, link="next"):
        reads.extend(["follow"] * steps)
        return follow(self, node, steps, link)

    def counted_clear_chain(self, first, probe=None):
        # counted where the walk calls its probe: once per node, before
        # the node is read
        def counting(node, position):
            reads.append("clear_chain")
            if probe is not None:
                probe(node, position)
        return clear_chain(self, first, counting)

    def counted_links_agree(self, seq, positions):
        # one position at a time, so a check that fails early counts only
        # the nodes it read
        for i in positions:
            reads.append("links_agree")
            if not links_agree(self, seq, [i]):
                return False
        return True

    for name in ("prev", "item", "next", "record", "clear_node"):
        monkeypatch.setattr(store, name, once(name))
    for name in ("prevs", "items", "nexts"):
        monkeypatch.setattr(store, name, per_id(name))
    monkeypatch.setattr(store, "walk", counted_walk)
    monkeypatch.setattr(store, "find", counted_find)
    monkeypatch.setattr(store, "follow", counted_follow)
    monkeypatch.setattr(store, "links_agree", counted_links_agree)
    monkeypatch.setattr(store, "clear_chain", counted_clear_chain)
    return reads
