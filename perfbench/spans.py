"""Runtime span tracing of the overlist layers, installed from outside.

``Tracer.installed()`` replaces the public functions and methods listed
in ``TARGETS`` with wrappers, everywhere a module of the package binds
them: the defining module or class, every ``from x import f`` copy in a
sibling module, and module-level tables such as ``listcore.OPS``. The
source is not edited, and leaving the ``with`` block puts every
original back.

A wrapper either records a span (name, start, end, parent) or, for the
hottest leaves, only bumps a counter. Spans live in flat arrays in
memory; ``summary()`` derives each layer's self time (duration minus the
time covered by its child spans) and ``write()`` dumps the raw spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

WRAPPED = "_perfbench_original"


def _on_oracle_apply(tracer, args, result):
    state = args[0]
    verdict, new = result
    c = tracer.counts
    c["oracle.oracle_apply.calls"] += 1
    if new is not state:
        c["oracle.oracle_apply.items_copied"] += len(new.items)
    if verdict.kind == "unspecified":
        c["oracle.unspecified"] += 1
    if tracer.parent_name() == "difftest.run_script":
        # the unbounded oracle carries the true length; one call per step
        if not state.bounded and len(state.items) >= state.max_size:
            c["difftest.steps_at_capacity"] += 1
        if len(new.items) > c["difftest.max_true_length"]:
            c["difftest.max_true_length"] = len(new.items)


def _on_run_script(tracer, args, result):
    c = tracer.counts
    c["difftest.run_script.calls"] += 1
    c["difftest.unchecked_divergences"] += len(result.divergences.get("unchecked", ()))
    c["difftest.failfast_divergences"] += len(result.divergences.get("failfast", ()))


def _count(key, size=None):
    def hook(tracer, args, result):
        tracer.counts[key] += 1 if size is None else size(args, result)

    return hook


#: (module, qualified name, kind, hook). A "span" wrapper records a span;
#: a "count" wrapper only runs its hook, so its time stays in the caller's
#: self time; "refusals" counts IllegalState errors raised.
TARGETS = (
    ("overlist.jint", "JInt.__post_init__", "count", _count("jint.JInt.constructed")),
    ("overlist.heapmodel", "NodeStore.alloc", "count", _count("heapmodel.NodeStore.alloc.calls")),
    ("overlist.heapmodel", "NodeStore.copy", "span",
     _count("heapmodel.NodeStore.copy.records", lambda a, r: len(a[0]))),
    ("overlist.heapmodel", "snapshot", "span",
     _count("heapmodel.snapshot.records", lambda a, r: len(a[0]))),
    ("overlist.heapmodel", "diff", "span", None),
    ("overlist.heapmodel", "walk_chain", "span",
     _count("heapmodel.walk_chain.nodes", lambda a, r: len(r))),
    ("overlist.listcore", "apply_op", "span", _count("listcore.apply_op.calls")),
    ("overlist.listcore", "JavaLinkedList.add", "span", None),
    ("overlist.listcore", "JavaLinkedList.check_size", "refusals", None),
    ("overlist.ghostspec", "check_invariant", "span", _count("ghostspec.check_invariant.calls")),
    ("overlist.ghostspec", "run_checked", "span", None),
    ("overlist.ghostspec", "observe", "span", None),
    ("overlist.ghostspec", "frame_check", "span", None),
    ("overlist.oracle", "oracle_apply", "span", _on_oracle_apply),
    ("overlist.difftest", "build_overflow_states", "span", None),
    ("overlist.difftest", "census", "span", None),
    ("overlist.difftest", "run_script", "span", _on_run_script),
    ("overlist.difftest", "gen_script", "span", None),
    ("overlist.difftest", "shrink", "span", None),
    ("overlist.cli", "main", "span", None),
)

#: every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "jint.JInt.constructed": "count",
    "heapmodel.NodeStore.alloc.calls": "count",
    "heapmodel.NodeStore.copy.self_s": "s",
    "heapmodel.NodeStore.copy.records": "count",
    "heapmodel.snapshot.self_s": "s",
    "heapmodel.snapshot.records": "count",
    "heapmodel.diff.self_s": "s",
    "heapmodel.walk_chain.self_s": "s",
    "heapmodel.walk_chain.nodes": "count",
    "listcore.apply_op.calls": "count",
    "listcore.apply_op.self_s": "s",
    "listcore.JavaLinkedList.add.self_s": "s",
    "listcore.refusals": "count",
    "ghostspec.check_invariant.calls": "count",
    "ghostspec.check_invariant.self_s": "s",
    "ghostspec.run_checked.self_s": "s",
    "ghostspec.observe.self_s": "s",
    "ghostspec.frame_check.self_s": "s",
    "oracle.oracle_apply.calls": "count",
    "oracle.oracle_apply.self_s": "s",
    "oracle.oracle_apply.items_copied": "count",
    "oracle.unspecified": "count",
    "difftest.build_overflow_states.self_s": "s",
    "difftest.census.self_s": "s",
    "difftest.run_script.calls": "count",
    "difftest.run_script.self_s": "s",
    "difftest.gen_script.self_s": "s",
    "difftest.shrink.predicate_calls": "count",
    "difftest.shrink.accept_ratio": "ratio",
    "difftest.shrink.self_s": "s",
    "cli.main.self_s": "s",
    "difftest.steps_at_capacity": "count",
    "difftest.max_true_length": "count",
    "difftest.unchecked_divergences": "count",
    "difftest.failfast_divergences": "count",
    "trace.overhead_ratio": "ratio",
}


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "overlist" or n.startswith("overlist."))]


def _bindings(original):
    """Every (container, key, is_dict) in the package that holds ``original``."""
    found = []
    for mod in _package_modules():
        for key, val in vars(mod).items():
            if val is original:
                found.append((mod, key, False))
            elif isinstance(val, dict):
                found.extend((val, k, True) for k, v in val.items() if v is original)
    return found


def installed_wrappers() -> list[str]:
    """Names bound anywhere in the package to a wrapper; empty when no
    tracer is installed."""
    names = []
    for mod in _package_modules():
        for key, val in vars(mod).items():
            if hasattr(val, WRAPPED):
                names.append(f"{mod.__name__}.{key}")
            elif isinstance(val, type):
                names.extend(f"{mod.__name__}.{key}.{k}" for k, v in vars(val).items()
                             if hasattr(v, WRAPPED))
            elif isinstance(val, dict):
                names.extend(f"{mod.__name__}.{key}[{k!r}]" for k, v in val.items()
                             if hasattr(v, WRAPPED))
    return sorted(set(names))


class Tracer:
    """The spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.shrink_calls = 0

    def calls(self, name: str) -> int:
        """Spans recorded under ``name``."""
        return self.name_of.count(self.names.index(name)) if name in self.names else 0

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_of[top]]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, now = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counter(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return wrapper

    def _refusals(self, fn):
        from overlist.errors import IllegalStateError

        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except IllegalStateError:
                counts["listcore.refusals"] += 1
                raise

        return wrapper

    def _shrink(self, fn):
        """Count predicate calls and accepted removals around ``shrink``."""
        counts = self.counts

        def with_counted_predicate(script, predicate):
            def counted(candidate):
                holds = predicate(candidate)
                counts["difftest.shrink.predicate_calls"] += 1
                counts["shrink.holds"] += bool(holds)
                return holds

            self.shrink_calls += 1
            return fn(script, counted)

        return with_counted_predicate

    def _wrap(self, modname, qualname, kind, hook):
        owner = sys.modules[modname]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        name = f"{modname.removeprefix('overlist.')}.{qualname}"
        if kind == "refusals":
            wrapper = self._refusals(original)
        elif kind == "span":
            inner = self._shrink(original) if qualname == "shrink" else original
            wrapper = self._span(name, inner, hook)
        else:
            wrapper = self._counter(original, hook)
        setattr(wrapper, WRAPPED, original)
        sites = _bindings(original)
        if path:  # a method: the class attribute, plus any table holding it
            sites.append((owner, attr, False))
        return [(site, key, is_dict, original, wrapper) for site, key, is_dict in sites]

    @contextmanager
    def installed(self):
        import overlist.cli  # noqa: F401  (every layer is loaded before patching)

        patched = []
        try:
            for target in TARGETS:
                for site, key, is_dict, original, wrapper in self._wrap(*target):
                    if is_dict:
                        site[key] = wrapper
                    else:
                        setattr(site, key, wrapper)
                    patched.append((site, key, is_dict, original))
            yield self
        finally:
            for site, key, is_dict, original in reversed(patched):
                if is_dict:
                    site[key] = original
                else:
                    setattr(site, key, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        totals: Counter = Counter()
        for i in range(len(start)):
            totals[self.names[self.name_of[i]]] += end[i] - start[i] - covered[i]
        return dict(totals)

    def summary(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_ratio."""
        selfs = self.self_times()
        counts = self.counts
        out = {}
        for metric, unit in PER_LAYER.items():
            if metric.endswith(".self_s"):
                out[metric] = selfs.get(metric.removesuffix(".self_s"), 0.0)
            elif unit == "count":
                out[metric] = counts[metric]
        calls = counts["difftest.shrink.predicate_calls"]
        # the first predicate call of each shrink checks the input, not a removal
        accepted = counts["shrink.holds"] - self.shrink_calls
        out["difftest.shrink.accept_ratio"] = accepted / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Raw spans: a JSON header line, then the four arrays' bytes."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
