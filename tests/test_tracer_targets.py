"""The traced benchmark wraps named functions and methods of the package
(``perfbench/spans.py``, ``TARGETS``). Renaming or deleting one of them
breaks ``perfbench/run.py --trace 1``; this test fails first."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_installs_and_uninstalls():
    spans = load_spans()
    with spans.Tracer().installed():
        installed = spans.installed_wrappers()
        for modname, qualname, _, _ in spans.TARGETS:
            assert f"{modname}.{qualname}" in installed, qualname
    assert spans.installed_wrappers() == []
