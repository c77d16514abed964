"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

`Tracer.installed()` reads each hook with `vars(owner)[name]`, so a hook
that is only reachable through an import chain, or gone, crashes a traced
run.  This checks every hook against the package as it is.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_hook_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "measure"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spans = importlib.import_module("spans")
    assert spans.TRACED
    for module_name, attr, span in spans.TRACED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"{module_name}.{attr} (span {span})"
        assert callable(vars(owner)[leaf]), f"{module_name}.{attr}"
