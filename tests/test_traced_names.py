"""The benchmark's tracer wraps functions by name; a name that no longer
resolves is skipped silently and its per-layer metric reads zero.  Guard
every traced name here, so a refactor that moves or renames one fails a
test instead."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from loopsmith.table import LoopTable

SPANS = Path(__file__).resolve().parent.parent / "loopbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("loopbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    spans = _spans()
    missing = [
        "%s.%s" % (module, name)
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module("loopsmith." + module), name, None))
    ]
    missing += ["LoopTable.%s" % name for name in spans.FLAG_METHODS if not hasattr(LoopTable, name)]
    assert missing == []
