"""The benchmark's tracer wraps functions by name; a name that no longer
resolves is skipped silently and its per-layer metric reads zero.  Guard
every traced name here, so a refactor that moves or renames one fails a
test instead."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from loopsmith.catalog import make_chein, make_dihedral, write_loop_file
from loopsmith.table import LoopTable

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "loopbench" / "spans.py"


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


def test_analyze_of_a_file_records_spans_under_the_traced_names(tmp_path):
    """A function moved to another module must stay bound where TRACED
    names it and be called through a binding that the tracer wraps, or its
    per-layer metric reads zero.  The tracer rewrites the bindings of the
    whole interpreter, so it runs in a fresh one."""
    path = tmp_path / "m16.loop"
    path.write_text(write_loop_file(make_chein(make_dihedral(16))), encoding="utf-8")
    script = (
        "import contextlib, importlib.util, io, json\n"
        "spec = importlib.util.spec_from_file_location('loopbench_spans', %r)\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "recorder = spans.Recorder()\n"
        "spans.install(recorder)\n"
        "from loopsmith import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', '--json', %r]) == 0\n"
        "print(json.dumps(sorted({recorder.names[span[0]] for span in recorder.spans})))\n"
        % (str(SPANS), str(path)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    recorded = set(json.loads(out.splitlines()[-1]))
    assert {"catalog.parse_loop_file", "table.validate", "subloops.nucleus",
            "subloops.commutative_nilpotency_class", "cli.analyze_table"} <= recorded
