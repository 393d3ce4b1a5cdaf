"""Every per-loop figure of the catalog run, frozen in loopbench/golden.json.

The benchmark checks the same file; this runs `checktheorem --json KEY`
in process for each catalog key and only reads the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from loopsmith import catalog
from loopsmith.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "loopbench" / "golden.json")
                    .read_text(encoding="utf-8"))["catalog-theorem"]["loops"]


def test_golden_rows_cover_the_catalog():
    assert [row["name"] for row in GOLDEN] == list(catalog.catalog_keys())


@pytest.mark.parametrize("want", GOLDEN, ids=[row["name"] for row in GOLDEN])
def test_checktheorem_matches_the_golden_row(want, capsys):
    assert main(["checktheorem", "--json", want["name"]]) == 0
    got = json.loads(capsys.readouterr().out)
    (loop,) = got["loops"]
    assert {key: loop.get(key) for key in want if key != "suites"} == {
        key: value for key, value in want.items() if key != "suites"}
    assert {s["name"]: [s["hypotheses"], s["checks"]] for s in got["suites"]} == want["suites"]
    assert not any(s["violations"] for s in got["suites"])
