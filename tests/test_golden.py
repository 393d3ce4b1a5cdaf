"""Every per-loop figure of the benchmark, frozen in loopbench/golden.json.

The benchmark checks the same file; this runs `checktheorem --json KEY`
in process for each catalog key, and `analyze --json` on a file of each
base table of the analyze workload, and only reads the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from loopsmith import catalog
from loopsmith.cli import main

FROZEN = json.loads((Path(__file__).resolve().parent.parent / "loopbench" / "golden.json")
                    .read_text(encoding="utf-8"))
GOLDEN = FROZEN["catalog-theorem"]["loops"]


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


@pytest.mark.parametrize("key", sorted(FROZEN["analyze"]))
def test_analyze_matches_the_golden_entry(key, tmp_path, capsys):
    # keys are M(D<m>,2), the Chein loop of the dihedral group of order m
    table = catalog.make_chein(catalog.make_dihedral(int(key[3:-3])))
    path = tmp_path / "input.loop"
    path.write_text(catalog.write_loop_file(table), encoding="utf-8")
    assert main(["analyze", "--json", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)
    want = FROZEN["analyze"][key]
    assert {k: got[k] for k in want} == want
    assert got["half_census_skipped"] is True and got["half_census"] is None
