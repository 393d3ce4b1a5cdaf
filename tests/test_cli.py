"""Command-line behavior: exit codes and output shapes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from loopsmith import analyzecli, cli, halfmorph, suites
from loopsmith.catalog import builtin, write_loop_file
from loopsmith.cli import main
from loopsmith.table import InternalCheckError, LoopTable

Z5_FILE = """name: Z5-file
5
1 2 3 4 5
2 3 4 5 1
3 4 5 1 2
4 5 1 2 3
5 1 2 3 4
"""

BAD_LATIN = "3\n1 2 3\n2 3 1\n3 1 3\n"
TRUNCATED = "4\n1 2 3 4\n2 1 4 3\n"
SHIFTED = "3\n3 1 2\n1 2 3\n2 3 1\n"


@pytest.fixture()
def loopfiles(tmp_path):
    files = {}
    for name, text in (
        ("good.loop", Z5_FILE),
        ("bad.loop", BAD_LATIN),
        ("truncated.loop", TRUNCATED),
        ("shifted.loop", SHIFTED),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)
    return files


def test_validate_good_file(loopfiles, capsys):
    assert main(["validate", loopfiles["good.loop"]]) == 0
    out = capsys.readouterr().out
    assert "valid loop of order 5 (Z5-file)" in out


def test_validate_catalog_key(capsys):
    assert main(["validate", "Q2"]) == 0
    assert "valid loop of order 8 (Q2)" in capsys.readouterr().out


def test_validate_bad_table(loopfiles, capsys):
    assert main(["validate", loopfiles["bad.loop"]]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "row-not-latin" in out


def test_validate_unreadable(loopfiles, capsys):
    assert main(["validate", loopfiles["truncated.loop"]]) == 2
    assert "unreadable" in capsys.readouterr().out


def test_validate_missing_path(capsys):
    assert main(["validate", "no/such/file.loop"]) == 2


def test_validate_mixed_paths_keep_worst_status(loopfiles, capsys):
    assert main(["validate", loopfiles["good.loop"], loopfiles["bad.loop"]]) == 1
    out = capsys.readouterr().out
    assert "valid loop" in out and "INVALID" in out


def test_validate_shifted_identity(loopfiles, capsys):
    assert main(["validate", loopfiles["shifted.loop"]]) == 1
    assert "identity is element 2" in capsys.readouterr().out
    assert main(["validate", "--normalize", loopfiles["shifted.loop"]]) == 0


def test_validate_json(loopfiles, capsys):
    assert main(["validate", "--json", loopfiles["good.loop"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "has_identity": True,
        "is_loop": True,
        "is_quasigroup": True,
        "name": "Z5-file",
        "order": 5,
    }


def test_analyze_text_output(capsys):
    assert main(["analyze", "Q2"]) == 0
    out = capsys.readouterr().out
    assert "Q2: order 8" in out
    assert "half-morphisms     total=16 iso=4 anti=4 both=0 proper=8" in out
    assert "nilpotency_class   2" in out


def test_analyze_json(capsys):
    assert main(["analyze", "--json", "Q2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "Q2"
    assert payload["flags"] == {
        "associative": False,
        "automorphic": True,
        "commutative": False,
        "diassociative": False,
        "left_automorphic": True,
        "loop": True,
        "moufang": False,
        "quasigroup": True,
    }
    assert payload["subloop_orders"] == {
        "associator_subloop": 2,
        "center": 2,
        "commutant": 2,
        "commutator_subloop": 2,
        "nucleus": 2,
    }
    assert payload["nilpotency_class"] == 2
    assert payload["half_census"]["total"] == 16
    assert payload["half_census_skipped"] is False


def test_analyze_census_threshold(capsys):
    assert main(["analyze", "--max-half-order", "4", "Q2"]) == 0
    assert "skipped (order above threshold)" in capsys.readouterr().out


# analyze --json Z4 Z5 as printed, with each elapsed value set to 0
ANALYZE_Z4_Z5 = """\
[
  {
    "elapsed": {
      "flags": 0,
      "half_census": 0,
      "nilpotency": 0,
      "subloops": 0
    },
    "flags": {
      "associative": true,
      "automorphic": true,
      "commutative": true,
      "diassociative": true,
      "left_automorphic": true,
      "loop": true,
      "moufang": true,
      "quasigroup": true
    },
    "half_census": {
      "anti-isomorphism": 0,
      "both": 2,
      "isomorphism": 0,
      "proper-half": 0,
      "total": 2
    },
    "half_census_skipped": false,
    "name": "Z4",
    "nilpotency_class": 1,
    "order": 4,
    "subloop_orders": {
      "associator_subloop": 1,
      "center": 4,
      "commutant": 4,
      "commutator_subloop": 1,
      "nucleus": 4
    }
  },
  {
    "elapsed": {
      "flags": 0,
      "half_census": 0,
      "nilpotency": 0,
      "subloops": 0
    },
    "flags": {
      "associative": true,
      "automorphic": true,
      "commutative": true,
      "diassociative": true,
      "left_automorphic": true,
      "loop": true,
      "moufang": true,
      "quasigroup": true
    },
    "half_census": {
      "anti-isomorphism": 0,
      "both": 4,
      "isomorphism": 0,
      "proper-half": 0,
      "total": 4
    },
    "half_census_skipped": false,
    "name": "Z5",
    "nilpotency_class": 1,
    "order": 5,
    "subloop_orders": {
      "associator_subloop": 1,
      "center": 5,
      "commutant": 5,
      "commutator_subloop": 1,
      "nucleus": 5
    }
  }
]
"""


def test_analyze_multiple_inputs_json(capsys):
    assert main(["analyze", "--json", "Z4", "Z5"]) == 0
    out = capsys.readouterr().out
    assert re.sub(r'("(?:flags|half_census|nilpotency|subloops)": )[-+.e0-9]+', r"\g<1>0", out) == ANALYZE_Z4_Z5


@pytest.mark.parametrize("premise, conclusion", [
    ("loop", "quasigroup"), ("associative", "moufang"),
    ("moufang", "diassociative"), ("automorphic", "left_automorphic")])
def test_analyze_flags_an_implication_that_fails(premise, conclusion, monkeypatch, capsys):
    analyze_table = analyzecli.analyze_table

    def broken(*args, **kwargs):
        report = analyze_table(*args, **kwargs)
        report["flags"][premise], report["flags"][conclusion] = True, False
        return report

    monkeypatch.setattr(analyzecli, "analyze_table", broken)
    assert main(["analyze", "Z4"]) == 1
    assert "Z4: inconsistent property flags" in capsys.readouterr().err


def test_analyze_error_paths(loopfiles, capsys):
    assert main(["analyze", loopfiles["bad.loop"]]) == 1
    assert main(["analyze", loopfiles["truncated.loop"]]) == 2


def test_halfautos_listing(capsys):
    assert main(["halfautos", "Z4"]) == 0
    out = capsys.readouterr().out
    assert "()" in out and "(2,4)" in out
    assert "total=2 iso=0 anti=0 both=2 proper=0" in out
    assert "closed under composition and inverse: yes" in out


HALFAUTOS_Q2 = """\
()                       isomorphism        witness_hom=(3, 5) witness_anti=None
(7,8)                    anti-isomorphism   witness_hom=None witness_anti=(3, 5)
(5,6)                    anti-isomorphism   witness_hom=None witness_anti=(3, 5)
(5,6)(7,8)               isomorphism        witness_hom=(3, 5) witness_anti=None
(3,4)                    anti-isomorphism   witness_hom=None witness_anti=(3, 5)
(3,4)(7,8)               isomorphism        witness_hom=(3, 5) witness_anti=None
(3,4)(5,6)               isomorphism        witness_hom=(3, 5) witness_anti=None
(3,4)(5,6)(7,8)          anti-isomorphism   witness_hom=None witness_anti=(3, 5)
(3,5)(4,6)               proper-half        witness_hom=(3, 7) witness_anti=(3, 5)
(3,5)(4,6)(7,8)          proper-half        witness_hom=(3, 5) witness_anti=(3, 7)
(3,5,4,6)                proper-half        witness_hom=(3, 5) witness_anti=(3, 7)
(3,5,4,6)(7,8)           proper-half        witness_hom=(3, 7) witness_anti=(3, 5)
(3,6,4,5)                proper-half        witness_hom=(3, 5) witness_anti=(3, 7)
(3,6,4,5)(7,8)           proper-half        witness_hom=(3, 7) witness_anti=(3, 5)
(3,6)(4,5)               proper-half        witness_hom=(3, 7) witness_anti=(3, 5)
(3,6)(4,5)(7,8)          proper-half        witness_hom=(3, 5) witness_anti=(3, 7)
total=16 iso=4 anti=4 both=0 proper=8
closed under composition and inverse: yes
"""


def test_halfautos_text_lists_every_map_with_its_witnesses(capsys):
    assert main(["halfautos", "Q2"]) == 0
    assert capsys.readouterr().out == HALFAUTOS_Q2


def test_halfautos_limit_withholds_census(capsys):
    for limit, key in (("3", "Q2"), ("1", "Z1")):
        assert main(["halfautos", "--limit", limit, key]) == 0
        out = capsys.readouterr().out
        assert "stopped at limit %s: enumeration incomplete, census withheld" % limit in out
        assert "total=" not in out


def test_halfautos_json(capsys):
    assert main(["halfautos", "--json", "Q2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] is True
    assert payload["total"] == 16
    assert payload["group_closed"] is True
    assert payload["census"] == {
        "anti-isomorphism": 4,
        "both": 0,
        "isomorphism": 4,
        "proper-half": 8,
    }
    assert len(payload["maps"]) == 16
    assert payload["maps"][0] == {
        "cycles": "()",
        "images": list(range(1, 9)),
        "kind": "isomorphism",
        "witness_hom": [3, 5],
        "witness_anti": None,
    }


def test_halfautos_json_is_deterministic(capsys):
    assert main(["halfautos", "--json", "Z6"]) == 0
    first = capsys.readouterr().out
    assert main(["halfautos", "--json", "Z6"]) == 0
    assert capsys.readouterr().out == first


def test_halfautos_classifies_once_per_searched_map(monkeypatch, capsys):
    """The kind and witnesses read only the masks, which a composed map
    shares with its source, so classify runs once per searched map."""
    calls = 0
    classify = halfmorph.classify

    def counting(m):
        nonlocal calls
        calls += 1
        return classify(m)

    monkeypatch.setattr(halfmorph, "classify", counting)
    assert main(["halfautos", "--json", "Q2"]) == 0
    maps = json.loads(capsys.readouterr().out)["maps"]
    enum = halfmorph.enumerate_half_automorphisms(builtin("Q2").table)
    assert calls == sum(len(maps) for maps, _ in enum.maps.entries) < len(enum.maps)
    assert [(m["kind"], m["witness_hom"], m["witness_anti"]) for m in maps] == [
        (c.kind.value, list(c.witness_hom) if c.witness_hom else None,
         list(c.witness_anti) if c.witness_anti else None)
        for c in map(classify, enum.maps)]


def test_halfautos_limit_above_the_count_classifies_once_per_searched_map(monkeypatch, capsys):
    """A limit above the map count holds the maps as a complete search
    does, so classify runs once per searched map, and the output is the
    unlimited one byte for byte."""
    calls = 0
    classify = halfmorph.classify

    def counting(m):
        nonlocal calls
        calls += 1
        return classify(m)

    monkeypatch.setattr(halfmorph, "classify", counting)
    assert main(["halfautos", "--json", "--limit", "30000", "Q1"]) == 0
    limited = capsys.readouterr().out
    assert calls == 16
    assert main(["halfautos", "--json", "Q1"]) == 0
    assert capsys.readouterr().out == limited
    assert json.loads(limited)["complete"]


def test_checktheorem_text(capsys):
    assert main(["checktheorem", "S3"]) == 0
    out = capsys.readouterr().out
    assert "S3 (order 6)" in out
    assert out.count("suite ") == 17
    assert "theorem check: ok" in out


def test_checktheorem_json(capsys):
    assert main(["checktheorem", "--json", "S3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    loop = payload["loops"][0]
    assert loop["name"] == "S3"
    assert loop["moufang"] is True
    assert loop["automorphic"] is True
    assert loop["hypotheses_hold"] is True
    assert loop["proper_half_maps"] == 0
    assert loop["enumerated"] is True
    assert len(payload["suites"]) == 17
    assert all(s["violations"] == [] for s in payload["suites"])


def test_checktheorem_corrupt_table_fails_but_continues(loopfiles, capsys):
    assert main(["checktheorem", loopfiles["bad.loop"], "S3"]) == 1
    captured = capsys.readouterr()
    assert "row-not-latin" in captured.err
    assert "S3 (order 6)" in captured.out


def test_checktheorem_text_names_the_inner_map_witness(capsys):
    assert main(["checktheorem", "Q1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "Q1 (order 16): moufang=True automorphic=False witness=t[2] = (3,7)(5,8)(9,12)(10,14)(11,15)(13,16)"
        " is not an automorphism maps=21504"
        " census=anti-isomorphism:1344,both:0,isomorphism:1344,proper-half:18816")


def test_a_theorem_violation_exits_1_with_an_error_line(monkeypatch, capsys):
    """A LoopError raised inside a command is a property failure (exit 1),
    told apart from the internal-error exit 3."""
    z4 = builtin("Z4").table
    proper = halfmorph.make_half_map(z4, z4, (1, 4, 3, 2))

    def census(L):
        return halfmorph.HalfCensus(((halfmorph.HalfKind.PROPER_HALF, 1),), ((proper, ()),))

    monkeypatch.setattr(halfmorph, "half_census", census)
    assert main(["checktheorem", "--json", "Z4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Z4 is automorphic Moufang yet carries proper half-morphisms: (2,4)\n"
    assert captured.out == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_checktheorem_exits_1_when_a_suite_reports_a_violation(json_flag, monkeypatch, capsys):
    def run_theorem_suites(named, max_order):
        return [suites.SuiteResult("main-theorem", 1, 1, ["Z4: planted violation"])]

    monkeypatch.setattr(suites, "run_theorem_suites", run_theorem_suites)
    assert main(["checktheorem", "Z4"] + json_flag) == 1
    out = capsys.readouterr().out
    if json_flag:
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["suites"][0]["violations"] == ["Z4: planted violation"]
    else:
        assert out.splitlines()[-2:] == [
            "suite main-theorem                 hypotheses=1     checks=1        violations=1 FAIL",
            "theorem check: FAIL"]


def test_halfautos_exits_1_when_the_maps_do_not_form_a_group(monkeypatch, capsys):
    monkeypatch.setattr(halfmorph, "half_maps_form_group_check", lambda L, enum: False)
    assert main(["halfautos", "Q2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "closed under composition and inverse: NO"
    assert main(["halfautos", "--json", "Q2"]) == 1
    assert json.loads(capsys.readouterr().out)["group_closed"] is False


def test_checktheorem_unreadable_is_usage_error(loopfiles):
    assert main(["checktheorem", loopfiles["truncated.loop"]]) == 2


def test_checktheorem_requires_input(capsys):
    assert main(["checktheorem"]) == 2
    assert "needs paths or --catalog" in capsys.readouterr().err


def test_checktheorem_refuses_paths_with_catalog(capsys):
    assert main(["checktheorem", "--catalog", "no/such/file.loop"]) == 2
    captured = capsys.readouterr()
    assert "needs paths or --catalog, not both" in captured.err
    assert captured.out == ""


def test_checktheorem_json_reports_a_skipped_loop(capsys):
    assert main(["checktheorem", "--json", "--max-half-order", "8", "Q1", "Q2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    q1, q2 = payload["loops"]
    assert q1 == {"name": "Q1", "order": 16, "enumerated": False, "hypotheses_hold": None,
                  "proper_half_maps": None, "moufang": True, "automorphic": False}
    assert q2 == {"name": "Q2", "order": 8, "enumerated": True, "hypotheses_hold": False,
                  "proper_half_maps": 8, "moufang": False, "automorphic": True}
    notes = {s["name"]: s["notes"] for s in payload["suites"] if s["notes"]}
    assert notes == {
        "main-theorem": ["skipped Q1 (order 16 above threshold)"],
        "half-maps-form-group": ["skipped Q1"],
        "semi-isomorphism": ["skipped Q1"],
        "proper-half-witness-triples": ["skipped Q1"],
        "induced-quotient-trivial": ["skipped Q1"],
        "commutator-d-set-central": ["skipped Q1"],
    }
    assert payload["ok"] is True


def test_checktheorem_respects_enumeration_threshold(capsys):
    assert main(["checktheorem", "--max-half-order", "4", "S3"]) == 0
    out = capsys.readouterr().out
    assert "enumeration skipped (above threshold)" in out


def test_checktheorem_catalog_json(capsys):
    assert main(["checktheorem", "--catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["loops"]) == 27
    by_name = {entry["name"]: entry for entry in payload["loops"]}
    assert by_name["Q1"]["hypotheses_hold"] is False
    assert by_name["Q1"]["proper_half_maps"] == 18816
    assert by_name["Q2"]["proper_half_maps"] == 8
    assert by_name["Z6"]["proper_half_maps"] == 0
    assert all(s["violations"] == [] for s in payload["suites"])


def test_checktheorem_keeps_input_order(capsys):
    assert main(["checktheorem", "--json", "S3", "Z6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload["loops"]] == ["S3", "Z6"]
    assert payload["ok"] is True


def test_limited_halfautos_does_not_leak_into_checktheorem(capsys):
    assert main(["halfautos", "--limit", "2", "Q2"]) == 0
    capsys.readouterr()
    assert main(["checktheorem", "--json", "Q2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loops"][0]["proper_half_maps"] == 8
    by_name = {s["name"]: s for s in payload["suites"]}
    assert by_name["main-theorem"]["checks"] == 16
    assert by_name["half-maps-form-group"]["checks"] == 32


def test_checktheorem_inputs_with_one_name_keep_their_own_maps(tmp_path, capsys):
    paths = []
    for key in ("Z4", "Q2"):
        path = tmp_path / ("%s.loop" % key)
        # no name directive, so both inputs are called "loop"
        path.write_text(write_loop_file(LoopTable(builtin(key).table.rows)), encoding="utf-8")
        paths.append(str(path))
    assert main(["checktheorem", "--json"] + paths) == 0
    loops = json.loads(capsys.readouterr().out)["loops"]
    assert [(e["name"], e["order"], e["proper_half_maps"]) for e in loops] == [("loop", 4, 0), ("loop", 8, 8)]


def test_internal_check_failure_has_its_own_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalCheckError("self-check tripped")

    monkeypatch.setattr(analyzecli, "analyze_table", broken)
    assert main(["analyze", "Z4"]) == 3
    assert "internal error: self-check tripped" in capsys.readouterr().err


def test_halfautos_rejects_a_limit_below_one(capsys):
    assert main(["halfautos", "--limit", "0", "Q2"]) == 2
    captured = capsys.readouterr()
    assert "--limit must be at least 1" in captured.err
    assert captured.out == ""


def test_unexpected_value_error_is_internal(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("stray value")

    monkeypatch.setattr(analyzecli, "analyze_table", broken)
    assert main(["analyze", "Z4"]) == 3
    assert "internal error: stray value" in capsys.readouterr().err


def test_undecodable_file_is_unreadable_input(tmp_path, capsys):
    path = tmp_path / "binary.loop"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["validate", str(path)]) == 2
    assert "unreadable" in capsys.readouterr().out
    assert main(["analyze", str(path)]) == 2


def test_a_number_outside_the_digits_0_9_is_unreadable_input(tmp_path, capsys):
    """int() reads "0_1" as 1, so this file once validated as Z2."""
    path = tmp_path / "underscore.loop"
    path.write_text("2\n1 2\n2 0_1\n", encoding="utf-8")
    for command in ("validate", "analyze", "halfautos", "checktheorem"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert "entry '0_1' is not an integer in the digits 0-9 (line 3, column 2)" in captured.out + captured.err


def _cyclic_file(n):
    return "%d\n" % n + "".join(" ".join(str((i + j) % n + 1) for j in range(n)) + "\n" for i in range(n))


def test_orders_above_256_are_unreadable_input(tmp_path, capsys):
    at_cap = tmp_path / "z256.loop"
    at_cap.write_text(_cyclic_file(256), encoding="utf-8")
    assert main(["validate", str(at_cap)]) == 0
    assert "valid loop of order 256" in capsys.readouterr().out
    above = tmp_path / "z257.loop"
    above.write_text(_cyclic_file(257), encoding="utf-8")
    for command in ("validate", "analyze", "halfautos", "checktheorem"):
        assert main([command, str(above)]) == 2
        captured = capsys.readouterr()
        assert "order 257 is above the limit of 256 (line 1)" in captured.out + captured.err


def test_checked_accessors_stay_out_of_inner_loops(monkeypatch, capsys):
    """Argument checks belong to public entry points: a whole checktheorem
    run on Q1 makes about a thousand, not one per table lookup.  Pair
    masks are walked only to word a result, not once per pair of every
    map."""
    calls = 0
    check = LoopTable._check

    def counting(self, *xs):
        nonlocal calls
        calls += 1
        return check(self, *xs)

    pairs = 0
    walk = halfmorph.mask_pairs

    def counting_pairs(mask, n):
        nonlocal pairs
        for pair in walk(mask, n):
            pairs += 1
            yield pair

    monkeypatch.setattr(LoopTable, "_check", counting)
    monkeypatch.setattr(halfmorph, "mask_pairs", counting_pairs)
    monkeypatch.setattr(suites, "mask_pairs", counting_pairs)
    assert main(["checktheorem", "--json", "Q1"]) == 0
    capsys.readouterr()
    assert calls < 2000
    assert pairs < 100_000


def test_a_closed_pipe_ends_the_run_quietly_with_its_own_exit_code():
    """halfautos Q1 prints about 1 MB; the reader takes one line and closes
    its end of the pipe, as ``| head -1`` does."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "loopsmith.cli", "halfautos", "Q1"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert first.startswith(b"(")
    assert stderr == ""
    assert code == cli.EXIT_PIPE


@pytest.mark.parametrize("argv, code, stderr_part", [
    (["checktheorem", "--json", "Q2"], 0, ""),
    (["analyze", "--bogus", "Q2"], 2, "\nloopsmith: error: unknown option --bogus\n"),
    (["analyze", "bad.loop"], 1, "bad.loop: "),
])
def test_a_run_ended_without_teardown_writes_all_its_output(argv, code, stderr_part, loopfiles, tmp_path, capsys):
    """The process ends by os._exit, which flushes nothing, so the CLI
    flushes first: what reaches regular files, which Python block-buffers,
    is all that main prints in process."""
    argv = [loopfiles.get(word, word) for word in argv]
    assert main(argv) == code
    expected = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.run([sys.executable, "-m", "loopsmith.cli"] + argv, env=env, stdout=out, stderr=err,
                              timeout=120)
    assert proc.returncode == code
    assert out_path.read_text(encoding="utf-8") == expected.out
    assert err_path.read_text(encoding="utf-8") == expected.err
    assert stderr_part in expected.err
    if code == 0:
        assert expected.err == "" and json.loads(expected.out)["ok"] is True
    else:
        assert expected.out == ""
    if code == 2:
        assert expected.err.startswith(cli.usage() + "\n")


# -- reading the command line -------------------------------------------


@pytest.mark.parametrize("argv, message", [
    ([], "no command given"),
    (["bogus", "Q2"], "unknown command 'bogus' (choose from validate, analyze, halfautos, checktheorem)"),
    (["--json", "analyze", "Q2"], "unknown option --json"),
    (["analyze", "--bogus", "Q2"], "unknown option --bogus"),
    (["analyze", "-x", "Q2"], "unknown option -x"),
    (["halfautos", "Q2", "--limit"], "--limit needs a value"),
    (["halfautos", "--limit", "--json", "Q2"], "--limit needs a value"),
    (["halfautos", "--limit", "x", "Q2"], "--limit takes an integer, got 'x'"),
    (["halfautos", "--limit=", "Q2"], "--limit takes an integer, got ''"),
    (["analyze", "--json=yes", "Q2"], "--json takes no value"),
    (["halfautos"], "halfautos needs a path"),
    (["halfautos", "Q1", "Q2"], "halfautos takes one path, got 2"),
    (["validate"], "validate needs at least one path"),
    (["analyze", "--json"], "analyze needs at least one path"),
])
def test_a_usage_error_prints_the_usage_and_the_error_and_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cli.usage() + "\nloopsmith: error: " + message + "\n"


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["analyze", "-h"], ["halfautos", "Q2", "--help"], ["checktheorem", "--h"],
])
def test_help_prints_the_usage_to_stdout_and_exits_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.usage() + "\n" + cli.HELP + "\n"
    assert captured.out.startswith("usage: loopsmith validate [--normalize] [--json] PATH...\n")
    assert captured.err == ""


def test_readme_shows_the_synopsis_that_help_prints():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "```\n%s\n```" % cli.usage() in readme


@pytest.mark.parametrize("argv", [
    ["checktheorem", "--json", "--max-half-order", "5", "S3"],
    ["checktheorem", "--json", "--max-half-order=5", "S3"],
    ["checktheorem", "--json", "--max", "5", "S3"],
    ["checktheorem", "S3", "--max-h=5", "--j"],
    ["checktheorem", "S3", "--max-half-order", "9", "--json", "--max-half-order", "5"],
])
def test_an_option_reads_the_same_in_every_spelling_and_place(argv, capsys):
    """--opt N, --opt=N and an unambiguous prefix are one option, before or
    after the paths, and a repeated option keeps its last value."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["loops"] == [{
        "name": "S3", "order": 6, "enumerated": False, "hypotheses_hold": None,
        "proper_half_maps": None, "moufang": True, "automorphic": True}]


def test_a_negative_limit_reaches_the_limit_check(capsys):
    for argv in (["halfautos", "--limit", "-1", "Q2"], ["halfautos", "Q2", "--limit=-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--limit must be at least 1, got -1\n"


def test_a_double_dash_ends_the_options(capsys):
    assert main(["validate", "--", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("--json: unreadable: cannot read --json:")
    assert captured.err == ""
