"""Built-in tables, family constructors, expected-property records, and
the .loop file format."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsmith import catalog
from loopsmith.catalog import (
    CatalogEntry,
    builtin,
    catalog_keys,
    check_expected,
    entries,
    make_chein,
    make_cyclic,
    make_dihedral,
    make_quaternion8,
    make_symmetric3,
    parse_loop_file,
    write_loop_file,
)
from loopsmith.table import LoopFileError, validate

# retyped by hand, used as a transcription checksum for the stored tables
Q1_CHECK = (
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
    (2, 4, 8, 6, 3, 1, 5, 7, 14, 9, 16, 10, 11, 12, 13, 15),
    (3, 5, 4, 7, 6, 8, 1, 2, 15, 13, 9, 11, 14, 16, 12, 10),
    (4, 6, 7, 1, 8, 2, 3, 5, 12, 14, 15, 9, 16, 10, 11, 13),
    (5, 7, 2, 8, 4, 3, 6, 1, 13, 11, 14, 16, 12, 15, 10, 9),
    (6, 1, 5, 2, 7, 4, 8, 3, 10, 12, 13, 14, 15, 9, 16, 11),
    (7, 8, 1, 3, 2, 5, 4, 6, 11, 16, 12, 15, 10, 13, 9, 14),
    (8, 3, 6, 5, 1, 7, 2, 4, 16, 15, 10, 13, 9, 11, 14, 12),
    (9, 10, 11, 12, 16, 14, 15, 13, 4, 6, 7, 1, 5, 2, 3, 8),
    (10, 12, 16, 14, 15, 9, 13, 11, 2, 4, 5, 6, 3, 1, 8, 7),
    (11, 13, 12, 15, 10, 16, 9, 14, 3, 8, 4, 7, 6, 5, 1, 2),
    (12, 14, 15, 9, 13, 10, 11, 16, 1, 2, 3, 4, 8, 6, 7, 5),
    (13, 15, 10, 16, 9, 11, 14, 12, 8, 7, 2, 5, 4, 3, 6, 1),
    (14, 9, 13, 10, 11, 12, 16, 15, 6, 1, 8, 2, 7, 4, 5, 3),
    (15, 16, 9, 11, 14, 13, 12, 10, 7, 5, 1, 3, 2, 8, 4, 6),
    (16, 11, 14, 13, 12, 15, 10, 9, 5, 3, 6, 8, 1, 7, 2, 4),
)

Q2_CHECK = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 1, 4, 3, 6, 5, 8, 7),
    (3, 4, 1, 2, 7, 8, 6, 5),
    (4, 3, 2, 1, 8, 7, 5, 6),
    (5, 6, 8, 7, 1, 2, 4, 3),
    (6, 5, 7, 8, 2, 1, 3, 4),
    (7, 8, 5, 6, 3, 4, 2, 1),
    (8, 7, 6, 5, 4, 3, 1, 2),
)


def test_catalog_keys():
    keys = catalog_keys()
    assert len(keys) == 27
    assert keys[:16] == tuple("Z%d" % n for n in range(1, 17))
    assert keys[16:22] == ("D6", "D8", "D10", "D12", "D14", "D16")
    assert keys[22:] == ("S3", "Q8", "M(S3,2)", "Q1", "Q2")


def test_builtin_unknown_key():
    with pytest.raises(KeyError):
        builtin("Z99")


def test_every_entry_is_a_valid_loop():
    for entry in entries():
        report = validate(entry.table.rows)
        assert report.is_loop, entry.key
        assert report.identity_index == 1


def test_featured_tables_transcription():
    assert builtin("Q1").table.rows == Q1_CHECK
    assert builtin("Q2").table.rows == Q2_CHECK


def test_featured_half_map_images():
    assert builtin("Q1").featured_half_map == tuple(
        8 if x == 5 else 5 if x == 8 else x for x in range(1, 17)
    )
    assert builtin("Q2").featured_half_map == (1, 2, 5, 6, 3, 4, 8, 7)
    assert builtin("S3").featured_half_map is None


def test_expected_records_recompute_cleanly():
    for entry in entries():
        assert check_expected(entry) == [], entry.key


def test_check_expected_flags_wrong_values(q2):
    entry = CatalogEntry("wrong", q2, {"moufang": (True, "external")})
    problems = check_expected(entry)
    assert len(problems) == 1
    assert "moufang" in problems[0]


def test_check_expected_flags_bad_provenance(q2):
    entry = CatalogEntry("tagged", q2, {"moufang": (False, "folklore")})
    problems = check_expected(entry)
    assert any("provenance" in p for p in problems)


def test_check_expected_flags_a_property_it_cannot_recompute(q2):
    entry = CatalogEntry("flexible", q2, {"flexible": (True, "derived")})
    assert check_expected(entry) == ["flexible: no recomputation rule"]


def test_make_cyclic():
    t = make_cyclic(5)
    assert t.order == 5
    assert t.is_commutative() and t.is_associative()
    assert make_cyclic(1).order == 1


def test_make_dihedral():
    t = make_dihedral(8)
    assert t.order == 8
    assert t.is_associative()
    assert not t.is_commutative()


def test_constructors_refuse_orders_outside_their_family():
    with pytest.raises(ValueError, match="order must be positive"):
        make_cyclic(0)
    for n in (5, 2):
        with pytest.raises(ValueError, match="even and at least 4"):
            make_dihedral(n)


def test_make_quaternion8():
    t = make_quaternion8()
    assert t.order == 8
    assert t.is_associative() and not t.is_commutative()
    orders = sorted(t.element_order(x) for x in t.elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_make_chein_of_s3_matches_catalog():
    assert make_chein(make_symmetric3()).rows == builtin("M(S3,2)").table.rows
    t = builtin("M(S3,2)").table
    assert t.is_moufang() and not t.is_associative()


def test_make_chein_of_abelian_group_is_a_group():
    t = make_chein(make_cyclic(3))
    assert t.order == 6
    assert t.is_associative()
    assert not t.is_commutative()


def test_constructors_give_their_exact_rows():
    """The labels of every constructed table, pinned as one digest: they
    feed the halfautos listings, the cycles of proper maps and the
    benchmark's relabeled inputs."""
    tables = []
    for k in range(4, 25, 2):
        tables += [make_dihedral(k), make_chein(make_dihedral(k))]
    for k in range(1, 17):
        tables += [make_cyclic(k), make_chein(make_cyclic(k))]
    tables += [make_symmetric3(), make_quaternion8(),
               make_chein(make_quaternion8()), make_chein(make_symmetric3())]
    digest = hashlib.sha256()
    for t in tables:
        digest.update(repr(t.rows).encode())
    assert digest.hexdigest() == "aa1de65fc22ca4f9f265f2622e7be7f5e6fde26f4c04d5a5c49c1696df099f16"


def test_loop_file_round_trip():
    entry = builtin("Q2")
    text = write_loop_file(entry)
    lines = text.splitlines()
    assert lines[0] == "name: Q2"
    assert lines[1] == "8"
    parsed = parse_loop_file(text)
    assert parsed.key == "Q2"
    assert parsed.table.rows == entry.table.rows


def test_the_readme_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## .loop file format"):]
    example = section[section.index("```\n") + 4:section.index("\n```", section.index("```\n") + 4) + 1]
    entry = parse_loop_file(example)
    assert (entry.key, entry.table.order) == ("my loop", 4)


def test_parse_skips_comments_and_blank_lines():
    text = "# a comment\n\nname: tiny\n2\n# rows\n1 2\n2 1\n"
    entry = parse_loop_file(text)
    assert entry.key == "tiny"
    assert entry.table.order == 2


def test_parse_default_name():
    assert parse_loop_file("1\n1\n").key == "loop"


def test_parse_rejects_unknown_directive():
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("color: red\n2\n1 2\n2 1\n")
    assert exc.value.stage == "parse"
    assert exc.value.line == 1


def test_parse_rejects_bad_normalize_value():
    with pytest.raises(LoopFileError, match="true or false"):
        parse_loop_file("normalize: maybe\n2\n1 2\n2 1\n")


def test_parse_rejects_non_integer_entry():
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("2\n1 2\n2 x\n")
    e = exc.value
    assert e.stage == "parse"
    assert (e.line, e.column) == (3, 2)


@pytest.mark.parametrize("text, line, column", [
    ("+2\n1 2\n2 1\n", 1, 1),
    ("0_2\n1 2\n2 1\n", 1, 1),
    ("\u0662\n1 2\n2 1\n", 1, 1),   # ARABIC-INDIC DIGIT TWO
    ("2\n1 2\n2 0_1\n", 3, 2),
    ("2\n1 +2\n2 1\n", 2, 2),
    ("2\n\u0661 2\n2 1\n", 2, 1),   # ARABIC-INDIC DIGIT ONE
    ("2\n1 2\n2 +1\n", 3, 2),
    ("2\n1 2\n2 -1\n", 3, 2),
    ("2\n1 2\n2 " + "1" * 5000 + "\n", 3, 2),  # more digits than int() takes
    ("1" * 5000 + "\n1\n", 1, 1),
], ids=["order-sign", "order-underscore", "order-arabic-indic", "entry-underscore", "entry-sign",
        "entry-arabic-indic", "entry-plus-one", "entry-minus-one", "entry-too-long", "order-too-long"])
def test_parse_reads_numbers_only_in_the_ascii_digits(text, line, column):
    """int() takes a sign, underscores between digits and the digits of
    other scripts; the format takes 0-9 alone, so each of these tokens,
    which int() reads as a number, is refused where it stands.  A token
    of more digits than int() takes is refused there too."""
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file(text)
    e = exc.value
    assert (e.stage, e.line, e.column) == ("parse", line, column)
    assert "digits 0-9" in str(e)


def test_parse_reads_leading_zeros():
    assert parse_loop_file("02\n01 2\n2 001\n").table.rows == ((1, 2), (2, 1))


def test_parse_rejects_wrong_row_width():
    with pytest.raises(LoopFileError, match="entries, expected"):
        parse_loop_file("2\n1 2\n2 1 1\n")


def test_parse_rejects_missing_and_extra_rows():
    with pytest.raises(LoopFileError, match="found 1 table rows, expected 2"):
        parse_loop_file("2\n1 2\n")
    with pytest.raises(LoopFileError, match="extra row"):
        parse_loop_file("2\n1 2\n2 1\n1 2\n")


def test_parse_rejects_bad_order_line():
    with pytest.raises(LoopFileError, match="expected the order"):
        parse_loop_file("two\n1 2\n2 1\n")
    with pytest.raises(LoopFileError, match="positive"):
        parse_loop_file("0\n")
    with pytest.raises(LoopFileError, match="no table"):
        parse_loop_file("# nothing here\n")


def test_parse_latin_defect_points_at_the_cell():
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file("name: broken\n3\n1 2 3\n2 3 1\n3 1 3\n")
    e = exc.value
    assert e.stage == "table"
    assert (e.line, e.column) == (5, 3)
    assert e.report is not None
    assert any(kind == "row-not-latin" for kind, _ in e.report.violations)


def test_parse_shifted_identity_needs_normalize():
    text = "3\n3 1 2\n1 2 3\n2 3 1\n"
    with pytest.raises(LoopFileError) as exc:
        parse_loop_file(text)
    assert exc.value.stage == "table"
    assert "identity is element 2" in str(exc.value)
    entry = parse_loop_file(text, normalize=True)
    assert entry.table.mul(1, 3) == 3


def test_parse_normalize_directive():
    text = "normalize: true\n3\n3 1 2\n1 2 3\n2 3 1\n"
    entry = parse_loop_file(text)
    for x in entry.table.elements:
        assert entry.table.mul(1, x) == x


LOOP_FILE_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "12", "-1", "+1", "0_1", "\u0661", " ", "  ", "\n", "\t", "#", ":",
     "name", "normalize", "true", "false", "name:", "normalize:"]
)


@st.composite
def near_tables(draw):
    """An order line and n rows of n integers in 0..n."""
    n = draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, n), min_size=n, max_size=n)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    head = draw(st.sampled_from(["", "name: t\n", "normalize: true\n", "# note\n"]))
    return head + "%d\n" % n + "\n".join(" ".join(map(str, r)) for r in rows)


LOOP_FILE_TEXT = st.one_of(
    st.text(), st.lists(LOOP_FILE_TOKENS, max_size=40).map("".join), near_tables()
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(LOOP_FILE_TEXT)
def test_parse_ends_in_an_entry_or_a_loop_file_error(text):
    try:
        entry = parse_loop_file(text)
    except LoopFileError:
        return
    assert isinstance(entry, CatalogEntry)
