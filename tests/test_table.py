"""Core table type: validation, normalization, words, global flags."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsmith import catalog
from loopsmith.table import MAX_ORDER, LoopTable, TableValidationError, relabel, validate

Z3_ROWS = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

# identity sits at element 2; relabeling 1 <-> 2 recovers a plain Z3
SHIFTED_Z3 = [(3, 1, 2), (1, 2, 3), (2, 3, 1)]

# order-5 loop whose element 3 has left-power order 5 but right-power order 3
AMBIG5 = [
    (1, 2, 3, 4, 5),
    (2, 1, 4, 5, 3),
    (3, 4, 5, 1, 2),
    (4, 5, 2, 3, 1),
    (5, 3, 1, 2, 4),
]


def _kinds(report):
    return {kind for kind, _ in report.violations}


def test_validate_accepts_cyclic_group():
    report = validate(Z3_ROWS)
    assert report.is_loop
    assert report.is_quasigroup
    assert report.has_identity
    assert report.identity_index == 1
    assert report.violations == []


def test_validate_empty():
    report = validate([])
    assert not report.is_loop
    assert _kinds(report) == {"empty"}


def test_validate_not_square():
    report = validate([(1, 2), (2,)])
    assert not report.is_loop
    assert ("not-square", (2, 1)) in report.violations


def test_validate_bad_entry():
    report = validate([(1, 2), (2, 0)])
    assert not report.is_loop
    assert ("bad-entry", (2, 2, 0)) in report.violations


def test_validate_rejects_bool_entries():
    report = validate([(1, 2), (2, True)])
    assert ("bad-entry", (2, 2, True)) in report.violations


def test_validate_row_not_latin():
    report = validate([(1, 2), (2, 2)])
    assert not report.is_quasigroup
    assert ("row-not-latin", (2, 1, 2)) in report.violations


def test_validate_column_not_latin():
    report = validate([(1, 2), (1, 2)])
    assert not report.is_quasigroup
    assert ("column-not-latin", (1, 1, 2)) in report.violations


def test_validate_no_identity():
    report = validate([(2, 1, 3), (1, 3, 2), (3, 2, 1)])
    assert report.is_quasigroup
    assert not report.has_identity
    assert _kinds(report) == {"no-identity"}


def test_validate_finds_identity_anywhere():
    report = validate(SHIFTED_Z3)
    assert report.is_loop
    assert report.identity_index == 2


def test_constructor_rejects_invalid_table():
    with pytest.raises(TableValidationError) as exc:
        LoopTable([(1, 2), (2, 2)])
    assert exc.value.report.violations


def test_order_cap_is_256(z256):
    assert MAX_ORDER == 256
    assert z256.order == 256 and validate(z256.rows).is_loop
    rows = [[(i + j) % 257 + 1 for j in range(257)] for i in range(257)]
    assert validate(rows).violations == [("too-large", (257, 256))]
    with pytest.raises(TableValidationError, match="order 257 is above the limit of 256"):
        LoopTable(rows)


def test_constructor_rejects_shifted_identity_without_normalize():
    with pytest.raises(TableValidationError, match="identity is element 2"):
        LoopTable(SHIFTED_Z3)


def test_constructor_normalize_relabels_identity_to_one():
    t = LoopTable(SHIFTED_Z3, normalize=True)
    assert t.order == 3
    for x in t.elements:
        assert t.mul(1, x) == x
        assert t.mul(x, 1) == x


def test_table_identity_and_divisions():
    t = LoopTable(AMBIG5)
    for x in t.elements:
        for y in t.elements:
            assert t._ld[x - 1][t.mul(x, y) - 1] == y
            assert t._rd[y - 1][t.mul(x, y) - 1] == x
            assert t.mul(x, t._ld[x - 1][y - 1]) == y
            assert t.mul(t._rd[x - 1][y - 1], x) == y


def test_inverses():
    t = LoopTable(AMBIG5)
    for x in t.elements:
        assert t.mul(t._rd[x - 1][0], x) == 1
        assert t.mul(x, t.right_inverse(x)) == 1


def test_out_of_range_arguments():
    t = LoopTable(Z3_ROWS)
    with pytest.raises(ValueError):
        t.mul(0, 1)
    with pytest.raises(ValueError):
        t.mul(1, 4)
    with pytest.raises(ValueError):
        t.element_order(7)


def test_equality_and_hash():
    a = LoopTable(Z3_ROWS)
    b = LoopTable([list(r) for r in Z3_ROWS], name="other label")
    c = LoopTable(AMBIG5)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_element_order_cyclic():
    t = catalog.make_cyclic(6)
    orders = {x: t.element_order(x) for x in t.elements}
    assert orders[1] == 1
    assert orders[2] == 6
    assert orders[3] == 3
    assert orders[4] == 2


def test_element_order_ambiguous_flag():
    t = LoopTable(AMBIG5)
    assert t.element_order(3) == 5
    assert t.element_order(2) == 2


def test_element_orders_on_featured_tables():
    q1 = catalog.builtin("Q1").table
    assert q1.element_order(1) == 1
    assert q1.element_order(4) == 2
    for x in range(2, 17):
        if x != 4:
            assert q1.element_order(x) == 4
    q2 = catalog.builtin("Q2").table
    assert [q2.element_order(x) for x in q2.elements] == [1, 2, 2, 2, 2, 2, 4, 4]


def test_element_order_is_the_first_left_power_equal_to_1(nonflex5):
    tables = [catalog.builtin(key).table for key in catalog.catalog_keys()] + [nonflex5]
    for t in tables:
        for x in t.elements:
            k, power = 1, x
            while power != 1:
                power = t.mul(x, power)
                k += 1
            assert t.element_order(x) == k, (t.name, x)


def test_commutator_on_moufang_tables_detects_commuting_pairs():
    for key in ("S3", "Q8", "Q1", "M(S3,2)"):
        t = catalog.builtin(key).table
        for x in t.elements:
            for y in t.elements:
                commutes = t.mul(x, y) == t.mul(y, x)
                assert (t.commutators()[x - 1][y - 1] == 1) == commutes


def test_commutator_values_on_q1():
    t = catalog.builtin("Q1").table
    values = {t.commutators()[x - 1][y - 1] for x in t.elements for y in t.elements}
    assert values == {1, 4}
    assert t.commutators()[8 - 1][9 - 1] == 4


def test_associator_trivial_iff_triple_associates():
    for rows in (Z3_ROWS, AMBIG5):
        t = LoopTable(rows)
        for x in t.elements:
            for y in t.elements:
                for z in t.elements:
                    associates = t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
                    assert (t.associator(x, y, z) == 1) == associates


def test_associator_values_on_q1():
    t = catalog.builtin("Q1").table
    values = {t.associator(x, y, z) for x in t.elements for y in t.elements for z in t.elements}
    assert values == {1, 4}


def _word_tables_by_hand(t):
    """Associators and commutators from the rows alone, divisions by search."""
    rows = t.rows
    rng = range(1, t.order + 1)

    def mul(x, y):
        return rows[x - 1][y - 1]

    def ldiv(x, y):
        return rows[x - 1].index(y) + 1

    assoc = [[[ldiv(mul(x, mul(y, z)), mul(mul(x, y), z)) for z in rng] for y in rng] for x in rng]
    comm = [[mul(mul(mul(ldiv(x, 1), ldiv(y, 1)), x), y) for y in rng] for x in rng]
    return assoc, comm


@pytest.mark.parametrize("key", catalog.catalog_keys() + ("M(D16,2)",))
def test_word_tables_match_a_plain_loop_over_the_rows(key):
    if key == "M(D16,2)":
        t = catalog.make_chein(catalog.make_dihedral(16))
    else:
        t = catalog.builtin(key).table
    assoc, comm = _word_tables_by_hand(t)
    rng = t.elements
    assert [[[t.associator(x, y, z) for z in rng] for y in rng] for x in rng] == assoc
    assert [list(row) for row in t.commutators()] == comm
    assert t.commutators() is t.commutators()


def test_public_words_check_their_arguments():
    t = catalog.builtin("Q2").table
    for bad in (0, t.order + 1):
        with pytest.raises(ValueError):
            t.associator(bad, 2, 3)
        with pytest.raises(ValueError):
            t.associator(2, 3, bad)


def test_moufang_flags():
    q1 = catalog.builtin("Q1").table
    flags = q1.moufang_report()
    assert (flags.left, flags.right, flags.middle) == (True, True, True)
    assert flags.holds
    assert q1.is_moufang()

    q2 = catalog.builtin("Q2").table
    flags = q2.moufang_report()
    assert (flags.left, flags.right, flags.middle) == (False, False, False)
    assert not q2.is_moufang()

    s3 = catalog.builtin("S3").table
    assert s3.moufang_report().holds


def _moufang_by_triples(t):
    """Reference for moufang_report: each identity over all n**3 triples,
    one product at a time."""
    rows = t.rows
    rng = range(t.order)

    def mul(x, y):
        return rows[x][y] - 1

    left = all(mul(mul(mul(x, y), x), z) == mul(x, mul(y, mul(x, z)))
               for x in rng for y in rng for z in rng)
    right = all(mul(mul(mul(x, y), z), y) == mul(x, mul(y, mul(z, y)))
                for x in rng for y in rng for z in rng)
    middle = all(mul(mul(x, y), mul(z, x)) == mul(mul(x, mul(y, z)), x)
                 for x in rng for y in rng for z in rng)
    return left, right, middle


def _reduced_latin_squares(n):
    """Every loop table on 1..n with identity 1: the Latin squares whose
    first row and column are 1..n."""
    rows = [list(range(1, n + 1))] + [[x] + [0] * (n - 1) for x in range(2, n + 1)]
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield LoopTable([list(r) for r in rows])
            return
        x, y = cells[k]
        used = set(rows[x][:y]) | {rows[i][y] for i in range(x)}
        for v in range(1, n + 1):
            if v not in used:
                rows[x][y] = v
                yield from fill(k + 1)
        rows[x][y] = 0

    return list(fill(0))


def test_moufang_flags_match_the_triple_loops(nonflex5, relabeled_chein):
    squares = _reduced_latin_squares(5)
    assert len(squares) == 56
    tables = [catalog.builtin(key).table for key in catalog.catalog_keys()]
    tables += [nonflex5, relabeled_chein("D24")] + squares
    failing = set()
    for t in tables:
        flags = t.moufang_report()
        assert (flags.left, flags.right, flags.middle) == _moufang_by_triples(t), t.rows
        failing.update(i for i, ok in enumerate(flags) if not ok)
    assert failing == {0, 1, 2}
    # Z5 is the only Moufang loop of order 5: its 4!/4 labelings with identity 1
    assert sum(t.is_moufang() for t in squares) == sum(t.is_associative() for t in squares) == 6


def test_global_flags():
    q1 = catalog.builtin("Q1").table
    q2 = catalog.builtin("Q2").table
    s3 = catalog.builtin("S3").table
    z6 = catalog.make_cyclic(6)
    assert not q1.is_associative() and not q1.is_commutative()
    assert not q2.is_associative() and not q2.is_commutative()
    assert s3.is_associative() and not s3.is_commutative()
    assert z6.is_associative() and z6.is_commutative()
    assert q1.is_diassociative()
    assert not q2.is_diassociative()
    assert catalog.builtin("M(S3,2)").table.is_diassociative()


def test_relabel_identity_permutation_is_noop():
    assert relabel(Z3_ROWS, (1, 2, 3)) == [list(r) for r in Z3_ROWS]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_relabeled_cyclic_tables_normalize_back_to_loops(n, data):
    perm = data.draw(st.permutations(list(range(1, n + 1))))
    raw = relabel([list(r) for r in catalog.make_cyclic(n).rows], tuple(perm))
    report = validate(raw)
    assert report.is_loop
    assert report.identity_index == perm[0]
    t = LoopTable(raw, normalize=True)
    for x in t.elements:
        assert t.mul(1, x) == x
        assert t.mul(x, 1) == x
