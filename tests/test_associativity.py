"""Every associativity reader against a plain loop over all triples.

is_associative, Subloop.is_group, the three nuclei, associator_subloop
and associator(x, y, z) all read the one bracketing comparison
(innermaps.bracketings); each is checked here against associators
computed triple by triple from the rows.
"""

from __future__ import annotations

import tracemalloc

import pytest

from loopsmith import catalog
from loopsmith import subloops as sl
from loopsmith.innermaps import bracketings, column_bytes, product_bytes
from loopsmith.subloops import (
    Subloop,
    associator_subloop,
    center,
    commutant,
    nucleus,
    nucleus_left,
    nucleus_middle,
    nucleus_right,
    three_generated,
)
from loopsmith.table import LoopTable


def _plain_associators(t):
    """(x, y, z) -> (x*(y*z)) \\ ((x*y)*z), over every triple, with the
    left division read off a dict of the rows."""
    rows = t.rows
    ld = {(x, rows[x - 1][y - 1]): y for x in t.elements for y in t.elements}

    def mul(x, y):
        return rows[x - 1][y - 1]

    return {(x, y, z): ld[mul(x, mul(y, z)), mul(mul(x, y), z)]
            for x in t.elements for y in t.elements for z in t.elements}


def _plain_closure(t, seed):
    rows = t.rows
    members = {1, *seed}
    while True:
        new = {rows[a - 1][b - 1] for a in members for b in members} - members
        if not new:
            return members
        members |= new


def _check_readers(t):
    assoc = _plain_associators(t)
    trivial = {xyz for xyz, v in assoc.items() if v == 1}
    rng = t.elements
    assert nucleus_left(t).elements == tuple(a for a in rng if all((a, x, y) in trivial for x in rng for y in rng))
    assert nucleus_middle(t).elements == tuple(a for a in rng if all((x, a, y) in trivial for x in rng for y in rng))
    assert nucleus_right(t).elements == tuple(a for a in rng if all((x, y, a) in trivial for x in rng for y in rng))
    assert t.is_associative() == (len(trivial) == len(assoc))
    assert associator_subloop(t).elements == tuple(sorted(_plain_closure(t, assoc.values())))
    assert all(t.associator(x, y, z) == v for (x, y, z), v in assoc.items())
    for H in three_generated(t):
        expected = all((a, b, c) in trivial for a in H for b in H for c in H)
        assert Subloop(t, H).is_group == expected, H


@pytest.mark.parametrize("key", catalog.catalog_keys())
def test_readers_match_a_plain_loop_on_the_catalog(key):
    _check_readers(catalog.builtin(key).table)


@pytest.mark.parametrize("group", ("D16", "D24"))
def test_readers_match_a_plain_loop_on_relabeled_chein_loops(group, relabeled_chein):
    _check_readers(relabeled_chein(group))


def test_readers_match_a_plain_loop_on_random_loops(random_loops):
    """The random loops are not Moufang, so nothing forces their three
    nuclei to agree; each is checked on its own."""
    for t in random_loops:
        _check_readers(t)


def test_readers_match_a_plain_loop_where_the_three_nuclei_differ():
    t = LoopTable([[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 5, 1, 6, 2, 4],
                   [4, 6, 2, 5, 1, 3], [5, 4, 6, 1, 3, 2], [6, 3, 5, 2, 4, 1]])
    assert (nucleus_left(t).elements, nucleus_middle(t).elements, nucleus_right(t).elements) \
        == ((1, 2), (1, 3), (1, 6))
    opposite = LoopTable([list(c) for c in zip(*t.rows)])
    for loop in (t, opposite):
        _check_readers(loop)


def test_bracketings_read_both_sides(q2):
    over = bytes(range(q2.order))
    rows, cols = product_bytes(q2).rows, column_bytes(q2).rows
    mul = q2.mul
    for x in q2.elements:
        for y in q2.elements:
            p, q = bracketings(rows, x - 1, y - 1, over)
            assert [c + 1 for c in p] == [mul(x, mul(y, z)) for z in q2.elements]
            assert [c + 1 for c in q] == [mul(mul(x, y), z) for z in q2.elements]
            p, q = bracketings(cols, x - 1, y - 1, over)
            assert [c + 1 for c in p] == [mul(mul(z, y), x) for z in q2.elements]
            assert [c + 1 for c in q] == [mul(z, mul(y, x)) for z in q2.elements]


def test_group_at_the_order_cap_holds_no_cubic_table(z256):
    t = LoopTable(z256.rows)  # a fresh memo, whatever other tests read from the fixture
    everything = tuple(t.elements)
    tracemalloc.start()
    try:
        assert nucleus_left(t).elements == everything
        assert nucleus_middle(t).elements == everything
        assert nucleus_right(t).elements == everything
        assert nucleus(t).elements == everything
        assert t.is_associative() and t.is_diassociative()
        assert associator_subloop(t).elements == (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak


def test_the_association_readers_share_one_pass_over_the_pairs(monkeypatch, q1):
    t = LoopTable(q1.rows)  # a fresh memo, whatever other tests read from the fixture
    readers = (nucleus_left, nucleus_middle, nucleus_right, nucleus, center, associator_subloop)
    expected = [reader(q1).elements for reader in readers]
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return bracketings(*args)

    monkeypatch.setattr(sl, "bracketings", counted)
    assert not t.is_associative()
    assert [reader(t).elements for reader in readers] == expected
    assert len(calls) == len(set(calls)) == t.order ** 2


@pytest.mark.parametrize("key", ["Z16", "D16", "Q8"])
def test_groups_answer_diassociativity_and_the_nucleus_without_a_scan(monkeypatch, key):
    """In a group every subloop is a subgroup and every element lies in
    all three nuclei, so once is_associative holds no question below
    compares a bracketing, and only the associator subloop closes a set:
    the closure of no element."""
    t = LoopTable(catalog.builtin(key).table.rows)
    assert t.is_associative()

    def refuse(*args, **kwargs):
        raise AssertionError("a group was scanned")

    def close_nothing(L, seed, *rest):
        if seed:
            refuse()
        return close(L, seed, *rest)

    close = sl._close
    monkeypatch.setattr(sl, "bracketings", refuse)
    monkeypatch.setattr(sl, "_close", close_nothing)
    assert t.is_diassociative()
    everything = tuple(t.elements)
    for reader in (nucleus_left, nucleus_middle, nucleus_right, nucleus):
        assert reader(t).elements == everything, reader.__name__
    assert center(t).elements == tuple(sorted(commutant(t)))
    assert associator_subloop(t).elements == (1,)
