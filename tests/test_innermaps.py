"""Permutation helpers and inner mappings."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsmith import catalog
from loopsmith import innermaps as im
from loopsmith import subloops as sl
from loopsmith.innermaps import (
    cycles_str,
    inner_l,
    inner_r,
    inner_t,
    inner_map_witness,
    is_automorphic,
    is_automorphism,
    is_left_automorphic,
    perm_from_cycles,
)


def test_perm_from_cycles():
    assert perm_from_cycles(5, []) == (1, 2, 3, 4, 5)
    assert perm_from_cycles(5, [(2, 4)]) == (1, 4, 3, 2, 5)
    assert perm_from_cycles(4, [(1, 2, 3)]) == (2, 3, 1, 4)
    with pytest.raises(ValueError, match="out of range"):
        perm_from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError, match="not disjoint"):
        perm_from_cycles(4, [(1, 2), (2, 3)])


def test_cycles_str():
    assert cycles_str((1, 2, 3)) == "()"
    assert cycles_str(perm_from_cycles(16, [(5, 8)])) == "(5,8)"
    assert cycles_str(perm_from_cycles(8, [(3, 5), (4, 6), (7, 8)])) == "(3,5)(4,6)(7,8)"
    assert cycles_str((2, 3, 1, 5, 4)) == "(1,2,3)(4,5)"


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=8))
def test_cycles_str_least_elements_ascend(data, n):
    p = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    text = cycles_str(p)
    if text == "()":
        assert p == tuple(range(1, n + 1))
    else:
        leads = [int(part.split(",")[0]) for part in text[1:-1].split(")(")]
        assert leads == sorted(leads)


def test_inner_maps_fix_identity(q1, q2):
    for t in (q1, q2):
        for x in t.elements:
            assert inner_t(t, x)[0] == 1
            for y in t.elements:
                assert inner_l(t, x, y)[0] == 1
                assert inner_r(t, x, y)[0] == 1


def test_is_automorphism_basics(q1):
    assert is_automorphism(q1, tuple(range(1, 17)))
    assert not is_automorphism(q1, perm_from_cycles(16, [(5, 8)]))
    with pytest.raises(ValueError, match="degree"):
        is_automorphism(q1, tuple(range(1, 5)))
    for p in ((1,) * 16, (1, 1, *range(3, 17)), (*range(1, 16), 17)):
        with pytest.raises(ValueError, match="images are not a bijection on 1..16"):
            is_automorphism(q1, p)


def _preserves_products(L, p):
    """Pair-by-pair reference: p(x*y) = p(x)*p(y) for all x, y."""
    rows, rng = L.rows, range(L.order)
    return all(p[rows[x][y] - 1] == rows[p[x] - 1][p[y] - 1] for x in rng for y in rng)


def test_is_automorphism_matches_a_pairwise_check(nonflex5, q1, chein12, z256):
    z1 = catalog.make_cyclic(1)
    cases = [(z1, (1,))] + [(nonflex5, (1, *rest)) for rest in permutations(range(2, 6))]
    # at the order cap: x -> 3x is an automorphism, a transposition fixing 1 is not
    cases += [(z256, tuple(3 * x % 256 + 1 for x in range(256))),
              (z256, perm_from_cycles(256, [(2, 3)]))]
    rng = random.Random(11)
    for L in (q1, chein12):
        n = L.order
        cases += [(L, tuple(rng.sample(L.elements, n))) for _ in range(5)]
        cases += [(L, (1, *rng.sample(L.elements[1:], n - 1))) for _ in range(5)]
        cases += [(L, inner_l(L, 2, y)) for y in L.elements] + [(L, inner_t(L, x)) for x in L.elements]
    outcomes = {}
    for L, p in cases:
        expected = _preserves_products(L, p)
        assert is_automorphism(L, p) == expected, (L.order, p)
        outcomes.setdefault(L.order, set()).add(expected)
    assert outcomes == {1: {True}, 5: {True, False}, 12: {True, False}, 16: {True, False},
                        256: {True, False}}


def test_groups_are_automorphic(s3):
    assert is_automorphic(s3)
    assert is_left_automorphic(s3)
    assert inner_map_witness(s3) is None


def test_q1_left_automorphic_but_not_automorphic(q1):
    assert is_left_automorphic(q1)
    assert not is_automorphic(q1)
    family, x, y, perm = inner_map_witness(q1)
    assert (family, x, y) == ("t", 2, None)
    assert cycles_str(perm) == "(3,7)(5,8)(9,12)(10,14)(11,15)(13,16)"


def test_q2_is_automorphic(q2):
    assert is_automorphic(q2)
    assert is_left_automorphic(q2)


def test_chein_loop_fails_left_family(chein12):
    assert not is_left_automorphic(chein12)
    assert not is_automorphic(chein12)
    family, x, y, perm = inner_map_witness(chein12)
    assert (family, x, y) == ("l", 2, 4)
    assert cycles_str(perm) == "(7,8,9)(10,12,11)"


def _left_family_is_automorphic(t):
    """Every z -> (x*y) \\ (x*(y*z)) preserves every product; rows only."""
    rows = t.rows
    n = t.order
    for x in range(n):
        for y in range(n):
            xy = rows[rows[x][y] - 1]
            p = [xy.index(rows[x][rows[y][z] - 1]) + 1 for z in range(n)]
            if any(p[rows[a][b] - 1] != rows[p[a] - 1][p[b] - 1]
                   for a in range(n) for b in range(n)):
                return False
    return True


@pytest.mark.parametrize("key", catalog.catalog_keys())
def test_left_automorphic_matches_a_left_family_scan(key):
    t = catalog.builtin(key).table
    assert is_left_automorphic(t) == _left_family_is_automorphic(t)
    witness = inner_map_witness(t)
    assert (witness is not None and witness[0] == "l") == (not is_left_automorphic(t))
    for elements in sl.three_generated(t):
        sub, _ = sl.restriction(t, elements)
        assert is_left_automorphic(sub) == _left_family_is_automorphic(sub)


def _witness_by_plain_scan(t):
    """Reference for inner_map_witness: every generator in scan order,
    each checked, repeats included."""
    n = t.order
    for family, inner in (("l", inner_l), ("r", inner_r)):
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                p = inner(t, x, y)
                if not is_automorphism(t, p):
                    return family, x, y, p
    for x in range(1, n + 1):
        p = inner_t(t, x)
        if not is_automorphism(t, p):
            return "t", x, None, p
    return None


def test_witness_scan_skips_maps_that_passed(relabeled_chein, monkeypatch, z256):
    tables = [catalog.builtin(key).table for key in catalog.catalog_keys()]
    for t in tables + [relabeled_chein("D24")]:
        assert inner_map_witness(t) == _witness_by_plain_scan(t), t.name
    calls = []
    check = im._preserves_products

    def counting(products, p):
        calls.append(p)
        return check(products, p)

    monkeypatch.setattr(im, "_preserves_products", counting)
    z64 = catalog.make_cyclic(64)
    assert inner_map_witness(z64) is None
    assert calls == [bytes(range(64))]
    calls.clear()
    assert inner_map_witness(z256) is None
    assert calls == [bytes(range(256))]


def _reference_inner_maps(L):
    """The tuple formulas that inner_l, inner_r and inner_t had before
    the byte form, read pointwise off the rows and the division tables,
    as (family, x, y, perm) in scan order."""
    rows, n = L.rows, L.order
    maps = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            rx, ry = rows[x - 1], rows[y - 1]
            ld = L._ld[rx[y - 1] - 1]
            maps.append(("l", x, y, tuple(ld[rx[ry[z] - 1] - 1] for z in range(n))))
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            rd = L._rd[rows[x - 1][y - 1] - 1]
            maps.append(("r", x, y, tuple(rd[rows[rows[z][x - 1] - 1][y - 1] - 1] for z in range(n))))
    for x in range(1, n + 1):
        ld = L._ld[x - 1]
        maps.append(("t", x, None, tuple(ld[row[x - 1] - 1] for row in L.rows)))
    return maps


def test_inner_maps_match_the_tuple_formulas(reference_loops):
    """On every three-generated subloop, as a table of its own, the byte
    generator and inner_l, inner_r and inner_t give the tuple formulas."""
    tables = 0
    for L in reference_loops:
        for elements in sl.three_generated(L):
            sub, _ = sl.restriction(L, elements)
            reference = _reference_inner_maps(sub)
            over = bytes(range(sub.order))
            assert [(f, x + 1, None if y is None else y + 1, tuple(c + 1 for c in p))
                    for f, x, y, p in im.inner_maps(sub, over)] == reference
            public = {"l": inner_l, "r": inner_r, "t": lambda t, x, y: inner_t(t, x)}
            assert [(f, x, y, public[f](sub, x, y)) for f, x, y, _ in reference] == reference
            tables += 1
    assert tables == 671
