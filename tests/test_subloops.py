"""Subloop machinery: closures, nuclei, quotients, Sylow and Hall searches."""

from __future__ import annotations

import pytest

from loopsmith import catalog
from loopsmith.errors import InternalCheckError, QuotientError
from loopsmith.subloops import (
    associator_subloop,
    center,
    commutant,
    commutative_nilpotency_class,
    commutator_subloop,
    generate_subloop,
    hall_3prime_subgroup,
    is_closed,
    is_normal,
    nucleus,
    nucleus_left,
    nucleus_middle,
    nucleus_right,
    quotient,
    restriction,
    sylow_subloop,
)


def test_generate_subloop_chain_on_q1(q1):
    assert generate_subloop(q1, (2,)).elements == (1, 2, 4, 6)
    assert generate_subloop(q1, (2, 3)).elements == tuple(range(1, 9))
    assert generate_subloop(q1, (2, 3, 9)).elements == tuple(range(1, 17))


def test_generate_subloop_on_q2(q2):
    h = generate_subloop(q2, (3,))
    assert h.elements == (1, 3)
    assert h.is_group
    assert generate_subloop(q2, (3, 4)).elements == (1, 2, 3, 4)


def test_generated_subloops_are_closed(q1):
    for seed in ((2,), (3,), (2, 3), (9,)):
        h = generate_subloop(q1, seed)
        assert 1 in h
        assert is_closed(q1, h.elements)
        assert set(seed) <= set(h.elements)


def test_restriction_round_trip(q1):
    table, old_to_new = restriction(q1, (1, 2, 4, 6))
    assert table.order == 4
    assert old_to_new == {1: 1, 2: 2, 4: 3, 6: 4}
    for a in (1, 2, 4, 6):
        for b in (1, 2, 4, 6):
            assert table.mul(old_to_new[a], old_to_new[b]) == old_to_new[q1.mul(a, b)]


def test_restriction_refuses_non_closed_sets(q1):
    with pytest.raises(InternalCheckError):
        restriction(q1, (1, 2, 3))


def test_subloop_as_table(q2):
    h = generate_subloop(q2, (3, 4))
    table, mapping = h.as_table(name="inner")
    assert table.order == 4
    assert table.name == "inner"
    assert sorted(mapping) == list(h.elements)


def test_commutator_and_associator_subloops():
    q1 = catalog.builtin("Q1").table
    q2 = catalog.builtin("Q2").table
    s3 = catalog.builtin("S3").table
    ch = catalog.builtin("M(S3,2)").table
    assert commutator_subloop(q1).elements == (1, 4)
    assert associator_subloop(q1).elements == (1, 4)
    assert commutator_subloop(q2).elements == (1, 2)
    assert associator_subloop(q2).elements == (1, 2)
    assert len(commutator_subloop(s3)) == 3
    assert associator_subloop(s3).elements == (1,)
    assert commutator_subloop(ch).elements == (1, 2, 3)
    assert associator_subloop(ch).elements == (1, 2, 3)


def test_nuclei_on_q1(q1):
    for fn in (nucleus_left, nucleus_middle, nucleus_right, nucleus):
        assert fn(q1).elements == (1, 4)


def test_nuclei_on_q2(q2):
    assert nucleus_left(q2).elements == (1, 2)
    assert nucleus_right(q2).elements == (1, 2)
    assert nucleus_middle(q2).elements == (1, 2, 5, 6)
    assert nucleus(q2).elements == (1, 2)


def test_nucleus_of_group_is_everything(s3):
    assert nucleus(s3).elements == tuple(range(1, 7))


def test_commutant_and_center():
    q1 = catalog.builtin("Q1").table
    q2 = catalog.builtin("Q2").table
    s3 = catalog.builtin("S3").table
    z6 = catalog.make_cyclic(6)
    assert commutant(q1) == (frozenset({1, 4}), True)
    assert commutant(q2) == (frozenset({1, 2}), True)
    assert commutant(s3).elements == frozenset({1})
    assert commutant(z6).elements == frozenset(range(1, 7))
    assert center(q1).elements == (1, 4)
    assert center(q2).elements == (1, 2)
    assert center(s3).elements == (1,)
    assert center(z6).elements == tuple(range(1, 7))


def test_is_normal(q1, s3):
    a = associator_subloop(q1)
    assert is_normal(q1, a)
    assert a.is_normal is True
    rotations = [x for x in s3.elements if s3.element_order(x).order == 3]
    a3 = generate_subloop(s3, rotations[:1])
    assert len(a3) == 3
    assert is_normal(s3, a3)
    flips = [x for x in s3.elements if s3.element_order(x).order == 2]
    h2 = generate_subloop(s3, flips[:1])
    assert len(h2) == 2
    assert not is_normal(s3, h2)
    assert h2.is_normal is False


def test_quotient_of_q1_by_associators(q1):
    q = quotient(q1, associator_subloop(q1))
    assert q.table.order == 8
    assert q.table.is_commutative()
    assert q.table.is_associative()
    proj = q.projection
    assert proj[0] == 1
    for x in q1.elements:
        for y in q1.elements:
            assert q.table.mul(proj[x - 1], proj[y - 1]) == proj[q1.mul(x, y) - 1]


def test_quotient_rejects_non_normal_subloop(s3):
    flips = [x for x in s3.elements if s3.element_order(x).order == 2]
    h2 = generate_subloop(s3, flips[:1])
    with pytest.raises(QuotientError):
        quotient(s3, h2)


def test_sylow_on_q1(q1):
    r2 = sylow_subloop(q1, 2)
    assert r2.exact
    assert r2.target == 16
    assert r2.subloop.elements == tuple(range(1, 17))
    r3 = sylow_subloop(q1, 3)
    assert r3.exact
    assert r3.target == 1
    assert r3.subloop.elements == (1,)


def test_sylow_on_chein_loop(chein12):
    r2 = sylow_subloop(chein12, 2)
    assert r2.exact and r2.target == 4
    assert r2.subloop.elements == (1, 4, 7, 10)
    r3 = sylow_subloop(chein12, 3)
    assert r3.exact and r3.target == 3
    assert r3.subloop.elements == (1, 2, 3)


def test_sylow_on_s3(s3):
    r2 = sylow_subloop(s3, 2)
    assert r2.exact and r2.target == 2 and len(r2.subloop) == 2
    r3 = sylow_subloop(s3, 3)
    assert r3.exact and r3.target == 3 and len(r3.subloop) == 3


def test_hall_3prime_on_z12():
    r = hall_3prime_subgroup(catalog.make_cyclic(12))
    assert r.target == 4
    assert r.subloop is not None
    assert r.subloop.elements == (1, 4, 7, 10)
    assert r.in_nucleus
    assert r.is_group


def test_hall_3prime_when_closure_overshoots(s3, chein12):
    r = hall_3prime_subgroup(s3)
    assert r.target == 2
    assert r.subloop is None
    r = hall_3prime_subgroup(chein12)
    assert r.target == 4
    assert r.subloop is None


def test_hall_3prime_on_three_prime_loops(q1):
    r = hall_3prime_subgroup(catalog.builtin("Q8").table)
    assert r.target == 8 and r.subloop is not None and len(r.subloop) == 8
    r = hall_3prime_subgroup(q1)
    assert r.target == 16
    assert r.subloop is not None and len(r.subloop) == 16
    assert not r.in_nucleus
    assert not r.is_group


def test_nilpotency_goldens():
    expected = {
        "Z2": 1, "Z6": 1, "Z16": 1,
        "D8": 2, "D16": 3, "Q8": 2,
        "D6": None, "D10": None, "D12": None, "D14": None,
        "S3": None, "M(S3,2)": None,
        "Q1": 2, "Q2": 2,
    }
    for key, want in expected.items():
        got = commutative_nilpotency_class(catalog.builtin(key).table)
        assert got == want, (key, got, want)


def test_nilpotency_max_rounds_cutoff():
    d16 = catalog.builtin("D16").table
    assert commutative_nilpotency_class(d16, max_rounds=1) is None
    assert commutative_nilpotency_class(d16, max_rounds=3) == 3
