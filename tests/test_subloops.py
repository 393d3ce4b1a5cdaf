"""Subloop machinery: closures, nuclei, quotients, Sylow and Hall searches."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from loopsmith import catalog, closure
from loopsmith import subloops as sl
from loopsmith.cli import analyze_table
from loopsmith.subloops import (
    Subloop,
    SubloopSearch,
    _close,
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
    three_generated,
    three_generated_tables,
    two_generated,
)
from loopsmith.innermaps import inner_maps, noncommuting
from loopsmith.table import InternalCheckError, LoopTable, QuotientError, _commuting, relabel


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


@pytest.mark.parametrize("key", ["Q1", "Q2", "M(S3,2)", "D12"])
def test_three_generated_tables_share_one_table_per_set_of_rows(key, monkeypatch):
    """One pair per three-generated set, its table the restriction; equal
    rows give the same table, built once, the whole loop gives the loop
    itself, and the tuple is built once per table."""
    t = LoopTable(catalog.builtin(key).table.rows)
    built = []

    def counted(rows):
        built.append(rows)
        return LoopTable(rows)

    monkeypatch.setattr(sl, "LoopTable", counted)
    pairs = three_generated_tables(t)
    monkeypatch.undo()
    assert len(built) == len({sub.rows for _, sub in pairs if sub is not t})
    assert [elements for elements, _ in pairs] == list(three_generated(t))
    by_rows = {}
    for elements, sub in pairs:
        assert sub == restriction(t, elements)[0]
        assert by_rows.setdefault(sub.rows, sub) is sub
        assert (sub is t) == (len(elements) == t.order)
    assert len(by_rows) < len(pairs)
    assert three_generated_tables(t) is pairs
    assert center(t) is center(t) and commutator_subloop(t) is commutator_subloop(t)


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
    assert commutant(q1) == frozenset({1, 4})
    assert commutant(q2) == frozenset({1, 2})
    assert commutant(s3) == frozenset({1})
    assert commutant(z6) == frozenset(range(1, 7))
    assert center(q1).elements == (1, 4)
    assert center(q2).elements == (1, 2)
    assert center(s3).elements == (1,)
    assert center(z6).elements == tuple(range(1, 7))


def test_is_normal(q1, s3):
    a = associator_subloop(q1)
    assert is_normal(q1, a)
    rotations = [x for x in s3.elements if s3.element_order(x) == 3]
    a3 = generate_subloop(s3, rotations[:1])
    assert len(a3) == 3
    assert is_normal(s3, a3)
    flips = [x for x in s3.elements if s3.element_order(x) == 2]
    h2 = generate_subloop(s3, flips[:1])
    assert len(h2) == 2
    assert not is_normal(s3, h2)


def _reference_is_normal(L, H):
    """The pointwise check that is_normal made before it read the byte
    inner maps: z -> (x*y) \\ (x*(y*z)), z -> ((z*x)*y) / (x*y) and
    z -> x \\ (z*x) keep H inside H for all x, y."""
    rows, ld, rd = L.rows, L._ld, L._rd
    hset = set(H.elements)
    n = L.order
    for x in range(1, n + 1):
        rx = rows[x - 1]
        for h in hset:
            if ld[x - 1][rows[h - 1][x - 1] - 1] not in hset:
                return False
        for y in range(1, n + 1):
            xy = rx[y - 1]
            ry = rows[y - 1]
            for h in hset:
                if ld[xy - 1][rx[ry[h - 1] - 1] - 1] not in hset:
                    return False
                if rd[xy - 1][rows[rows[h - 1][x - 1] - 1][y - 1] - 1] not in hset:
                    return False
    return True


def test_is_normal_matches_the_pointwise_check(reference_loops, random_loops):
    outcomes = {True: 0, False: 0}
    for L in reference_loops:
        for elements in three_generated(L):
            H = Subloop(L, elements)
            expected = _reference_is_normal(L, H)
            assert is_normal(L, H) == expected, (L.name, elements)
            if L in random_loops:
                outcomes[expected] += 1
    assert outcomes == {True: 40, False: 44}


def test_is_normal_needs_every_family():
    """A central extension of Z4 by Z2 whose subloops {1, 3} and {1, 7}
    are kept by every r and t map but moved by some l map; in the
    opposite loop some r map moves them and every l and t map keeps them.
    A check that skips either two-parameter family calls them normal."""
    rows = [(1, 2, 3, 4, 5, 6, 7, 8), (2, 3, 8, 1, 6, 7, 4, 5), (3, 8, 1, 6, 7, 4, 5, 2),
            (4, 5, 6, 7, 8, 1, 2, 3), (5, 6, 7, 8, 1, 2, 3, 4), (6, 7, 4, 5, 2, 3, 8, 1),
            (7, 4, 5, 2, 3, 8, 1, 6), (8, 1, 2, 3, 4, 5, 6, 7)]
    loop = LoopTable(rows)
    opposite = LoopTable([list(c) for c in zip(*rows)])
    for L, moving in ((loop, "l"), (opposite, "r")):
        for g in (3, 7):
            H = generate_subloop(L, (g,))
            assert H.elements == (1, g)
            over = bytes(h - 1 for h in H.elements)
            kept = {family: not any(p.translate(None, over) for _, _, _, p in inner_maps(L, over, family))
                    for family in "lrt"}
            assert kept == {family: family != moving for family in "lrt"}, (moving, g)
            assert not is_normal(L, H)
            assert not _reference_is_normal(L, H)
            with pytest.raises(QuotientError):
                quotient(L, H)


def test_commutation_readers_match_a_plain_pair_loop(random_loops):
    catalog_tables = [catalog.builtin(key).table for key in catalog.catalog_keys()]
    opposites = [LoopTable([list(c) for c in zip(*t.rows)]) for t in random_loops]
    outcomes = set()
    for t in (*catalog_tables, *random_loops, *opposites):
        counts = tuple(sum(t.mul(x, y) == t.mul(y, x) for y in t.elements) for x in t.elements)
        members = frozenset(x for x in t.elements if all(t.mul(x, y) == t.mul(y, x) for y in t.elements))
        commutative = all(t.mul(x, y) == t.mul(y, x) for x in t.elements for y in t.elements)
        mask = sum(1 << (x - 1) * t.order + (y - 1)
                   for x in t.elements for y in t.elements if t.mul(x, y) != t.mul(y, x))
        assert noncommuting(t) == mask
        assert _commuting(t) == counts
        assert commutant(t) == members
        assert t.is_commutative() == commutative
        outcomes.add(commutative)
    assert outcomes == {True, False}


def _reference_quotient_error(L, H):
    """The QuotientError message of the partition and pointwise
    representative checks that quotient made before its byte comparison,
    or None when both pass."""
    rows = L.rows
    n = L.order
    hset = sorted(set(H.elements))
    coset_of = [0] * (n + 1)
    for x in range(1, n + 1):
        if coset_of[x]:
            continue
        block = sorted(rows[x - 1][h - 1] for h in hset)
        if x not in block:
            return "coset of %d does not contain it: %r" % (x, block)
        for y in block:
            if coset_of[y]:
                return "cosets overlap: %d lies in the blocks of %d and %d" % (y, coset_of[y], x)
        for y in block:
            coset_of[y] = block[0]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ra, rb = coset_of[a], coset_of[b]
            if coset_of[rows[a - 1][b - 1]] != coset_of[rows[ra - 1][rb - 1]]:
                return "coset product ill defined: (%d,%d) vs representatives (%d,%d)" % (a, b, ra, rb)
    return None


def test_quotient_names_the_pair_of_the_pointwise_check(reference_loops):
    ill_defined = 0
    for L in reference_loops:
        for elements in three_generated(L):
            H = Subloop(L, elements)
            if is_normal(L, H):
                continue
            try:
                quotient(L, H)
                got = None
            except QuotientError as e:
                got = str(e)
            assert got == _reference_quotient_error(L, H), (L.name, elements)
            ill_defined += got is not None and got.startswith("coset product")
    assert ill_defined > 0


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
    flips = [x for x in s3.elements if s3.element_order(x) == 2]
    h2 = generate_subloop(s3, flips[:1])
    with pytest.raises(QuotientError):
        quotient(s3, h2)


def test_sylow_on_q1(q1):
    r2 = sylow_subloop(q1, 2)
    assert r2.subloop is not None
    assert r2.target == 16
    assert r2.subloop.elements == tuple(range(1, 17))
    r3 = sylow_subloop(q1, 3)
    assert r3.subloop is not None
    assert r3.target == 1
    assert r3.subloop.elements == (1,)


def test_sylow_on_chein_loop(chein12):
    r2 = sylow_subloop(chein12, 2)
    assert r2.subloop is not None and r2.target == 4
    assert r2.subloop.elements == (1, 4, 7, 10)
    r3 = sylow_subloop(chein12, 3)
    assert r3.subloop is not None and r3.target == 3
    assert r3.subloop.elements == (1, 2, 3)


def test_sylow_on_s3(s3):
    r2 = sylow_subloop(s3, 2)
    assert r2.target == 2 and len(r2.subloop) == 2
    r3 = sylow_subloop(s3, 3)
    assert r3.target == 3 and len(r3.subloop) == 3


def _p_part(n, p):
    return p * _p_part(n // p, p) if n % p == 0 else 1


def _sylow_by_seed_closures(L, p):
    """The elements of the first subloop of the exact p-part order among
    the closure of all p-elements, then the closures of one, two and
    three p-elements in combination order; None when there is none."""
    target = _p_part(L.order, p)
    pelems = [x for x in L.elements if _p_part(L.element_order(x), p) == L.element_order(x)]
    seeds = [pelems] + [seed for size in (1, 2, 3) for seed in combinations(pelems, size)]
    for seed in seeds:
        elements = tuple(sorted(_close(L, seed)))
        if len(elements) == target:
            return elements
    return None


SYLOW_INPUTS = tuple(catalog.catalog_keys()) + ("M(D8,2)", "M(D10,2)", "M(D12,2)", "M(D16,2)", "M(Q8,2)")


@pytest.mark.parametrize("key", SYLOW_INPUTS)
def test_sylow_subloop_matches_the_seed_closures(key, chein):
    """The first closure of p-elements of the target order is the first
    lattice set of that order made of p-elements, on the catalog and on
    M(G,2) for the five groups G; at p = 2 the fallback runs on D6, D10,
    D12, D14, S3, M(S3,2), M(D10,2) and M(D12,2)."""
    L = catalog.builtin(key).table if key in catalog.catalog_keys() else chein(key[2:-3])
    for p in (2, 3):
        r = sylow_subloop(L, p)
        assert r.target == _p_part(L.order, p)
        got = None if r.subloop is None else r.subloop.elements
        assert got == _sylow_by_seed_closures(L, p), (key, p)


def test_sylow_subloop_closes_once_when_the_closure_of_p_elements_misses(chein, monkeypatch):
    L = chein("D12")
    calls = []

    def counted(L, seed):
        calls.append(seed)
        return generate_subloop(L, seed)

    monkeypatch.setattr(sl, "generate_subloop", counted)
    r = sylow_subloop(L, 2)
    assert len(calls) == 1
    assert r.target == 8 and len(r.subloop) == 8 and is_closed(L, r.subloop.elements)


def test_is_closed_needs_the_identity(q1):
    assert is_closed(q1, (1, 4))
    assert not is_closed(q1, (4,))


def test_sylow_subloop_refuses_a_non_prime(q1):
    with pytest.raises(ValueError, match="p must be prime, got 4"):
        sylow_subloop(q1, 4)


def test_sylow_subloop_reports_a_missing_subloop():
    """A loop of order 5 with elements of orders 2 and 3 (2*2 = 1; not
    Moufang) has no subloop of order 5 made of 5-elements: only 1 is one."""
    L = LoopTable([[1, 2, 3, 4, 5], [2, 1, 4, 5, 3], [3, 4, 5, 2, 1], [4, 5, 1, 3, 2], [5, 3, 2, 1, 4]])
    assert not L.is_moufang() and L.mul(2, 2) == 1
    assert sylow_subloop(L, 5) == SubloopSearch(None, 5)


def test_hall_3prime_on_z12():
    z12 = catalog.make_cyclic(12)
    r = hall_3prime_subgroup(z12)
    assert r.target == 4
    assert r.subloop is not None
    assert r.subloop.elements == (1, 4, 7, 10)
    assert set(r.subloop.elements) <= set(nucleus(z12).elements)
    assert r.subloop.is_group


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
    assert not set(r.subloop.elements) <= set(nucleus(q1).elements)
    assert not r.subloop.is_group


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


# -- the small-generated lattice --------------------------------------


def _closures_of_combinations(t, sizes):
    """Reference for the lattice: the distinct closures of every
    combination of non-identity elements of the given sizes, sorted."""
    elems = [x for x in t.elements if x != 1]
    return tuple(sorted({tuple(sorted(_close(t, seed)))
                         for size in sizes for seed in combinations(elems, size)}))


@pytest.fixture(scope="module")
def chein32():
    return catalog.make_chein(catalog.make_dihedral(16))


@pytest.mark.parametrize("key", catalog.catalog_keys())
def test_three_generated_matches_closing_every_combination(key):
    t = catalog.builtin(key).table
    assert three_generated(t) == _closures_of_combinations(t, (1, 2, 3))


def test_two_generated_matches_closing_every_pair(q1, q2, chein12, chein32, relabeled_chein):
    for t in (q1, q2, chein12, chein32, relabeled_chein("D24")):
        assert two_generated(t) == _closures_of_combinations(t, (1, 2)), t


def test_diassociativity_of_q2_and_chein32(q2, chein32):
    assert chein32.order == 32
    assert not q2.is_diassociative()
    assert chein32.is_diassociative()


def _lattice_diassociative(t):
    """Reference: every subloop of the two-generated lattice is a group."""
    return all(Subloop(t, H).is_group for H in two_generated(t))


def test_pair_cover_matches_the_two_generated_lattice(reference_loops):
    opposites = tuple(LoopTable([list(c) for c in zip(*t.rows)]) for t in reference_loops)
    verdicts = Counter()
    for t in reference_loops + opposites:
        expected = _lattice_diassociative(t)
        assert t.is_diassociative() == expected, t
        verdicts[expected] += 1
    # 28 loops and their opposites are diassociative: 24 groups and M(S3,2),
    # Q1 and the two Chein loops, which are Moufang; Q2 and the 40 random
    # loops are not, nor are their opposites
    assert verdicts == {True: 56, False: 82}


def test_pair_cover_closes_fewer_sets_than_the_lattice(monkeypatch, relabeled_chein):
    rows = relabeled_chein("D24").rows
    calls = []

    def counting(L, seed, closed=(1,)):
        calls.append(seed)
        return _close(L, seed, closed)

    # the pair cover closes through closure's binding, the lattice through subloops'
    for module in (closure, sl):
        monkeypatch.setattr(module, "_close", counting)
    assert LoopTable(rows).is_diassociative()
    cover = len(calls)
    two_generated(LoopTable(rows))
    lattice = len(calls) - cover
    # 149 closures against the lattice's 801
    assert cover < 160 < 801 == lattice, (cover, lattice)


def test_each_lattice_set_is_rechecked_once(monkeypatch):
    t = catalog.make_chein(catalog.make_symmetric3())
    checked = []

    def counting(L, elements):
        checked.append(tuple(elements))
        return is_closed(L, elements)

    # the lattice checks through closure._make_subloop, restriction through subloops
    for module in (closure, sl):
        monkeypatch.setattr(module, "is_closed", counting)
    sets = three_generated(t)
    assert sorted(checked) == list(sets)
    three_generated(t)
    three_generated_tables(t)
    assert len(checked) == len(sets)


def test_lattice_raises_when_a_closure_fails_its_recheck(monkeypatch):
    monkeypatch.setattr(closure, "is_closed", lambda L, elements: False)
    with pytest.raises(InternalCheckError):
        two_generated(catalog.make_cyclic(4))


def _plain_closure(t, seed):
    """Reference closure: add every product of members until none is new."""
    rows = t.rows
    members = {1, *seed}
    while True:
        new = {rows[a - 1][b - 1] for a in members for b in members} - members
        if not new:
            return members
        members |= new


def test_closing_from_a_closed_base_matches_closing_from_scratch(q1, chein, random_loops):
    """The random loops and their opposites (the transposed tables) are
    where a closure that forms only a*b, or only b*a, for a queued a
    misses elements."""
    opposites = [LoopTable([list(c) for c in zip(*t.rows)]) for t in random_loops]
    for t in (q1, chein("D16"), *random_loops, *opposites):
        for H in three_generated(t):
            for g in t.elements:
                assert _close(t, (g,), H) == _plain_closure(t, (*H, g)), (H, g)


def test_lattice_closes_once_per_orbit(monkeypatch):
    t = catalog.make_chein(catalog.make_dihedral(24))
    calls = []

    def counting(L, seed, closed=(1,)):
        calls.append(seed)
        return _close(L, seed, closed)

    monkeypatch.setattr(sl, "_close", counting)
    two_generated(t)
    two = len(calls)
    three_generated(t)
    three = len(calls) - two
    # closing every element outside each set took 1963 and 10149 closures;
    # one closure per orbit takes 801 and 1862
    assert two < 1963 / 2 and three < 10149 / 2, (two, three)


def test_is_group_matches_an_all_triples_check(q1, q2, relabeled_chein):
    def associates(t, H):
        rows = t.rows
        return all(rows[rows[a - 1][b - 1] - 1][c - 1] == rows[a - 1][rows[b - 1][c - 1] - 1]
                   for a in H for b in H for c in H)

    m16 = relabeled_chein("D16")
    cases = [(q2, H) for H in two_generated(q2)] + [(m16, H) for H in two_generated(m16)]
    cases += [(t, tuple(t.elements)) for t in (q1, q2)] + [(q1, H) for H in three_generated(q1)]
    outcomes = set()
    for t, H in cases:
        expected = associates(t, H)
        assert Subloop(t, H).is_group == expected, H
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("key", catalog.catalog_keys() + ("M(D16,2)", "M(D24,2)"))
def test_relabeling_keeps_subloop_structure(key, chein):
    t = chein(key[2:-3]) if key in ("M(D16,2)", "M(D24,2)") else catalog.builtin(key).table
    rest = list(range(2, t.order + 1))
    random.Random("relabel-" + key).shuffle(rest)
    copy = LoopTable(relabel(t.rows, [1] + rest))

    def invariants(table):
        report = analyze_table(table, max_half_order=0)
        return (report["subloop_orders"], report["nilpotency_class"], table.is_diassociative(),
                sorted(len(H) for H in three_generated(table)))

    assert invariants(copy) == invariants(t)
