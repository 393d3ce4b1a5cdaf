"""Identity suites: hypothesis accounting and zero-violation runs."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from loopsmith import catalog, suites
from loopsmith import subloops as sl
from loopsmith.halfmorph import (
    HalfEnumeration,
    HalfKind,
    HalfMap,
    HalfMaps,
    classify,
    coset_images,
    d_set,
    enumerate_half_automorphisms,
    half_census,
    induced_on_quotient,
    make_half_map,
    mask_pairs,
    verify_main_theorem,
    weighted_maps,
)
from loopsmith.innermaps import is_left_automorphic
from loopsmith.table import LoopTable, MoufangFlags, QuotientError, TheoremViolation, relabel
from loopsmith.suites import SuiteResult, run_theorem_suites, suite_bruck, suite_commutator_d_set

SUITE_NAMES = [
    "moufang-flag-agreement",
    "moufang-nuclei-coincide",
    "moufang-lagrange",
    "quotient-projection",
    "sylow-nucleus-factorization",
    "bruck-commutators-in-nucleus",
    "bruck-commutator-expansion",
    "bruck-nucleus-absorption",
    "bruck-cubes-in-nucleus",
    "bruck-3gen-associator-central",
    "main-theorem",
    "half-maps-form-group",
    "semi-isomorphism",
    "proper-half-witness-triples",
    "odd-order-trivial",
    "induced-quotient-trivial",
    "commutator-d-set-central",
]


@pytest.fixture(scope="module")
def mini_battery(q2, s3, chein12):
    inputs = [
        ("Z5", catalog.make_cyclic(5)),
        ("Z6", catalog.make_cyclic(6)),
        ("S3", s3),
        ("Q8", catalog.builtin("Q8").table),
        ("Q2", q2),
        ("M(S3,2)", chein12),
    ]
    results = run_theorem_suites(inputs)
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def q1_battery(q1):
    results = run_theorem_suites([("Q1", q1)])
    return {r.name: r for r in results}


def test_battery_runs_every_suite_in_order(mini_battery):
    assert list(mini_battery) == SUITE_NAMES


def test_mini_battery_is_green(mini_battery):
    for name, r in mini_battery.items():
        assert r.violations == [], name
        assert r.ok


def test_structural_suite_accounting(mini_battery):
    assert mini_battery["moufang-flag-agreement"].hypothesis_count == 6
    assert mini_battery["moufang-flag-agreement"].check_count == 18
    assert mini_battery["moufang-nuclei-coincide"].hypothesis_count == 5
    assert mini_battery["moufang-lagrange"].hypothesis_count == 5
    assert mini_battery["quotient-projection"].hypothesis_count == 12
    assert mini_battery["sylow-nucleus-factorization"].hypothesis_count == 4


def test_bruck_suite_accounting(mini_battery):
    for name in ("bruck-commutators-in-nucleus", "bruck-commutator-expansion",
                 "bruck-nucleus-absorption", "bruck-3gen-associator-central"):
        assert mini_battery[name].hypothesis_count == 4, name
    assert mini_battery["bruck-cubes-in-nucleus"].hypothesis_count == 4


def test_half_map_suite_accounting(mini_battery):
    total_maps = 4 + 2 + 12 + 48 + 16 + 216
    assert mini_battery["main-theorem"].hypothesis_count == 4
    assert mini_battery["main-theorem"].check_count == total_maps
    assert mini_battery["half-maps-form-group"].hypothesis_count == 6
    assert mini_battery["half-maps-form-group"].check_count == 2 * total_maps
    assert mini_battery["semi-isomorphism"].hypothesis_count == 5
    assert mini_battery["semi-isomorphism"].check_count == 4 + 2 + 12 + 48 + 216
    assert mini_battery["proper-half-witness-triples"].hypothesis_count == 0
    assert mini_battery["odd-order-trivial"].hypothesis_count == 1
    assert mini_battery["odd-order-trivial"].check_count == 4
    assert mini_battery["induced-quotient-trivial"].hypothesis_count > 0
    assert mini_battery["commutator-d-set-central"].hypothesis_count > 0


def test_q1_battery_is_green(q1_battery):
    for name, r in q1_battery.items():
        assert r.violations == [], name


def test_q1_battery_accounting(q1_battery):
    assert q1_battery["main-theorem"].hypothesis_count == 0
    assert q1_battery["main-theorem"].check_count == 21504
    assert q1_battery["semi-isomorphism"].check_count == 21504
    assert q1_battery["proper-half-witness-triples"].hypothesis_count == 18816
    assert q1_battery["bruck-commutator-expansion"].check_count == 16 ** 3
    assert q1_battery["bruck-cubes-in-nucleus"].hypothesis_count == 0
    assert q1_battery["induced-quotient-trivial"].hypothesis_count == 21504
    assert q1_battery["commutator-d-set-central"].hypothesis_count == 21687
    assert q1_battery["commutator-d-set-central"].check_count == 4232484


def _searched(L):
    """The number of maps that the search of L found directly."""
    return sum(len(maps) for maps, _ in enumerate_half_automorphisms(L).maps.entries)


@pytest.mark.parametrize("key, semi, cosets", [("Q2", 0, 7), ("M(S3,2)", 2, 9)], ids=["Q2", "M(S3,2)"])
def test_per_map_work_runs_once_per_searched_map(monkeypatch, key, semi, cosets):
    """Counters repeat exactly, so per-map work that comes back shows here.
    The sandwich law is checked once per searched map of a Moufang loop.
    Coset images are computed once per searched map of each table that
    the two quotient suites read: the loop, and the 3-generated subloops
    that the commutator suite reads, where restrictions with equal rows
    are one table (three_generated_tables) and the loop's own rows are
    the loop.  On these inputs every searched map carries the associator
    subloop onto itself.  The table is a fresh copy, since the per-map
    values are kept in its memo."""
    t = LoopTable(catalog.builtin(key).table.rows, name=key)
    calls = Counter()
    for fname in ("is_semi_isomorphism", "coset_images"):
        def counted(*args, _fn=getattr(suites, fname), _name=fname, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(suites, fname, counted)
    run_theorem_suites([(key, t)])
    assert (calls["is_semi_isomorphism"], calls["coset_images"]) == (semi, cosets)
    subs = [t if len(elements) == t.order else sl.restriction(t, elements)[0]
            for elements in sl.three_generated(t)]
    tables = {t.rows: t}
    tables.update((sub.rows, sub) for sub in subs if sub.is_moufang() and is_left_automorphic(sub))
    assert semi == (_searched(t) if t.is_moufang() else 0)
    assert cosets == sum(map(_searched, tables.values()))
    assert semi < len(enumerate_half_automorphisms(t).maps)


@pytest.mark.parametrize("key, verdict, suite, text", [
    ("M(S3,2)", "is_semi_isomorphism", "suite_semi_isomorphism", "%s: map %s breaks the sandwich law"),
    ("Q1", "find_gg_triples", "suite_gg_witness", "%s: proper map %s has no witness triple"),
    ("Q1", "coset_images", "suite_induced_quotient", "%s: %s has no well-defined quotient image"),
])
def test_a_failing_verdict_names_every_map_it_stands_for(monkeypatch, key, verdict, suite, text):
    """A verdict computed once on a searched map counts for the maps
    composed from it, so a failing one gives one violation line per map,
    each naming its own map, as a map-by-map walk does.  coset_images
    fails by raising, and a fresh table keeps _induced_kind's memo out."""
    t = LoopTable(catalog.builtin(key).table.rows, name=key)

    def failing(*args, **kwargs):
        if verdict == "coset_images":
            raise ValueError("split coset")
        return False

    monkeypatch.setattr(suites, verdict, failing)
    res = getattr(suites, suite)([(key, t)])
    maps = enumerate_half_automorphisms(t).maps
    want = [text % (key, m.cycles()) for m in maps
            if verdict != "find_gg_triples" or classify(m).kind is HalfKind.PROPER_HALF]
    assert len(want) == res.check_count > _searched(t)
    assert sorted(res.violations) == sorted(want)


def test_induced_kind_refuses_a_map_that_moves_or_splits(monkeypatch, q1):
    """HalfMap builds any bijection.  (2 4) moves A(Q1) = {1, 4}, so it is
    outside the hypothesis (None); (2 3) keeps A but sends the coset
    {2, 6} to {3, 6}, so it has no quotient image (False).  Maps outside
    the hypothesis are skipped, not counted."""
    fresh = LoopTable(q1.rows, name="Q1")
    assert sl.associator_subloop(fresh).elements == (1, 4)

    def swap(a, b):
        return tuple(b if x == a else a if x == b else x for x in fresh.elements)

    kind = suites._induced_kind(fresh)
    assert kind(HalfMap(fresh, fresh, swap(2, 4))) is None
    assert kind(HalfMap(fresh, fresh, swap(2, 3))) is False
    monkeypatch.setattr(suites, "_induced_kind", lambda L: lambda m: None)
    res = suites.suite_induced_quotient([("Q1", fresh)])
    assert (res.hypothesis_count, res.check_count, res.violations) == (0, 0, [])


def _counts(results):
    return [(r.name, r.hypothesis_count, r.check_count, len(r.violations)) for r in results]


def test_relabeling_the_catalog_keeps_every_suite_count():
    """Which map of an orbit the search finds directly depends on the
    labels, so the copied verdicts must not: one seeded relabeling of
    every catalog loop, fixing 1, gives the same counts in all 17 suites
    and the same censuses."""
    rng = random.Random("relabel-catalog")
    canonical, relabeled = [], []
    for entry in catalog.entries():
        t = entry.table
        rest = list(t.elements[1:])
        rng.shuffle(rest)
        canonical.append((entry.key, t))
        relabeled.append((entry.key, LoopTable(relabel(t.rows, (1, *rest)))))
    assert _counts(run_theorem_suites(relabeled)) == _counts(run_theorem_suites(canonical))
    assert [half_census(t).counts for _, t in relabeled] == [half_census(t).counts for _, t in canonical]


def test_bruck_standalone_on_groups():
    inputs = [("D8", catalog.builtin("D8").table), ("D16", catalog.builtin("D16").table)]
    results = suite_bruck(inputs)
    for r in results:
        assert r.violations == [], r.name
    by_name = {r.name: r for r in results}
    # groups have trivial associator subloops, so the expansion is exact
    assert by_name["bruck-commutator-expansion"].check_count == 8 ** 3 + 16 ** 3
    assert by_name["bruck-cubes-in-nucleus"].hypothesis_count == 2


def test_suite_line_rendering(mini_battery):
    line = mini_battery["main-theorem"].line()
    assert "main-theorem" in line
    assert "violations=0 ok" in line


def _reference_commutator_d_set(inputs):
    """The suite's statement walked pair by pair, for comparison."""
    res = SuiteResult("commutator-d-set-central")
    for name, t in inputs:
        for elements in sl.three_generated(t):
            sub = t if len(elements) == t.order else sl.restriction(t, elements)[0]
            if not (sub.is_moufang() and is_left_automorphic(sub)):
                continue
            A = sl.associator_subloop(sub)
            if not sl.is_normal(sub, A):
                continue
            q = sl.quotient(sub, A)
            aset = set(A.elements)
            derived = set(sl.commutator_subloop(sub).elements)
            central = set(sl.center(sub).elements)
            comm = sub.commutators()
            for m in suites.enumerate_half_automorphisms(sub).maps:
                if {m.images[a - 1] for a in aset} != aset:
                    continue
                try:
                    key = coset_images(m, q.projection, q.projection)
                except ValueError:
                    continue
                kind = classify(make_half_map(q.table, q.table, key)).kind
                if kind not in (HalfKind.ISOMORPHISM, HalfKind.BOTH):
                    continue
                res.hypothesis_count += 1
                dset = d_set(m)
                for d in derived:
                    for g in dset:
                        res.check_count += 1
                        if comm[d - 1][g - 1] not in central:
                            res.violations.append("%s sub %r: [%d,%d] not central" % (name, elements, d, g))
                for u, v in mask_pairs(m.anti, sub.order):
                    res.check_count += 1
                    iu, iv = m.images[u - 1], m.images[v - 1]
                    if comm[u - 1][v - 1] not in central or comm[iu - 1][iv - 1] not in central:
                        res.violations.append(
                            "%s sub %r: reversed pair (%d,%d) has a non-central commutator"
                            % (name, elements, u, v)
                        )
    return res


def test_commutator_d_set_matches_pair_walk_on_a_shrunken_center(monkeypatch, q1, q1_enum, chein12):
    """Only Q1 has kept maps with reversed-only pairs, so it is the input
    that can fail; a sample of its maps keeps the reference walk short.
    The derived subloop is widened to the whole loop, because with the
    true one no [d, g] leaves even the shrunken center.

    The sample is built by hand as one entry that composes no map, so the
    suite evaluates each map.  It must not carry the search's entries:
    the shrunken center is not characteristic, so a verdict
    copied from s to alpha o s could differ from the one a pair walk
    gives."""
    center = sl.center

    def shrunken(L):
        H = center(L)
        return sl.Subloop(L, H.elements[:-1] if len(H) > 1 else H.elements)

    maps = tuple(HalfMap(q1, q1, m.images) for m in q1_enum.maps[::128])
    sample = HalfEnumeration(HalfMaps(((maps, ()),)), True)
    assert len(list(weighted_maps(sample))) == len(sample.maps) == 168
    monkeypatch.setattr(sl, "center", shrunken)
    monkeypatch.setattr(sl, "commutator_subloop", lambda L: sl.Subloop(L, tuple(L.elements)))
    monkeypatch.setattr(suites, "enumerate_half_automorphisms",
                        lambda L: sample if L is q1 else enumerate_half_automorphisms(L))
    inputs = [(key, catalog.builtin(key).table) for key in ("Z1", "Q8", "D8")]
    inputs += [("M(S3,2)", chein12), ("Q1", q1)]
    got = suite_commutator_d_set(inputs)
    want = _reference_commutator_d_set(inputs)
    assert (got.hypothesis_count, got.check_count) == (want.hypothesis_count, want.check_count)
    assert got.violations == want.violations
    for kind in ("not central", "reversed pair"):
        assert any(kind in v for v in got.violations), kind


def _reference_absorption(inputs):
    """The absorption statement of suite_bruck walked triple by triple
    with LoopTable.associator over every input, for comparison."""
    res = SuiteResult("bruck-nucleus-absorption")
    for name, t in inputs:
        res.hypothesis_count += 1
        for a in set(sl.nucleus(t).elements):
            for u in t.elements:
                au, ua = t.mul(a, u), t.mul(u, a)
                for v in t.elements:
                    for w in t.elements:
                        base = t.associator(u, v, w)
                        res.check_count += 2
                        if t.associator(au, v, w) != base or t.associator(ua, v, w) != base:
                            res.violations.append(
                                "%s: nucleus factor %d shifts associator (%d,%d,%d)" % (name, a, u, v, w))
    return res


def test_nucleus_absorption_matches_a_triple_walk_on_a_widened_nucleus(monkeypatch, q1, random_loops):
    """With the nucleus widened to the whole loop, elements outside the
    true nucleus shift associators, so the suite's violation lines can be
    compared with a plain walk, line by line and in order.  A random
    loop, let through the hypothesis, has factors that shift an
    associator on one side only."""
    monkeypatch.setattr(sl, "nucleus", lambda L: sl.Subloop(L, tuple(L.elements)))
    monkeypatch.setattr(suites, "is_left_automorphic", lambda L: True)
    monkeypatch.setattr(LoopTable, "is_moufang", lambda L: True)
    inputs = [("D8", catalog.builtin("D8").table), ("Q1", q1), ("random", random_loops[0])]
    got = {r.name: r for r in suite_bruck(inputs)}["bruck-nucleus-absorption"]
    want = _reference_absorption(inputs)
    assert (got.hypothesis_count, got.check_count) == (want.hypothesis_count, want.check_count)
    assert got.check_count == 2 * (8 ** 4 + 16 ** 4 + 7 ** 4)  # 2 |N| n^3 with N the whole loop
    assert got.violations == want.violations
    assert {v.split(":")[0] for v in got.violations} == {"Q1", "random"}


def test_main_theorem_suite_records_a_violation_instead_of_raising(monkeypatch, q2):
    """Q2 is automorphic but not Moufang; declared Moufang, its 8 proper
    maps contradict the theorem.  The suite reads the census and records
    that as a violation, where verify_main_theorem raises."""
    copy = LoopTable(q2.rows, name="Q2-copy")
    monkeypatch.setattr(LoopTable, "is_moufang", lambda self: True)
    res = suites.suite_main_theorem([("Q2-copy", copy)])
    assert (res.hypothesis_count, res.check_count) == (1, 16)
    assert res.violations == ["Q2-copy: 8 proper maps despite both hypotheses"]
    with pytest.raises(TheoremViolation, match="Q2-copy"):
        verify_main_theorem(copy)


def _flags_disagree(mp, L):
    mp.setattr(LoopTable, "moufang_report", lambda self: MoufangFlags(True, False, True))


def _kernel_is_everything(mp, L):
    real = sl.quotient
    mp.setattr(sl, "quotient", lambda M, H: real(M, H)._replace(projection=(1,) * M.order))


def _sylow_and_trivial_nucleus(mp, L):
    mp.setattr(sl, "sylow_subloop", lambda M, p: sl.SubloopSearch(sl.Subloop(M, (1, 3, 5)), 3))
    mp.setattr(sl, "nucleus", lambda M: sl.Subloop(M, (1,)))


def _s3_lines():
    """The Bruck lines of S3 with the nucleus read as {1}, from its
    products: a commutator is 1 exactly when the pair commutes in a group."""
    t = catalog.make_symmetric3()
    pairs = [(u, v) for u in t.elements for v in t.elements if t.mul(u, v) != t.mul(v, u)]
    cubes = [u for u in t.elements if t.mul(u, t.mul(u, u)) != 1]
    return (["S3: [%d,%d] outside the nucleus" % uv for uv in pairs]
            + ["S3: %d cubed lands outside the nucleus" % u for u in cubes])


@pytest.mark.parametrize("run, key, patch, lines", [
    (suites.suite_moufang_flag_agreement, "Z4", _flags_disagree,
     ["Z4: flags disagree MoufangFlags(left=True, right=False, middle=True)"]),
    (suites.suite_nuclei_coincide, "Z4",
     lambda mp, L: mp.setattr(sl, "nucleus_middle", lambda M: sl.Subloop(M, (1, 3))),
     ["Z4: nuclei differ (1, 2, 3, 4) (1, 3) (1, 2, 3, 4)"]),
    (suites.suite_lagrange, "Z4", lambda mp, L: mp.setattr(sl, "center", lambda M: sl.Subloop(M, (1, 2, 3))),
     ["Z4: center has order 3, not a divisor of 4"]),
    (suites.suite_quotient_homomorphism, "Z4", _kernel_is_everything,
     ["Z4: commutator quotient kernel {1, 2, 3, 4} != {1}",
      "Z4: associator quotient kernel {1, 2, 3, 4} != {1}"]),
    (suites.suite_sylow_factorization, "Z6",
     lambda mp, L: mp.setattr(sl, "sylow_subloop", lambda M, p: sl.SubloopSearch(None, 3)),
     ["Z6: no exact 3-power subloop (target 3)"]),
    (suites.suite_sylow_factorization, "Z6", _sylow_and_trivial_nucleus,
     ["Z6: S*N covers 3 of 6 elements"]),
    (suite_bruck, "S3", lambda mp, L: mp.setattr(sl, "nucleus", lambda M: sl.Subloop(M, (1,))), _s3_lines()),
    (suites.suite_half_group, "Z4",
     lambda mp, L: mp.setattr(suites, "half_maps_form_group_check", lambda M, enum: False),
     ["Z4: enumerated maps are not closed"]),
    (lambda inputs: suites.suite_odd_order_trivial(inputs, max_order=4), "Z5", lambda mp, L: None,
     ["skipped Z5"]),
], ids=["flag-agreement", "nuclei", "lagrange", "quotient-kernel", "sylow-missing", "sylow-cover", "bruck",
        "half-group", "odd-order-skip"])
def test_each_suite_reports_its_violation_lines(monkeypatch, run, key, patch, lines):
    """Every violation line a suite can write, and odd-order-trivial's
    skip note, on a fresh table of one input with one fact patched to
    fail; the patch is the only way to reach them, since the catalog runs
    clean."""
    t = LoopTable(catalog.builtin(key).table.rows, name=key)
    patch(monkeypatch, t)
    results = run([(key, t)])
    results = results if isinstance(results, list) else [results]
    assert [line for r in results for line in r.violations + r.notes] == lines


def test_a_non_normal_associator_subloop_is_skipped(monkeypatch, q1, phi1):
    """No catalog or random loop has a non-normal associator subloop, so
    every quotient is refused here on a fresh copy of Q1, whose memo is
    empty.  The quotient suites skip it, the Bruck expansion falls back to
    exact comparison, and induced_on_quotient refuses the map."""
    fresh = LoopTable(q1.rows, name="Q1")

    def refused(L, H):
        raise QuotientError("refused")

    monkeypatch.setattr(sl, "quotient", refused)
    assert sl.associator_quotient(fresh) is None
    inputs = [("Q1", fresh)]
    for suite in (suites.suite_quotient_homomorphism, suites.suite_induced_quotient,
                  suite_commutator_d_set):
        res = suite(inputs)
        assert (res.hypothesis_count, res.check_count, res.violations) == (0, 0, []), res.name
    expansion = {r.name: r for r in suite_bruck(inputs)}["bruck-commutator-expansion"]
    comm = fresh.commutators()

    def unequal(u, v, w):
        ut = comm[u - 1][w - 1]
        rhs = fresh.mul(fresh.mul(ut, comm[ut - 1][v - 1]), comm[v - 1][w - 1])
        return comm[fresh.mul(u, v) - 1][w - 1] != rhs

    triples = [(u, v, w) for u in fresh.elements for v in fresh.elements for w in fresh.elements]
    assert len(expansion.violations) == sum(unequal(*uvw) for uvw in triples) == 1344
    with pytest.raises(ValueError, match="associator subloop of the domain is not normal"):
        induced_on_quotient(make_half_map(fresh, fresh, phi1.images))


def test_commutator_d_set_searches_each_distinct_subtable_once(monkeypatch):
    """Three-generated sets of one loop with equal restricted rows share
    one table, and so one search; the whole loop is the loop itself."""
    searched = []

    def recording(L):
        searched.append(L)
        return enumerate_half_automorphisms(L)

    monkeypatch.setattr(suites, "enumerate_half_automorphisms", recording)
    objects = rows = 0
    for key in catalog.catalog_keys():
        t = catalog.builtin(key).table
        searched.clear()
        suite_commutator_d_set([(key, t)], max_order=20)
        assert len({id(L) for L in searched}) == len({L.rows for L in searched}), key
        assert (t in searched) == any(L is t for L in searched), key
        objects += len({id(L) for L in searched})
        rows += len(searched)
    assert (objects, rows) == (82, 153)


def test_bruck_restricts_to_one_table_per_distinct_row_set(monkeypatch):
    """The associator-central check of suite_bruck shares one table among
    the three-generated sets of a loop whose restricted rows are equal;
    the whole loop is the loop itself."""
    checked = []
    center = sl.center

    def recording(L):
        checked.append(L)
        return center(L)

    monkeypatch.setattr(sl, "center", recording)
    objects = calls = 0
    for key in catalog.catalog_keys():
        t = catalog.builtin(key).table
        checked.clear()
        suite_bruck([(key, t)])
        assert len({id(L) for L in checked}) == len({L.rows for L in checked}), key
        assert (t in checked) == any(L is t for L in checked), key
        objects += len({id(L) for L in checked})
        calls += len(checked)
    assert (objects, calls) == (74, 123)
