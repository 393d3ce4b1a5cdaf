"""Half-morphisms: construction, classification, enumeration, and the
derived witness machinery around them."""

from __future__ import annotations

import random
import tracemalloc
from itertools import permutations
from math import factorial
from operator import itemgetter

import pytest

from loopsmith import catalog, halfmorph, suites
from loopsmith import subloops as sl
from loopsmith.errors import HalfMapError, InternalCheckError, TheoremViolation
from loopsmith.halfmorph import (
    GGTriple,
    HalfEnumeration,
    HalfKind,
    HalfMap,
    HalfMaps,
    PROPER_SHOWN,
    SearchStats,
    classify,
    d_set,
    enumerate_half_automorphisms,
    find_gg_triples,
    half_census,
    half_maps_form_group_check,
    induced_on_quotient,
    is_semi_isomorphism,
    make_half_map,
    mask_pairs,
    orbit_maps,
    pull_mask,
    verify_main_theorem,
    weighted_maps,
    _group_order,
)
from loopsmith.innermaps import (is_automorphic, is_automorphism, is_left_automorphic, perm_from_cycles,
                                 translate_rows)
from loopsmith.suites import run_theorem_suites
from loopsmith.table import LoopTable, relabel


def test_make_half_map_rejects_degree_and_bijection_defects(q2):
    z5 = catalog.make_cyclic(5)
    with pytest.raises(ValueError, match="order"):
        make_half_map(q2, z5, tuple(range(1, 9)))
    with pytest.raises(ValueError, match="images"):
        make_half_map(q2, q2, (1, 2, 3))
    with pytest.raises(ValueError, match="bijection"):
        make_half_map(q2, q2, (1, 1, 2, 3, 4, 5, 6, 7))


def test_make_half_map_reports_first_broken_pair():
    z5 = catalog.make_cyclic(5)
    with pytest.raises(HalfMapError) as exc:
        make_half_map(z5, z5, (1, 3, 2, 4, 5))
    e = exc.value
    assert (e.x, e.y) == (2, 2)
    assert e.image_of_product == 2
    assert e.forward == 5 and e.backward == 5

    q2 = catalog.builtin("Q2").table
    with pytest.raises(HalfMapError) as exc:
        make_half_map(q2, q2, (1, 2, 3, 4, 7, 8, 5, 6))
    e = exc.value
    assert (e.x, e.y) == (5, 5)
    assert (e.image_of_product, e.forward, e.backward) == (1, 2, 2)


def test_half_map_basics(phi1):
    assert phi1.apply(5) == 8
    assert phi1.apply(2) == 2
    assert phi1.cycles() == "(5,8)"
    assert phi1.images != tuple(range(1, 17))


def test_classify_phi1(phi1):
    cls = classify(phi1)
    assert cls.kind is HalfKind.PROPER_HALF
    assert cls.hom_pairs == 184
    assert cls.anti_pairs == 160
    assert cls.witness_hom == (2, 9)
    assert cls.witness_anti == (2, 3)


def test_classify_phi2(phi2):
    cls = classify(phi2)
    assert cls.kind is HalfKind.PROPER_HALF
    assert cls.hom_pairs == 48
    assert cls.anti_pairs == 56
    assert cls.witness_hom == (3, 5)
    assert cls.witness_anti == (3, 7)


def test_classify_trivial_kinds(q2):
    ident = make_half_map(q2, q2, tuple(range(1, 9)))
    cls = classify(ident)
    assert cls.kind is HalfKind.ISOMORPHISM
    assert cls.kind is not HalfKind.PROPER_HALF
    assert (cls.hom_pairs, cls.anti_pairs) == (64, 40)
    assert cls.witness_hom == (3, 5)
    assert cls.witness_anti is None

    anti = make_half_map(q2, q2, perm_from_cycles(8, [(7, 8)]))
    cls = classify(anti)
    assert cls.kind is HalfKind.ANTI_ISOMORPHISM
    assert cls.witness_hom is None
    assert cls.witness_anti is not None

    z6 = catalog.make_cyclic(6)
    cls = classify(make_half_map(z6, z6, tuple(range(1, 7))))
    assert cls.kind is HalfKind.BOTH
    assert cls.hom_pairs == cls.anti_pairs == 36
    assert cls.witness_hom is None and cls.witness_anti is None


def test_classify_detects_corrupted_maps(q2):
    bad = HalfMap(q2, q2, (2, 1, 3, 4, 5, 6, 7, 8))
    with pytest.raises(InternalCheckError):
        classify(bad)


def _pairwise_laws(m):
    """(forward law holds, reversed law holds) for every pair, recomputed
    pair by pair from the tables."""
    n = m.domain.order
    drows = m.domain.rows
    crows = m.codomain.rows
    images = m.images
    laws = {}
    for x in range(1, n + 1):
        ix = images[x - 1]
        for y in range(1, n + 1):
            iy = images[y - 1]
            got = images[drows[x - 1][y - 1] - 1]
            laws[x, y] = (got == crows[ix - 1][iy - 1], got == crows[iy - 1][ix - 1])
    return laws


def _relabeled(L, seed):
    """A copy of L under a seeded relabeling x -> perm[x-1] that fixes 1,
    and perm."""
    rest = list(L.elements[1:])
    random.Random(seed).shuffle(rest)
    perm = (1, *rest)
    return LoopTable(relabel(L.rows, perm)), perm


def test_law_masks_match_a_pairwise_recomputation(q2, q2_enum, chein12, get_enum, phi1, nonflex5,
                                                  z256, random_loops):
    half = (*q2_enum.maps, *get_enum("M(S3,2)", chein12).maps, phi1)
    maps = list(half)
    # into a relabeled copy of the domain: half-maps moved along the
    # relabeling, and seeded bijections that need not be half-maps
    for L, seed in ((q2, 1), (chein12, 2), (nonflex5, 3)):
        copy, perm = _relabeled(L, seed)
        maps += [HalfMap(L, copy, tuple(perm[i - 1] for i in m.images)) for m in half if m.domain is L]
        rng = random.Random(seed)
        maps += [HalfMap(L, copy, tuple(rng.sample(L.elements, L.order))) for _ in range(5)]
    maps += [HalfMap(nonflex5, nonflex5, (1, *rest)) for rest in permutations(range(2, 6))]
    rng = random.Random("random-loops")
    maps += [HalfMap(L, L, (1, *rng.sample(L.elements[1:], L.order - 1))) for L in random_loops for _ in range(2)]
    z1 = catalog.make_cyclic(1)
    maps.append(HalfMap(z1, z1, (1,)))
    # at the order cap: x -> 3x is an automorphism, a transposition fixing 1 is not
    maps.append(HalfMap(z256, z256, tuple(3 * x % 256 + 1 for x in range(256))))
    maps.append(HalfMap(z256, z256, perm_from_cycles(256, [(2, 3)])))
    for m in maps:
        n = m.domain.order
        laws = _pairwise_laws(m)
        assert list(mask_pairs(m.hom, n)) == sorted(p for p, (hom, _) in laws.items() if hom)
        assert list(mask_pairs(m.anti, n)) == sorted(p for p, (_, anti) in laws.items() if anti)
        hom_only = sorted(p for p, (hom, anti) in laws.items() if hom and not anti)
        anti_only = sorted(p for p, (hom, anti) in laws.items() if anti and not hom)
        hom_pairs = sum(hom for hom, _ in laws.values())
        anti_pairs = sum(anti for _, anti in laws.values())
        broken = sorted(p for p, (hom, anti) in laws.items() if not (hom or anti))
        assert m.broken_pair() == (broken[0] if broken else None)
        if broken:
            with pytest.raises(InternalCheckError):
                classify(m)
        else:
            if hom_pairs == anti_pairs == n * n:
                kind = HalfKind.BOTH
            elif hom_pairs == n * n:
                kind = HalfKind.ISOMORPHISM
            elif anti_pairs == n * n:
                kind = HalfKind.ANTI_ISOMORPHISM
            else:
                kind = HalfKind.PROPER_HALF
            cls = classify(m)
            assert (cls.kind, cls.hom_pairs, cls.anti_pairs) == (kind, hom_pairs, anti_pairs), m.cycles()
            assert cls.witness_hom == (hom_only[0] if hom_only else None)
            assert cls.witness_anti == (anti_only[0] if anti_only else None)
        assert d_set(m) == frozenset(x for x, _ in anti_only)
        assert list(mask_pairs(m.hom & ~m.anti, n)) == hom_only
        assert list(mask_pairs(m.anti & ~m.hom, n)) == anti_only
        L = m.domain
        triples = [GGTriple(x, y, z) for x in L.elements
                   for y in L.elements if (x, y) in hom_only and L.mul(x, y) != L.mul(y, x)
                   for z in L.elements if (x, z) in anti_only and L.mul(x, z) != L.mul(z, x)]
        assert find_gg_triples(m) == triples


def test_enumeration_census_q2(q2_enum):
    assert q2_enum.complete
    assert len(q2_enum.maps) == 16
    kinds = [classify(m).kind for m in q2_enum.maps]
    assert kinds.count(HalfKind.ISOMORPHISM) == 4
    assert kinds.count(HalfKind.ANTI_ISOMORPHISM) == 4
    assert kinds.count(HalfKind.BOTH) == 0
    assert kinds.count(HalfKind.PROPER_HALF) == 8


def test_enumeration_is_sorted_and_fixes_identity(q2_enum):
    images = [m.images for m in q2_enum.maps]
    assert images == sorted(images)
    assert q2_enum.maps[0].images == tuple(range(1, 9))
    assert all(m.images[0] == 1 for m in q2_enum.maps)


def test_enumeration_on_z4():
    enum = enumerate_half_automorphisms(catalog.make_cyclic(4))
    assert enum.complete
    assert [m.images for m in enum.maps] == [(1, 2, 3, 4), (1, 4, 3, 2)]
    assert all(classify(m).kind is HalfKind.BOTH for m in enum.maps)


def test_enumeration_limit(get_enum):
    # the first maps found in generation order, sorted: not necessarily
    # the least maps in image-tuple order; reaching the limit, even on
    # the one map of Z1, leaves the result incomplete.  The counters stop
    # at the last map taken: inside a subtree searched directly (Q2 at 5
    # and 9, M(S3,2) at 40), on its last map (M(S3,2) at 108), or one map
    # into a composed subtree (M(S3,2) at 109, Q1 at 1537)
    for key, limit, stats in (("Q2", 5, (37, 14, 4, 0, 1, 1, 15)),
                              ("Q2", 9, (60, 24, 5, 0, 2, 4, 38)),
                              ("M(S3,2)", 40, (377, 39, 40, 0, 1, 0, 0)),
                              ("M(S3,2)", 108, (1019, 108, 108, 0, 1, 0, 0)),
                              ("M(S3,2)", 109, (1019, 108, 108, 0, 1, 1, 11)),
                              ("Q1", 1537, (6039, 0, 1536, 0, 1, 1, 15)),
                              ("Z1", 1, (0, 0, 1, 0, 0, 0, 0))):
        t = catalog.builtin(key).table
        enum = enumerate_half_automorphisms(t, limit=limit)
        images = [m.images for m in enum.maps]
        assert not enum.complete
        assert enum.stats == SearchStats(*stats)
        assert len(images) == limit
        assert images == sorted(images)
        assert set(images) <= {m.images for m in get_enum(key, t).maps}
        assert sorted(m.images for pair in weighted_maps(enum) for m in orbit_maps(*pair)) == images


def test_limited_enumeration_is_never_memoized():
    t = catalog.make_symmetric3()
    partial = enumerate_half_automorphisms(t, limit=3)
    assert not partial.complete and len(partial.maps) == 3
    full = enumerate_half_automorphisms(t)
    assert full.complete and len(full.maps) == 12
    again = enumerate_half_automorphisms(t, limit=3)
    assert again is not full and not again.complete


def test_complete_enumeration_is_memoized_per_table():
    t = catalog.make_cyclic(5)
    assert enumerate_half_automorphisms(t) is enumerate_half_automorphisms(t)
    twin = catalog.make_cyclic(5)
    assert twin == t
    assert enumerate_half_automorphisms(twin) is not enumerate_half_automorphisms(t)


def test_relabeled_copy_keeps_flags_and_census(q2):
    perm = (1, 3, 8, 2, 7, 5, 4, 6)
    copy = LoopTable(relabel(q2.rows, perm))
    assert copy.rows != q2.rows
    assert copy._memo is not q2._memo
    for flag in (is_automorphic, is_left_automorphic, LoopTable.is_moufang,
                 LoopTable.is_flexible, LoopTable.is_commutative, LoopTable.is_associative):
        assert flag(copy) == flag(q2), flag.__name__
    census = [verify_main_theorem(t).census for t in (q2, copy)]
    assert census[0] == census[1]
    assert census[1][HalfKind.PROPER_HALF] == 8
    assert enumerate_half_automorphisms(copy) is not enumerate_half_automorphisms(q2)


SMALL_CATALOG = [key for key in catalog.catalog_keys() if catalog.builtin(key).table.order <= 8]


@pytest.mark.parametrize("key", SMALL_CATALOG + ["M(D16,2)"])
def test_relabeling_keeps_flags_census_and_pair_counts(key, chein):
    # mask bits follow the labels, so a mask read in the wrong layout
    # shows up as a changed census or pair-count multiset
    t = chein("D16") if key == "M(D16,2)" else catalog.builtin(key).table
    rest = list(range(2, t.order + 1))
    random.Random("relabel-" + key).shuffle(rest)
    copy = LoopTable(relabel(t.rows, [1] + rest))
    for flag in (is_automorphic, is_left_automorphic, LoopTable.is_moufang,
                 LoopTable.is_flexible, LoopTable.is_commutative, LoopTable.is_associative):
        assert flag(copy) == flag(t), flag.__name__
    assert verify_main_theorem(copy).census == verify_main_theorem(t).census

    def pair_counts(table):
        return sorted((cls.kind.value, cls.hom_pairs, cls.anti_pairs)
                      for cls in map(classify, enumerate_half_automorphisms(table).maps))

    assert pair_counts(copy) == pair_counts(t)


def _conjugated_back(maps, perm):
    """The sorted images of x -> perm^-1(t(perm(x))) for maps t on a copy
    relabeled by perm: the maps moved back to the original labels."""
    inverse = [0] * len(perm)
    for x, p in enumerate(perm, 1):
        inverse[p - 1] = x
    return sorted(tuple(inverse[m.images[p - 1] - 1] for p in perm) for m in maps)


@pytest.mark.parametrize("group", ["Q8", "D10"])
def test_relabeled_chein_loop_keeps_maps_and_census(group, chein):
    t = chein(group)
    copy, perm = _relabeled(t, "relabel-" + group)
    assert copy.rows != t.rows
    assert _conjugated_back(enumerate_half_automorphisms(copy).maps, perm) == \
        [m.images for m in enumerate_half_automorphisms(t).maps]
    assert half_census(copy).counts == half_census(t).counts


def test_search_cost_does_not_depend_on_the_labels(chein):
    """The search branches at generators chosen by a label-free invariant,
    so its node count, with the automorphism lookups, barely moves under
    relabeling."""
    t = chein("D12")
    want = [m.images for m in enumerate_half_automorphisms(t).maps]
    assert len(want) == 864
    nodes = []
    for seed in range(10):
        copy, perm = _relabeled(t, seed)
        enum = enumerate_half_automorphisms(copy)
        assert _conjugated_back(enum.maps, perm) == want
        nodes.append(enum.stats.nodes + enum.stats.lookup_nodes)
    assert max(nodes) < 2 * min(nodes)


def test_search_counters(q2_enum, q1_enum, chein12, get_enum, brute_force_half_maps):
    """Counters are deterministic, so they pin down the pruning and the
    orbit search.  The first order-6 loop has a half-map besides the
    identity, both with the same image of the first generator.  On the
    second, a consistency check without the reversed pair (y, x) tries
    more images, and so does an automorphism lookup that prunes by the
    half law instead of the forward law.  On Q1 one subtree is searched,
    at about four images tried per map, and the other thirteen images of
    the first generator are composed from it."""
    assert q2_enum.stats == SearchStats(nodes=75, prunes=29, leaves=8, rejected=0,
                                        representatives=3, compositions=8, lookup_nodes=81)
    assert get_enum("M(S3,2)", chein12).stats == SearchStats(
        nodes=1019, prunes=108, leaves=108, rejected=0, representatives=1, compositions=108, lookup_nodes=11)
    for rows, maps, stats in (
            ([[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 5, 6, 1, 2, 4],
              [4, 6, 1, 5, 3, 2], [5, 4, 2, 6, 1, 3], [6, 3, 5, 2, 4, 1]], 2,
             SearchStats(nodes=13, prunes=4, leaves=2, rejected=0,
                         representatives=1, compositions=0, lookup_nodes=0)),
            ([[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 5, 6, 1, 2, 4],
              [4, 6, 2, 5, 1, 3], [5, 4, 1, 6, 3, 2], [6, 3, 5, 2, 4, 1]], 1,
             SearchStats(nodes=32, prunes=18, leaves=1, rejected=0,
                         representatives=5, compositions=0, lookup_nodes=22))):
        L = LoopTable(rows)
        assert not L.is_associative()
        enum = enumerate_half_automorphisms(L)
        assert {m.images for m in enum.maps} == brute_force_half_maps(L)
        assert len(enum.maps) == maps
        assert enum.stats == stats
    stats = q1_enum.stats
    assert (stats.leaves, stats.rejected, stats.representatives, stats.compositions) == (1536, 0, 1, 19968)
    assert stats.nodes < 10_000


def test_search_drops_and_counts_leaves_that_fail_revalidation(monkeypatch, q2, q2_enum):
    """A representative's leaf that make_half_map refuses is counted, and
    every map composed from it is missing too: the refused map's whole
    orbit under the automorphisms that the search composes with."""
    check = halfmorph.make_half_map
    refused = []

    def refusing_first_leaf(domain, codomain, images):
        if not refused:
            refused.append(images)
            raise HalfMapError(1, 1, 1, 1, 1)
        return check(domain, codomain, images)

    monkeypatch.setattr(halfmorph, "make_half_map", refusing_first_leaf)
    enum = enumerate_half_automorphisms(LoopTable(q2.rows))
    assert enum.complete
    assert (enum.stats.leaves, enum.stats.rejected) == (q2_enum.stats.leaves, 1)
    kept = [m.images for m in enum.maps]
    assert kept == sorted(kept)
    dropped = {m.images for m in q2_enum.maps} - set(kept)
    s0, = refused
    automorphisms = [m.images for m in q2_enum.maps
                     if classify(m).kind in (HalfKind.ISOMORPHISM, HalfKind.BOTH)]
    g = halfmorph._generation_order(q2)[1][0]
    orbit = {a[s0[g - 1] - 1] for a in automorphisms}
    assert len(orbit) > 1
    assert {d[g - 1] for d in dropped} == orbit and len(dropped) == len(orbit)
    inverse = [0] * q2.order
    for x, v in enumerate(s0, 1):
        inverse[v - 1] = x
    assert all(tuple(d[inverse[v - 1] - 1] for v in q2.elements) in automorphisms for d in dropped)


def test_lookup_goes_past_a_leaf_that_is_no_automorphism(monkeypatch, q2, q2_enum):
    """A complete assignment of the hom-law-only search counts only when
    its hom mask is full; a proper half-map offered first is passed over."""
    proper = next(m.images for m in q2_enum.maps if classify(m).kind is HalfKind.PROPER_HALF)
    dfs = halfmorph._dfs
    passed_over = []

    def offering_a_proper_map_first(mul, col, order, image, hom, tally):
        if hom:
            yield proper
            passed_over.append(image)  # reached only when the lookup asks for the next assignment
        yield from dfs(mul, col, order, image, hom, tally)

    monkeypatch.setattr(halfmorph, "_dfs", offering_a_proper_map_first)
    enum = enumerate_half_automorphisms(LoopTable(q2.rows))
    assert passed_over
    assert [m.images for m in enum.maps] == [m.images for m in q2_enum.maps]


def _all_candidates_search(L):
    """Reference for the orbit search: the sorted images of every
    half-map, found by one depth-first search along the generation order
    in which the first generator, like every other, may take any free
    image, and each leaf is checked by make_half_map."""
    n = L.order
    mul = [[0] * (n + 1)]
    for r in L.rows:
        mul.append([0] + list(r))
    col = [[0] * (n + 1)]  # col[x][y] = y*x
    for c in zip(*L.rows):
        col.append([0] + list(c))
    order = halfmorph._generation_order(L)
    mapped = [c for c, _, _ in order]
    img = [0] * (n + 1)
    free = [True] * (n + 1)
    img[1] = 1
    free[1] = False
    found = []

    def consistent(k, x):
        w = img[x]
        mx, cx, mw, cw = mul[x], col[x], mul[w], col[w]
        for y in mapped[:k + 1]:
            iy = img[y]
            u = mw[iy]
            v = cw[iy]
            ic = img[mx[y]]
            if ic and ic != u and ic != v:
                return False
            ic = img[cx[y]]
            if ic and ic != u and ic != v:
                return False
        return True

    def dfs(k):
        if k == n:
            try:
                found.append(make_half_map(L, L, tuple(img[1:])).images)
            except HalfMapError:
                pass
            return
        x, a, b = order[k]
        if a:
            u = mul[img[a]][img[b]]
            v = mul[img[b]][img[a]]
            candidates = (u,) if u == v else (u, v)
        else:
            candidates = range(2, n + 1)
        for w in candidates:
            if not free[w]:
                continue
            img[x] = w
            free[w] = False
            if consistent(k, x):
                dfs(k + 1)
            free[w] = True
        img[x] = 0

    dfs(1)
    return sorted(found)


ORBIT_CHECK = [*catalog.catalog_keys(), "M(Q8,2)", "M(D16,2)", "M(D12,2)@0", "M(D12,2)@1", "M(D12,2)@2"]


@pytest.mark.parametrize("key", ORBIT_CHECK)
def test_orbit_search_matches_the_all_candidates_search(key, chein, get_enum):
    """Same maps as the reference search, and every composed map carries
    the masks that a fresh pair walk gives."""
    if key in catalog.catalog_keys():
        t = catalog.builtin(key).table
        maps = get_enum(key, t).maps
    elif "@" in key:
        t, _ = _relabeled(chein("D12"), int(key[key.index("@") + 1:]))
        maps = enumerate_half_automorphisms(t).maps
    else:
        t = chein(key[2:key.index(",")])
        maps = get_enum(key, t).maps
    assert [m.images for m in maps] == _all_candidates_search(t)
    for m in maps:
        fresh = HalfMap(t, t, m.images)
        assert (m.hom, m.anti) == (fresh.hom, fresh.anti), m.images


TRANSPORT_CHECK = [*catalog.catalog_keys(), "M(Q8,2)", "M(D16,2)", "M(D16,2) relabeled"]


@pytest.mark.parametrize("key", TRANSPORT_CHECK)
def test_sources_name_a_searched_map_one_automorphism_away(key, chein, relabeled_chein, get_enum):
    """Every listed map is a map s that the search found directly, the
    same object, or differs from such an s by an automorphism on the left
    and has its masks; the weighted walk stands for every map once, and a
    per-map value computed on s holds for each map that s stands for."""
    if key in catalog.catalog_keys():
        t = catalog.builtin(key).table
    elif key.endswith("relabeled"):
        t = relabeled_chein("D16")
    else:
        t = chein(key[2:key.index(",")])
    enum = get_enum(key, t)
    n = t.order
    listed = {m.images: m for m in enum.maps}
    pairs = list(weighted_maps(enum))
    assert len(pairs) == enum.stats.leaves - enum.stats.rejected
    for s, alphas in pairs:
        assert listed[s.images] is s
        inverse = [0] * n
        for x, v in enumerate(s.images, 1):
            inverse[v - 1] = x
        for m in orbit_maps(s, alphas):
            assert is_automorphism(t, tuple(m.images[x - 1] for x in inverse)), m.images
            assert (listed[m.images].hom, listed[m.images].anti) == (s.hom, s.anti)
    functions = [classify, is_semi_isomorphism, d_set, lambda m: find_gg_triples(m, limit=1)]
    if sl.associator_quotient(t) is not None:
        functions.append(suites._induced_kind(t))
        if t.is_moufang() and is_left_automorphic(t):
            functions.append(suites._d_set_verdict(t, key))
    assert sorted(m.images for pair in pairs for m in orbit_maps(*pair)) == [m.images for m in enum.maps]
    for fn in functions:
        assert all(fn(m) == fn(s) for s, alphas in pairs for m in orbit_maps(s, alphas)), fn


def test_limited_search_sources_point_inside_the_result(q1, q1_enum):
    """A limited search holds its maps as a complete one does.  At 1600
    the limit falls 64 maps into Q1's first composed subtree, so the
    searched maps split into the 64 composed with its automorphism and
    the rest, composed with none."""
    (found, alphas), = q1_enum.maps.entries
    for limit, entries in ((1, [(found[:1], ())]), (5, [(found[:5], ())]),
                           (1600, [(found[64:], ()), (found[:64], alphas[:1])])):
        enum = enumerate_half_automorphisms(q1, limit=limit)
        assert len(enum.maps) == limit
        assert [[m.images for m in maps] for maps, _ in enum.maps.entries] == \
            [[m.images for m in maps] for maps, _ in entries]
        assert [alphas for _, alphas in enum.maps.entries] == [alphas for _, alphas in entries]
        assert sum(map(len, (maps for maps, _ in enum.maps.entries))) == enum.stats.leaves - enum.stats.rejected


def test_search_holds_no_index_lists_beside_the_maps(q1):
    """A composed map names its source itself, so the search keeps no
    per-map lists beside the maps while they are alive: on a fresh copy
    of Q1 the traced peak stays under 6.5 MiB."""
    t = LoopTable(q1.rows)  # a fresh memo, whatever other tests read from the fixture
    tracemalloc.start()
    try:
        enum = enumerate_half_automorphisms(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(enum.maps) == 21504
    assert peak < 6.5 * 2 ** 20, peak


def test_theorem_and_suites_build_only_the_searched_maps_of_q1(monkeypatch, q1):
    """The census and every suite count a composed map through the map it
    was composed from, so on a fresh copy of Q1 the main-theorem driver
    and all seventeen suites build only the 1536 maps found directly,
    none composed, and trace a peak under 4 MiB."""
    t = LoopTable(q1.rows, name="Q1")  # a fresh memo, whatever other tests read from the fixture
    tracemalloc.start()
    try:
        report = verify_main_theorem(t)
        results = run_theorem_suites([("Q1", t)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.total, report.census[HalfKind.PROPER_HALF]) == (21504, 18816)
    assert not any(r.violations for r in results)
    assert peak < 4 * 2 ** 20, peak

    built = []  # per map built on t: whether it was given its masks, as a composed map is
    init = HalfMap.__init__

    def recording(self, domain, codomain, images, *masks):
        init(self, domain, codomain, images, *masks)
        if domain is t:
            built.append(bool(masks))

    t = LoopTable(q1.rows, name="Q1")
    monkeypatch.setattr(HalfMap, "__init__", recording)
    verify_main_theorem(t)
    run_theorem_suites([("Q1", t)])
    assert len(built) == 1536 and not any(built)


def test_complete_enumeration_holds_searched_maps_and_one_automorphism_per_composed_subtree(q1, q1_enum):
    maps = q1_enum.maps
    assert isinstance(maps, HalfMaps)
    (found, alphas), = maps.entries
    stats = q1_enum.stats
    assert len(found) == stats.leaves - stats.rejected == 1536
    assert {m.images: m for m in maps}[found[0].images] is found[0]
    assert len(alphas) == 13 and all(is_automorphism(q1, alpha) for alpha in alphas)
    assert len(maps) == stats.leaves + stats.compositions == 21504
    # a listing builds each composed map once and hands the same objects to every read
    assert maps[0] is next(iter(maps)) and list(maps)[-1] is maps[-1]


def test_group_order_of_the_symmetric_groups():
    assert _group_order([(1,)], 1) == 1
    for n in range(2, 8):
        transposition = (2, 1, *range(3, n + 1))
        cycle = (*range(2, n + 1), 1)
        assert _group_order([transposition, cycle], n) == factorial(n), n
    assert _group_order([], 5) == 1


def test_group_order_of_the_half_maps(q1, q1_enum, q2, q2_enum):
    assert _group_order([m.images for m in q2_enum.maps], 8) == 16
    assert _group_order([m.images for m in q1_enum.maps], 16) == 21504
    found, alphas = q1_enum.maps.entries[0]
    assert _group_order([m.images for m in found] + list(alphas), 16) == 21504
    assert half_maps_form_group_check(q1, q1_enum)


def test_group_order_matches_the_breadth_first_closure(chein12, get_enum):
    rest = [m.images for m in get_enum("M(S3,2)", chein12).maps][1:]
    rng = random.Random("group-order")
    for _ in range(20):
        seeds = rng.sample(rest, rng.randint(1, 3))
        assert _group_order(seeds, chein12.order) == len(_generated(seeds)), seeds


def _generated_automorphisms(L, anti):
    """Every automorphism of L, or with anti set every anti-automorphism,
    built from the images of generators alone.

    Generators are taken by label.  Each is followed by the products of
    the elements listed so far, until they close, and a product's image
    is forced: t(a*b) = t(a)*t(b), or t(b)*t(a) for an anti-automorphism.
    A generator's image must commute with as many elements as the
    generator does.  Once a generator's subloop is mapped, the law is
    checked on its pairs; each completed map is checked on all n*n pairs.
    """
    rows = L.rows
    elements = L.elements

    def mul(a, b):
        return rows[a - 1][b - 1]

    law = [[mul(b, a) if anti else mul(a, b) for b in elements] for a in elements]
    commuting = [sum(mul(x, y) == mul(y, x) for y in elements) for x in elements]
    blocks = []  # per generator g: g and the (c, a, b) with c = a*b it brings in
    listed = {1}
    for g in elements:
        if g in listed:
            continue
        listed.add(g)
        block = [(g, 0, 0)]
        grew = True
        while grew:
            grew = False
            for a in sorted(listed):
                for b in sorted(listed):
                    if mul(a, b) not in listed:
                        listed.add(mul(a, b))
                        block.append((mul(a, b), a, b))
                        grew = True
        blocks.append(block)

    img = {1: 1}
    found = set()

    def obeys(xs, ys):
        """The law holds on every pair (x, y) with x in xs and y in ys."""
        for x in xs:
            row, image_row = rows[x - 1], law[img[x] - 1]
            if [img[row[y - 1]] for y in ys] != [image_row[img[y] - 1] for y in ys]:
                return False
        return True

    def extend(k):
        if k == len(blocks):
            if obeys(elements, elements):
                found.add(tuple(img[x] for x in elements))
            return
        g = blocks[k][0][0]
        for w in set(elements) - set(img.values()):
            if commuting[w - 1] != commuting[g - 1]:
                continue
            before = dict(img)
            img[g] = w
            used = set(img.values())
            for c, a, b in blocks[k][1:]:
                v = law[img[a] - 1][img[b] - 1]
                if v in used:
                    break
                img[c] = v
                used.add(v)
            else:
                new = [c for c, _, _ in blocks[k]]
                if obeys(new, list(img)) and obeys(list(img), new):
                    extend(k + 1)
            img.clear()
            img.update(before)

    extend(0)
    return found


CENSUS_CHECK = [*catalog.catalog_keys(), "M(Q8,2)", "M(D16,2)"]


@pytest.mark.parametrize("key", CENSUS_CHECK)
def test_trivial_maps_match_an_independent_search(key, chein, get_enum):
    """The isomorphisms and anti-isomorphisms among the enumerated maps are
    exactly the ones built from generator images alone.

    The two searches share no pruning rule, so one that loses a trivial
    map shows up here, above the brute-force range too.  Proper half-maps
    get no second source from this check.
    """
    t = catalog.builtin(key).table if key in catalog.catalog_keys() else chein(key[2:key.index(",")])
    kinds = {HalfKind.ISOMORPHISM: set(), HalfKind.ANTI_ISOMORPHISM: set(), HalfKind.BOTH: set()}
    for m in get_enum(key, t).maps:
        kinds.get(classify(m).kind, set()).add(m.images)
    both = kinds[HalfKind.BOTH]
    assert kinds[HalfKind.ISOMORPHISM] | both == _generated_automorphisms(t, anti=False)
    assert kinds[HalfKind.ANTI_ISOMORPHISM] | both == _generated_automorphisms(t, anti=True)


def test_enumerator_matches_brute_force_on_z5(brute_force_half_maps):
    z5 = catalog.make_cyclic(5)
    enum = enumerate_half_automorphisms(z5)
    assert {m.images for m in enum.maps} == brute_force_half_maps(z5)


def test_half_maps_form_group(q2, q2_enum, s3, get_enum):
    assert half_maps_form_group_check(q2, q2_enum)
    assert half_maps_form_group_check(s3, get_enum("S3", s3))


def _hand_built(maps):
    """A complete enumeration of the given maps, each standing for itself."""
    return HalfEnumeration(HalfMaps(((tuple(maps), ()),)), True)


def test_group_check_negative_controls(q2, q2_enum):
    no_identity = _hand_built(q2_enum.maps[1:])
    assert not half_maps_form_group_check(q2, no_identity)
    dropped_last = _hand_built(q2_enum.maps[:-1])
    assert not half_maps_form_group_check(q2, dropped_last)


def _closed_with_identity(maps):
    """Reference: the set holds the identity and every composite a o b."""
    pool = {m.images for m in maps}
    n = len(next(iter(pool)))
    if tuple(range(1, n + 1)) not in pool:
        return False
    return all(tuple(a[b[i] - 1] for i in range(n)) in pool for a in pool for b in pool)


def _generated(seeds):
    """The subgroup generated by the seed images."""
    group = {tuple(range(1, len(seeds[0]) + 1))}
    frontier = list(group)
    for e in frontier:
        for a in seeds:
            c = tuple(e[a[i] - 1] for i in range(len(a)))
            if c not in group:
                group.add(c)
                frontier.append(c)
    return group


def test_group_check_matches_closure_reference(q2, q2_enum, chein12, get_enum):
    rng = random.Random(6)
    outcomes = set()
    for table, enum in ((q2, q2_enum), (chein12, get_enum("M(S3,2)", chein12))):
        ident, *rest = (m.images for m in enum.maps)
        subsets = [{ident, *rest}]
        for size in (1, 2, 3, len(rest) // 2, len(rest) - 1):
            subsets.append({ident, *rng.sample(rest, size)})
        for k in (1, 2):
            subsets.append(_generated(rng.sample(rest, k)))
        # product sets of two cyclic subgroups: groups only when the two permute
        for _ in range(30):
            a, b = rng.sample(rest, 2)
            subsets.append({tuple(x[y[i] - 1] for i in range(len(x)))
                            for x in _generated([a]) for y in _generated([b])})
        for subset in subsets:
            maps = tuple(m for m in enum.maps if m.images in subset)
            expected = _closed_with_identity(maps)
            assert half_maps_form_group_check(table, _hand_built(maps)) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def _breadth_first_group_check(L, enumeration):
    """Reference: the group check as a breadth-first closure.  Takes the
    maps in sorted order as generators while they enlarge the group,
    composes every element found with every generator so far, and fails
    at the first product outside the set."""
    pool = {m.images for m in enumeration.maps}
    group = {tuple(range(1, L.order + 1))}
    after = []  # one getter per generator a: e -> e after a
    for a in sorted(pool):
        if a in group:
            continue
        after.append(itemgetter(*[x - 1 for x in a]))
        frontier = list(group)
        for e in frontier:
            for g in after:
                c = g(e)
                if c not in group:
                    if c not in pool:
                        return False
                    group.add(c)
                    frontier.append(c)
    return group == pool


GROUP_CHECK = [key for key in catalog.catalog_keys() if catalog.builtin(key).table.order <= 20] + \
    ["M(Q8,2)", "M(D16,2)"]


@pytest.mark.parametrize("key", GROUP_CHECK)
def test_group_check_matches_the_breadth_first_closure(key, chein, get_enum):
    """The coset walk and the breadth-first closure agree on the complete
    enumeration and on seeded subsets of it: without the identity, with
    one map dropped, and, walked in shuffled order, random samples with
    and without the identity and the cyclic group of one map."""
    t = catalog.builtin(key).table if key in catalog.catalog_keys() else chein(key[2:key.index(",")])
    maps = get_enum(key, t).maps
    identity, rest = maps[0], list(maps[1:])
    assert identity.images == tuple(range(1, t.order + 1))
    subsets = [maps, rest]
    if rest:
        rng = random.Random("group-check-" + key)
        dropped = rng.choice(rest)
        subsets.append([m for m in maps if m is not dropped])
        for _ in range(3):
            sample = rng.sample(rest, rng.randint(1, len(rest)))
            subsets += [sample, [identity] + sample]
        cyclic = _generated([rng.choice(rest).images])
        subsets.append(rng.sample([m for m in maps if m.images in cyclic], len(cyclic)))
    verdicts = []
    for subset in subsets:
        enum = _hand_built(subset)
        verdicts.append(half_maps_form_group_check(t, enum))
        assert verdicts[-1] == _breadth_first_group_check(t, enum), len(verdicts) - 1
    # the whole set and a cyclic group pass; with one map, rest is empty and fails
    assert verdicts[0] and verdicts[-1] == bool(rest)


def test_group_check_rejects_inverse_closed_non_group(chein12, get_enum):
    maps = get_enum("M(S3,2)", chein12).maps
    by_images = {m.images: m for m in maps}
    n = chein12.order

    def order_above_3(a):
        square = tuple(a.images[i - 1] for i in a.images)
        cube = tuple(a.images[i - 1] for i in square)
        return len({tuple(range(1, n + 1)), a.images, square, cube}) == 4

    a = next(a for a in maps if order_above_3(a))
    inverse = [0] * n
    for i, v in enumerate(a.images):
        inverse[v - 1] = i + 1
    subset = (by_images[tuple(range(1, n + 1))], a, by_images[tuple(inverse)])
    assert not _closed_with_identity(subset)
    assert not half_maps_form_group_check(chein12, _hand_built(subset))


def test_pull_mask_reads_digits_at_the_images(q2_enum):
    rng = random.Random(4)
    for n, maps in ((1, [(1,)]), (8, [m.images for m in q2_enum.maps])):
        digits = ["".join(rng.choice("01") for _ in range(n)) for _ in range(n)]
        for t in maps:
            want = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)
                    if digits[t[x - 1] - 1][t[y - 1] - 1] == "1"]
            rows = translate_rows(d.encode() for d in digits)
            assert list(mask_pairs(pull_mask(rows, bytes(x - 1 for x in t)), n)) == want


def test_semi_isomorphism(phi1, phi2, q1):
    assert is_semi_isomorphism(phi1)
    assert is_semi_isomorphism(make_half_map(q1, q1, tuple(range(1, 17))))
    assert not is_semi_isomorphism(phi2)


def test_semi_isomorphism_on_a_non_flexible_loop(nonflex5):
    L = nonflex5
    assert not L.is_flexible()
    # refused on the loop itself and towards a relabeled copy
    for C in (L, _relabeled(L, 5)[0]):
        with pytest.raises(ValueError, match="flexible"):
            is_semi_isomorphism(HalfMap(L, C, tuple(range(1, 6))))


def test_gg_triples_phi1(phi1, q1):
    triples = find_gg_triples(phi1)
    assert len(triples) == 384
    assert triples[0] == GGTriple(2, 9, 3)
    rows = q1.rows
    images = phi1.images
    for x, y, z in triples[:20]:
        assert q1.commutator(x, y) != 1
        assert q1.commutator(x, z) != 1
        ixy = images[rows[x - 1][y - 1] - 1]
        assert ixy == rows[images[x - 1] - 1][images[y - 1] - 1]
        assert ixy != rows[images[y - 1] - 1][images[x - 1] - 1]
        ixz = images[rows[x - 1][z - 1] - 1]
        assert ixz == rows[images[z - 1] - 1][images[x - 1] - 1]
        assert ixz != rows[images[x - 1] - 1][images[z - 1] - 1]


def test_gg_triples_limit_and_phi2(phi1, phi2):
    assert len(find_gg_triples(phi1, limit=7)) == 7
    assert len(find_gg_triples(phi1, limit=1)) == 1
    for limit in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            find_gg_triples(phi1, limit=limit)
    # Q2 is not Moufang: its commutator word [3, 5] is 1 although 3*5 != 5*3,
    # and the triples follow the products
    q2 = phi2.domain
    assert q2.commutator(3, 5) == 1 and q2.mul(3, 5) != q2.mul(5, 3)
    triples = find_gg_triples(phi2)
    assert len(triples) == 16
    assert triples[0] == GGTriple(3, 5, 7)


def test_gg_triples_empty_for_trivial_maps(q2):
    ident = make_half_map(q2, q2, tuple(range(1, 9)))
    assert find_gg_triples(ident) == []


def test_d_set(phi1, phi2, q2):
    assert d_set(phi1) == frozenset(range(2, 17)) - {4}
    assert d_set(phi2) == frozenset({3, 4, 5, 6, 7, 8})
    assert d_set(make_half_map(q2, q2, tuple(range(1, 9)))) == frozenset()


def test_induced_on_quotient(phi1, phi2):
    down = induced_on_quotient(phi1)
    assert down.domain.order == 8
    assert down.images == tuple(range(1, 9))
    assert classify(down).kind is HalfKind.BOTH

    down = induced_on_quotient(phi2)
    assert down.domain.order == 4
    assert down.images == (1, 3, 2, 4)
    assert classify(down).kind is HalfKind.BOTH


def test_verify_main_theorem_on_group(s3):
    report = verify_main_theorem(s3, name="S3")
    assert report.hypotheses_hold
    assert report.moufang and report.automorphic
    assert report.automorphic_witness is None
    assert report.total == 12
    assert report.census[HalfKind.ISOMORPHISM] == 6
    assert report.census[HalfKind.ANTI_ISOMORPHISM] == 6
    assert report.census[HalfKind.PROPER_HALF] == 0
    assert report.proper_maps == ()
    assert "S3 (order 6)" in report.summary()


def test_verify_main_theorem_on_q1(q1):
    report = verify_main_theorem(q1, name="Q1")
    assert report.moufang
    assert is_left_automorphic(q1)
    assert not report.automorphic
    assert not report.hypotheses_hold
    assert "t[2]" in report.automorphic_witness
    assert report.total == 21504
    assert report.census[HalfKind.PROPER_HALF] == 18816
    # the report names the first few proper maps and counts the rest
    assert len(report.proper_maps) == PROPER_SHOWN == 3
    assert all(classify(m).kind is HalfKind.PROPER_HALF for m in report.proper_maps)


def test_theorem_report_is_a_copy_and_violations_raise_on_every_call(monkeypatch, q2):
    copy = LoopTable(q2.rows, name="Q2-copy")
    first = verify_main_theorem(copy)
    first.census[HalfKind.PROPER_HALF] = 0
    again = verify_main_theorem(copy)
    assert again.census[HalfKind.PROPER_HALF] == 8
    assert len(again.proper_maps) == PROPER_SHOWN

    # Q2 is automorphic but not Moufang; declaring it Moufang makes its
    # proper maps contradict the theorem, on the first and later calls
    monkeypatch.setattr(LoopTable, "is_moufang", lambda self: True)
    for _ in range(2):
        with pytest.raises(TheoremViolation, match="Q2-copy"):
            verify_main_theorem(copy)
