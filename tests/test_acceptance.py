"""Acceptance gate: ten numbered criteria, each reporting one PASS/FAIL
line with its headline numbers and, where bounded, its runtime."""

from __future__ import annotations

import time

from loopsmith import catalog
from loopsmith.halfmorph import (
    GGTriple,
    HalfKind,
    classify,
    find_gg_triples,
    half_maps_form_group_check,
    induced_on_quotient,
    is_semi_isomorphism,
    make_half_map,
)
from loopsmith.innermaps import (
    cycles_str,
    inner_map_witness,
    is_automorphic,
    is_left_automorphic,
    perm_from_cycles,
)
from loopsmith.suites import (
    suite_bruck,
    suite_lagrange,
    suite_moufang_flag_agreement,
    suite_nuclei_coincide,
    suite_quotient_homomorphism,
    suite_sylow_factorization,
)
from loopsmith.table import validate

GROUP_KEYS = tuple("Z%d" % n for n in range(1, 17)) + (
    "D6", "D8", "D10", "D12", "D14", "D16", "S3", "Q8",
)


def _report(capsys, number, ok, text):
    with capsys.disabled():
        print("criterion %02d %s: %s" % (number, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %02d: %s" % (number, text)


def _mismatch(label, got, want):
    return None if got == want else "%s: got %r, wanted %r" % (label, got, want)


def test_criterion_01_q1_golden(capsys, q1):
    t0 = time.perf_counter()
    problems = []
    report = validate(q1.rows)
    if not report.is_loop:
        problems.append("stored table fails validation")
    flags = q1.moufang_report()
    problems.append(_mismatch("moufang flags", (flags.left, flags.right, flags.middle),
                              (True, True, True)))
    problems.append(_mismatch("left automorphic", is_left_automorphic(q1), True))
    problems.append(_mismatch("automorphic", is_automorphic(q1), False))
    witness = inner_map_witness(q1)
    witness_text = "none"
    if witness is None:
        problems.append("no inner-map witness returned")
    else:
        family, x, _, perm = witness
        witness_text = "%s[%d] = %s" % (family, x, cycles_str(perm))
    phi = make_half_map(q1, q1, perm_from_cycles(16, [(5, 8)]))
    problems.append(_mismatch("kind", classify(phi).kind, HalfKind.PROPER_HALF))
    a = q1.mul(2, 7)
    problems.append(_mismatch("map value at 2*7", phi.images[a - 1], 8))
    problems.append(_mismatch("product of images at (2,7)",
                              q1.mul(phi.images[2 - 1], phi.images[7 - 1]), 5))
    b = q1.mul(3, 9)
    problems.append(_mismatch("map value at 3*9", phi.images[b - 1], 15))
    problems.append(_mismatch("reversed product of images at (3,9)",
                              q1.mul(phi.images[9 - 1], phi.images[3 - 1]), 11))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append("took %.2fs, budget 1s" % elapsed)
    problems = [p for p in problems if p]
    _report(capsys, 1, not problems,
            "; ".join(problems) or
            "order-16 table golden values hold, non-automorphism witness %s (%.2fs)"
            % (witness_text, elapsed))


def test_criterion_02_q2_golden(capsys, q2):
    t0 = time.perf_counter()
    problems = []
    if not validate(q2.rows).is_loop:
        problems.append("stored table fails validation")
    problems.append(_mismatch("automorphic", is_automorphic(q2), True))
    problems.append(_mismatch("moufang", q2.is_moufang(), False))
    phi = make_half_map(q2, q2, perm_from_cycles(8, [(3, 5), (4, 6), (7, 8)]))
    problems.append(_mismatch("kind", classify(phi).kind, HalfKind.PROPER_HALF))
    a = q2.mul(4, 6)
    problems.append(_mismatch("map value at 4*6", phi.images[a - 1], 8))
    problems.append(_mismatch("reversed product of images at (4,6)",
                              q2.mul(phi.images[6 - 1], phi.images[4 - 1]), 7))
    b = q2.mul(4, 8)
    problems.append(_mismatch("map value at 4*8", phi.images[b - 1], 4))
    problems.append(_mismatch("product of images at (4,8)",
                              q2.mul(phi.images[4 - 1], phi.images[8 - 1]), 3))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append("took %.2fs, budget 1s" % elapsed)
    problems = [p for p in problems if p]
    _report(capsys, 2, not problems,
            "; ".join(problems) or
            "order-8 table golden values hold (%.2fs)" % elapsed)


def test_criterion_03_trivial_on_groups_and_automorphic_moufang(capsys, get_enum):
    t0 = time.perf_counter()
    targets = {key: catalog.builtin(key).table for key in GROUP_KEYS}
    for entry in catalog.entries():
        if entry.table.is_moufang() and is_automorphic(entry.table):
            targets.setdefault(entry.key, entry.table)
    problems = []
    maps_seen = 0
    for key, t in sorted(targets.items()):
        enum = get_enum(key, t)
        if not enum.complete:
            problems.append("%s: enumeration incomplete" % key)
            continue
        maps_seen += len(enum.maps)
        proper = sum(1 for m in enum.maps if classify(m).kind is HalfKind.PROPER_HALF)
        if proper:
            problems.append("%s: %d proper maps" % (key, proper))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        problems.append("took %.1fs, budget 300s" % elapsed)
    _report(capsys, 3, not problems,
            "; ".join(problems) or
            "zero proper maps across %d loops, %d maps enumerated (%.2fs)"
            % (len(targets), maps_seen, elapsed))


def test_criterion_04_enumerator_equals_brute_force(capsys, get_enum, brute_force_half_maps):
    t0 = time.perf_counter()
    problems = []
    checked = 0
    for entry in catalog.entries():
        t = entry.table
        if t.order > 8:
            continue
        checked += 1
        enum = get_enum(entry.key, t)
        pruned = {m.images for m in enum.maps}
        brute = brute_force_half_maps(t)
        if pruned != brute:
            problems.append("%s: pruned %d maps, brute force %d"
                            % (entry.key, len(pruned), len(brute)))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append("took %.1fs, budget 60s" % elapsed)
    _report(capsys, 4, not problems,
            "; ".join(problems) or
            "exact set equality on all %d loops of order <= 8 (%.2fs)" % (checked, elapsed))


def test_criterion_05_half_maps_form_groups(capsys, get_enum):
    problems = []
    for entry in catalog.entries():
        enum = get_enum(entry.key, entry.table)
        if not enum.complete:
            problems.append("%s: enumeration incomplete" % entry.key)
        elif not half_maps_form_group_check(entry.table, enum):
            problems.append("%s: not closed under composition and inverse" % entry.key)
    _report(capsys, 5, not problems,
            "; ".join(problems) or
            "all %d complete half-morphism sets are groups" % len(catalog.entries()))


def test_criterion_06_semi_isomorphism_sweep(capsys, get_enum):
    problems = []
    checked = 0
    for entry in catalog.entries():
        if not entry.table.is_moufang():
            continue
        enum = get_enum(entry.key, entry.table)
        for m in enum.maps:
            checked += 1
            if not is_semi_isomorphism(m):
                problems.append("%s: %s breaks the sandwich law" % (entry.key, m.cycles()))
    _report(capsys, 6, not problems,
            "; ".join(problems[:3]) or
            "sandwich law holds for all %d half-morphisms of Moufang tables" % checked)


def test_criterion_07_witness_triples_exist(capsys, get_enum, phi1):
    problems = []
    proper_seen = 0
    for entry in catalog.entries():
        if not entry.table.is_moufang():
            continue
        enum = get_enum(entry.key, entry.table)
        for m in enum.maps:
            if classify(m).kind is not HalfKind.PROPER_HALF:
                continue
            proper_seen += 1
            if not find_gg_triples(m, limit=1):
                problems.append("%s: %s has no witness triple" % (entry.key, m.cycles()))
    if proper_seen == 0:
        problems.append("no proper maps found, sweep is vacuous")
    triples = find_gg_triples(phi1)
    problems.append(_mismatch("featured map triple count", len(triples), 384))
    problems.append(_mismatch("first featured triple", triples[0], GGTriple(2, 9, 3)))
    problems = [p for p in problems if p]
    _report(capsys, 7, not problems,
            "; ".join(problems[:3]) or
            "witness triples found for all %d proper maps; featured map has 384, first (2,9,3)"
            % proper_seen)


def test_criterion_08_bruck_suites(capsys):
    t0 = time.perf_counter()
    inputs = [(e.key, e.table) for e in catalog.entries()]
    results = suite_bruck(inputs)
    problems = []
    for r in results:
        if r.hypothesis_count == 0:
            problems.append("%s: vacuous" % r.name)
        if r.violations:
            problems.append("%s: %d violations, first: %s"
                            % (r.name, len(r.violations), r.violations[0]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append("took %.1fs, budget 120s" % elapsed)
    checks = sum(r.check_count for r in results)
    _report(capsys, 8, not problems,
            "; ".join(problems[:3]) or
            "five identity suites clean over the catalog, %d checks (%.2fs)" % (checks, elapsed))


def test_criterion_09_structural_suites(capsys):
    inputs = [(e.key, e.table) for e in catalog.entries()]
    results = [
        suite_moufang_flag_agreement(inputs),
        suite_nuclei_coincide(inputs),
        suite_lagrange(inputs),
        suite_quotient_homomorphism(inputs),
        suite_sylow_factorization(inputs),
    ]
    problems = []
    for r in results:
        if r.hypothesis_count == 0:
            problems.append("%s: vacuous" % r.name)
        if r.violations:
            problems.append("%s: %d violations, first: %s"
                            % (r.name, len(r.violations), r.violations[0]))
    checks = sum(r.check_count for r in results)
    _report(capsys, 9, not problems,
            "; ".join(problems[:3]) or
            "structural suites clean over the catalog, %d checks" % checks)


def test_criterion_10_induced_quotient_map_is_trivial(capsys, phi1):
    problems = []
    down = induced_on_quotient(phi1)
    problems.append(_mismatch("quotient order", down.domain.order, 8))
    kind = classify(down).kind
    if kind is HalfKind.PROPER_HALF:
        problems.append("induced map still classifies proper-half")
    problems = [p for p in problems if p]
    _report(capsys, 10, not problems,
            "; ".join(problems) or
            "induced map on the order-8 quotient classifies %s" % kind.value)
