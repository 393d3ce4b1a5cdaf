"""Executable property suites over collections of loops.

Each suite quantifies one proved statement over every input satisfying
its hypothesis and reports: how many hypothesis instances it saw, how
many individual checks ran, and any violations.  Suites never assert;
callers decide what a violation or an empty hypothesis class means.
"""

from __future__ import annotations

from itertools import product

from . import subloops as sl
from .errors import QuotientError
from .halfmorph import (
    HalfKind,
    classify,
    coset_images,
    d_set,
    enumerate_half_automorphisms,
    find_gg_triples,
    half_census,
    half_maps_form_group_check,
    is_semi_isomorphism,
    make_half_map,
    mask_pairs,
    orbit_maps,
    pull_mask,
    weight,
    weighted_maps,
)
from .innermaps import bracketings, is_automorphic, is_left_automorphic, product_bytes, translate_rows
from .table import memoized


class SuiteResult:
    """The counts and findings of one suite; each result owns its lists."""

    __slots__ = ("name", "hypothesis_count", "check_count", "violations", "notes")

    def __init__(self, name: str, hypothesis_count: int = 0, check_count: int = 0,
                 violations: list | None = None, notes: list | None = None):
        self.name = name
        self.hypothesis_count = hypothesis_count
        self.check_count = check_count
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return not self.violations

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        text = "suite %-28s hypotheses=%-5d checks=%-8d violations=%d %s" % (
            self.name, self.hypothesis_count, self.check_count, len(self.violations), status
        )
        if self.notes:
            text += "  [%s]" % "; ".join(self.notes)
        return text


# -- structural suites (no enumeration needed) ------------------------


def suite_moufang_flag_agreement(inputs) -> SuiteResult:
    """The three Moufang identities hold or fail together on every table."""
    res = SuiteResult("moufang-flag-agreement")
    for name, t in inputs:
        res.hypothesis_count += 1
        flags = t.moufang_report()
        res.check_count += 3
        if len({flags.left, flags.right, flags.middle}) != 1:
            res.violations.append("%s: flags disagree %r" % (name, flags))
    return res


def suite_nuclei_coincide(inputs) -> SuiteResult:
    """On Moufang tables the three one-sided nuclei are equal."""
    res = SuiteResult("moufang-nuclei-coincide")
    for name, t in inputs:
        if not t.is_moufang():
            continue
        res.hypothesis_count += 1
        a = sl.nucleus_left(t).elements
        b = sl.nucleus_middle(t).elements
        c = sl.nucleus_right(t).elements
        res.check_count += 2
        if not (a == b == c):
            res.violations.append("%s: nuclei differ %r %r %r" % (name, a, b, c))
    return res


def suite_lagrange(inputs) -> SuiteResult:
    """Orders of the standard derived subloops divide the loop order
    on Moufang tables."""
    res = SuiteResult("moufang-lagrange")
    for name, t in inputs:
        if not t.is_moufang():
            continue
        res.hypothesis_count += 1
        parts = {
            "nucleus": sl.nucleus(t),
            "center": sl.center(t),
            "commutator-subloop": sl.commutator_subloop(t),
            "associator-subloop": sl.associator_subloop(t),
        }
        sylow = sl.sylow_subloop(t, 2)
        if sylow.subloop is not None:
            parts["sylow-2"] = sylow.subloop
        hall = sl.hall_3prime_subgroup(t)
        if hall.subloop is not None:
            parts["hall-3prime"] = hall.subloop
        for label, H in parts.items():
            res.check_count += 1
            if t.order % len(H):
                res.violations.append(
                    "%s: %s has order %d, not a divisor of %d" % (name, label, len(H), t.order)
                )
    return res


def suite_quotient_homomorphism(inputs) -> SuiteResult:
    """Projections onto quotients by normal derived subloops are
    homomorphisms with the expected kernel.

    sl.quotient raises QuotientError unless the projection preserves
    every product (see its docstring), so each quotient built here counts
    n*n product checks and the kernel check."""
    res = SuiteResult("quotient-projection")
    for name, t in inputs:
        C = sl.commutator_subloop(t)
        try:
            commutator_q = sl.quotient(t, C)
        except QuotientError:  # C is not normal (see sl.is_normal)
            commutator_q = None
        for label, H, q in (("commutator", C, commutator_q),
                            ("associator", sl.associator_subloop(t), sl.associator_quotient(t))):
            if q is None:
                continue
            res.hypothesis_count += 1
            hset = set(H.elements)
            kernel = {x for x in t.elements if q.projection[x - 1] == 1}
            res.check_count += t.order * t.order + 1
            if kernel != hset:
                res.violations.append("%s: %s quotient kernel %r != %r" % (name, label, kernel, hset))
    return res


def suite_sylow_factorization(inputs) -> SuiteResult:
    """Automorphic Moufang tables factor as S * N with S a biggest-3-power
    subloop and N the nucleus."""
    res = SuiteResult("sylow-nucleus-factorization")
    for name, t in inputs:
        if not (t.is_moufang() and is_automorphic(t)):
            continue
        res.hypothesis_count += 1
        sylow = sl.sylow_subloop(t, 3)
        if sylow.subloop is None:
            res.violations.append("%s: no exact 3-power subloop (target %d)" % (name, sylow.target))
            continue
        nuc = set(sl.nucleus(t).elements)
        products = set()
        for s in sylow.subloop.elements:
            for v in nuc:
                products.add(t.rows[s - 1][v - 1])
        res.check_count += 1
        if products != set(t.elements):
            res.violations.append("%s: S*N covers %d of %d elements" % (name, len(products), t.order))
    return res


def suite_bruck(inputs):
    """Classical identities for loops whose left inner maps are all
    automorphisms and whose table is Moufang.

    Returns five SuiteResults: commutators land in the nucleus, the
    expansion [u*v,t] = ([u,t]*[[u,t],v])*[v,t] holds modulo the
    associator subloop (exactly, when the table is associative), nucleus
    factors drop out of associator values, cubes land in the nucleus
    (two-sided automorphic case only), and associator subloops of
    small-generated subloops are central in them.
    """
    r_comm = SuiteResult("bruck-commutators-in-nucleus")
    r_expand = SuiteResult("bruck-commutator-expansion")
    r_absorb = SuiteResult("bruck-nucleus-absorption")
    r_cubes = SuiteResult("bruck-cubes-in-nucleus")
    r_3gen = SuiteResult("bruck-3gen-associator-central")
    for name, t in inputs:
        if not (t.is_moufang() and is_left_automorphic(t)):
            continue
        rows = t.rows
        comm = t.commutators()
        nuc = set(sl.nucleus(t).elements)
        for r in (r_comm, r_expand, r_absorb, r_3gen):
            r.hypothesis_count += 1

        for u in t.elements:
            for v in t.elements:
                r_comm.check_count += 1
                if comm[u - 1][v - 1] not in nuc:
                    r_comm.violations.append("%s: [%d,%d] outside the nucleus" % (name, u, v))

        # the quotient by the associator subloop is a group, so the group
        # expansion of [u*v,w] holds there; compare cosets, which is an
        # exact comparison whenever the table is associative
        q = sl.associator_quotient(t)
        proj = None if q is None else q.projection
        for u in t.elements:
            for v in t.elements:
                uv = rows[u - 1][v - 1]
                for w in t.elements:
                    r_expand.check_count += 1
                    lhs = comm[uv - 1][w - 1]
                    ut = comm[u - 1][w - 1]
                    rhs = rows[rows[ut - 1][comm[ut - 1][v - 1] - 1] - 1][comm[v - 1][w - 1] - 1]
                    if proj is not None:
                        same = proj[lhs - 1] == proj[rhs - 1]
                    else:
                        same = lhs == rhs
                    if not same:
                        r_expand.violations.append(
                            "%s: [%d*%d,%d] = %d not matched by the expansion value %d" % (name, u, v, w, lhs, rhs)
                        )

        # values[u-1][v-1]: the bytes (u, v, w) - 1 over w; zero where (u, v) associates
        over, R, ld = bytes(range(t.order)), product_bytes(t).rows, t._ld
        values = [tuple(bytes(ld[i][j] - 1 for i, j in zip(p, q)) if p != q else bytes(t.order)
                        for p, q in (bracketings(R, u, v, over) for v in over)) for u in over]
        for a in nuc:
            for u in t.elements:
                base, left, right = values[u - 1], values[rows[a - 1][u - 1] - 1], values[rows[u - 1][a - 1] - 1]
                r_absorb.check_count += 2 * t.order * t.order
                if left != base or right != base:
                    for v, w in product(range(t.order), repeat=2):
                        if left[v][w] != base[v][w] or right[v][w] != base[v][w]:
                            r_absorb.violations.append(
                                "%s: nucleus factor %d shifts associator (%d,%d,%d)" % (name, a, u, v + 1, w + 1)
                            )

        if is_automorphic(t):
            r_cubes.hypothesis_count += 1
            for u in t.elements:
                r_cubes.check_count += 1
                cube = rows[u - 1][rows[u - 1][u - 1] - 1]
                if cube not in nuc:
                    r_cubes.violations.append("%s: %d cubed lands outside the nucleus" % (name, u))

        for elements, sub in sl.three_generated_tables(t):
            inner = set(sl.associator_subloop(sub).elements)
            central = set(sl.center(sub).elements)
            r_3gen.check_count += 1
            if not inner <= central:
                r_3gen.violations.append(
                    "%s: subloop %r has associator subloop %r outside its center %r"
                    % (name, elements, sorted(inner), sorted(central))
                )
    return [r_comm, r_expand, r_absorb, r_cubes, r_3gen]


# -- enumeration-backed suites ----------------------------------------


def suite_main_theorem(inputs, max_order=None) -> SuiteResult:
    """Zero proper half-morphisms on loops that are Moufang with all
    inner maps automorphisms; reads the census of every input."""
    res = SuiteResult("main-theorem")
    for name, t in inputs:
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s (order %d above threshold)" % (name, t.order))
            continue
        census = dict(half_census(t).counts)
        res.check_count += sum(census.values())
        if t.is_moufang() and is_automorphic(t):
            res.hypothesis_count += 1
            if census[HalfKind.PROPER_HALF]:
                res.violations.append(
                    "%s: %d proper maps despite both hypotheses" % (name, census[HalfKind.PROPER_HALF])
                )
    return res


def suite_half_group(inputs, max_order=None) -> SuiteResult:
    """Complete half-morphism sets are groups under composition, as they
    are on every finite loop, so this tests the enumeration (see
    half_maps_form_group_check)."""
    res = SuiteResult("half-maps-form-group")
    for name, t in inputs:
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s" % name)
            continue
        enum = enumerate_half_automorphisms(t)
        res.hypothesis_count += 1
        res.check_count += 2 * len(enum.maps)
        if not half_maps_form_group_check(t, enum):
            res.violations.append("%s: enumerated maps are not closed" % name)
    return res


def suite_semi_isomorphism(inputs, max_order=None) -> SuiteResult:
    """Every half-morphism of a Moufang table preserves x*y*x products:
    t((u*v)*u) = (t(u)*t(v))*t(u).

    Checked once per searched map s and counted for each alpha o s
    (weighted_maps): with t = alpha o s, t((u*v)*u) = alpha(s((u*v)*u))
    and (t(u)*t(v))*t(u) = alpha((s(u)*s(v))*s(u)), and alpha is
    injective."""
    res = SuiteResult("semi-isomorphism")
    for name, t in inputs:
        if not t.is_moufang():
            continue
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s" % name)
            continue
        res.hypothesis_count += 1
        for s, ts in weighted_maps(enumerate_half_automorphisms(t)):
            res.check_count += weight(ts)
            if not is_semi_isomorphism(s):
                res.violations += ["%s: map %s breaks the sandwich law" % (name, m.cycles())
                                   for m in orbit_maps(s, ts)]
    return res


def suite_gg_witness(inputs, max_order=None) -> SuiteResult:
    """Every proper half-morphism of a Moufang table has a witness
    triple: an element that fails to commute with a forward-only partner
    and a reversed-only partner.

    The triple search runs once per searched map s and its answer holds
    for each alpha o s (weighted_maps): properness and the search read
    only the domain and the masks, and alpha o s carries the masks of s.
    A map is proper, as classify says, when neither of its masks is
    full."""
    res = SuiteResult("proper-half-witness-triples")
    for name, t in inputs:
        if not t.is_moufang():
            continue
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s" % name)
            continue
        full = (1 << t.order * t.order) - 1
        for s, ts in weighted_maps(enumerate_half_automorphisms(t)):
            if full in (s.hom, s.anti):
                continue
            res.hypothesis_count += weight(ts)
            res.check_count += weight(ts)
            if not find_gg_triples(s, limit=1):
                res.violations += ["%s: proper map %s has no witness triple" % (name, m.cycles())
                                   for m in orbit_maps(s, ts)]
    return res


def suite_odd_order_trivial(inputs, max_order=None) -> SuiteResult:
    """Odd-order Moufang tables carry no proper half-morphisms."""
    res = SuiteResult("odd-order-trivial")
    for name, t in inputs:
        if t.order % 2 == 0 or not t.is_moufang():
            continue
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s" % name)
            continue
        census = half_census(t)
        res.hypothesis_count += 1
        res.check_count += sum(count for _, count in census.counts)
        res.violations += ["%s: odd order yet proper map %s" % (name, m.cycles())
                           for pair in census.proper for m in orbit_maps(*pair)]
    return res


@memoized
def _induced_kind(L):
    """The per-map function of the two quotient suites on the maps of L,
    for the associator subloop A of L and the quotient q by it, which must
    exist.  Its value is None when the map does not carry A onto itself,
    False when the map it induces on the cosets is not well defined, and
    otherwise the HalfKind of the induced map.  It is built once per
    table and computes its value once per map, classifying once per
    distinct induced image tuple, so the two suites share that work when
    a table is its own three-generated subloop, as Q1 is.

    The value on alpha o s equals the value on s for every automorphism
    alpha, so weighted_maps may count it for both: A is characteristic, so
    alpha(A) = A and alpha induces an automorphism alpha' of the quotient;
    s is well defined on cosets exactly when alpha o s is, and alpha o s
    induces alpha' o s', which has the kind of s'.
    """
    aset = set(sl.associator_subloop(L).elements)
    q = sl.associator_quotient(L)
    proj = q.projection
    kinds = {}   # induced image tuple -> its HalfKind
    values = {}  # the images of a map -> its value

    def value(m):
        if {m.images[a - 1] for a in aset} != aset:
            return None
        try:
            key = coset_images(m, proj, proj)
        except ValueError:
            return False
        if key not in kinds:
            kinds[key] = classify(make_half_map(q.table, q.table, key)).kind
        return kinds[key]

    def kind(m):
        if m.images not in values:
            values[m.images] = value(m)
        return values[m.images]

    return kind


def suite_induced_quotient(inputs, max_order=None) -> SuiteResult:
    """Pushing any half-morphism down to the associator quotient gives a
    trivial map whenever that quotient is a group and the map fixes the
    associator subloop setwise.

    Induced images are computed in place once per searched map and their
    kind counted for its compositions (see _induced_kind).
    """
    res = SuiteResult("induced-quotient-trivial")
    for name, t in inputs:
        q = sl.associator_quotient(t)
        if q is None or not q.table.is_associative():
            continue
        if max_order is not None and t.order > max_order:
            res.notes.append("skipped %s" % name)
            continue
        induced = _induced_kind(t)
        for s, ts in weighted_maps(enumerate_half_automorphisms(t)):
            kind = induced(s)
            if kind is None:
                continue
            res.hypothesis_count += weight(ts)
            res.check_count += weight(ts)
            text = {False: "%s: %s has no well-defined quotient image",
                    HalfKind.PROPER_HALF: "%s: induced image of %s is proper"}.get(kind)
            if text:
                res.violations += [text % (name, m.cycles()) for m in orbit_maps(s, ts)]
    return res


def _d_set_verdict(sub, where):
    """The per-map function of suite_commutator_d_set on the subloop sub,
    whose associator subloop must be normal, with where the prefix of
    violation lines.  Its value is None outside the hypothesis, else the
    check count and the violations.

    weighted_maps may count it for s and each alpha o s: the hypothesis is
    _induced_kind's; the d-set and the anti mask read only the masks,
    which alpha o s carries; the center is characteristic and
    alpha([a, b]) = [alpha(a), alpha(b)], so the central-pair pull mask of
    alpha o s equals that of s; and the violation lines name only pairs of
    the domain.
    """
    induced = _induced_kind(sub)
    derived = set(sl.commutator_subloop(sub).elements)
    central = set(sl.center(sub).elements)
    n = sub.order
    digits = ["".join("1" if c in central else "0" for c in row) for row in sub.commutators()]
    central_rows = translate_rows(d.encode() for d in digits)
    central_pairs = pull_mask(central_rows, bytes(range(n)))
    # elements with a non-central commutator against the derived subloop
    offenders = {g for g in sub.elements if any(digits[d - 1][g - 1] == "0" for d in derived)}

    def verdict(m):
        if induced(m) not in (HalfKind.ISOMORPHISM, HalfKind.BOTH):
            return None
        dset = d_set(m)
        violations = []
        if not offenders.isdisjoint(dset):
            for d in derived:
                for g in dset:
                    if digits[d - 1][g - 1] == "0":
                        violations.append("%s: [%d,%d] not central" % (where, d, g))
        failing = m.anti & ~(central_pairs & pull_mask(central_rows, m.image_bytes))
        for u, v in mask_pairs(failing, n):
            violations.append("%s: reversed pair (%d,%d) has a non-central commutator" % (where, u, v))
        return len(derived) * len(dset) + m.anti.bit_count(), tuple(violations)

    return verdict


def suite_commutator_d_set(inputs, max_order=None) -> SuiteResult:
    """Central-commutator facts for half-morphisms of 3-generated
    left-automorphic Moufang subloops whose induced associator-quotient
    map preserves products: commutators of derived-subloop elements
    against reversed-only elements are central, and every pair obeying
    the reversed law has a central commutator on both sides of the map.

    Each verdict is computed once per searched map and counted for its
    compositions (see _d_set_verdict)."""
    res = SuiteResult("commutator-d-set-central")
    for name, t in inputs:
        for elements, sub in sl.three_generated_tables(t):
            if not (sub.is_moufang() and is_left_automorphic(sub)):
                continue
            if sl.associator_quotient(sub) is None:
                continue
            if max_order is not None and sub.order > max_order:
                label = name if sub is t else "%s!%s" % (name, ",".join(map(str, elements)))
                res.notes.append("skipped %s" % label)
                continue
            verdict = _d_set_verdict(sub, "%s sub %r" % (name, elements))
            for s, ts in weighted_maps(enumerate_half_automorphisms(sub)):
                value = verdict(s)
                if value is not None:
                    checks, violations = value
                    res.hypothesis_count += weight(ts)
                    res.check_count += checks * (weight(ts))
                    res.violations += violations * (weight(ts))
    return res


def run_theorem_suites(inputs, max_order=None):
    """Run every suite over the given (name, table) list."""
    results = [
        suite_moufang_flag_agreement(inputs),
        suite_nuclei_coincide(inputs),
        suite_lagrange(inputs),
        suite_quotient_homomorphism(inputs),
        suite_sylow_factorization(inputs),
    ]
    results.extend(suite_bruck(inputs))
    results.extend([
        suite_main_theorem(inputs, max_order),
        suite_half_group(inputs, max_order),
        suite_semi_isomorphism(inputs, max_order),
        suite_gg_witness(inputs, max_order),
        suite_odd_order_trivial(inputs, max_order),
        suite_induced_quotient(inputs, max_order),
        suite_commutator_d_set(inputs, max_order),
    ])
    return results
