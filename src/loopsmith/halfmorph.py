"""Half-morphisms: bijections sending each product to one of the two
possible image products.

For a bijection t between loops of the same order the defining law is
t(x*y) in {t(x)*t(y), t(y)*t(x)} for every pair.  Maps where one law
holds globally (isomorphisms, anti-isomorphisms) are called trivial;
the interesting objects are the proper ones where both laws are needed.

A HalfMap asks the per-pair question once, when it is built, and keeps
the answers as two int bitmasks: bit (x-1)*n + (y-1) of ``hom`` is set
when t(x*y) = t(x)*t(y), the same bit of ``anti`` when t(x*y) =
t(y)*t(x).  Everything downstream reads these masks.

A mask is read as a base-2 digit string: pair (n, n) first, pair (1, 1)
last as bit 0, the order in which innermaps.gather lists the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import HalfMapError, InternalCheckError, TheoremViolation
from .innermaps import (check_bijection, cycles_str, gather, inner_map_witness,
                        is_left_automorphic, push_products, pusher)
from .subloops import associator_subloop, quotient
from .table import LoopTable, memoized


@dataclass(frozen=True)
class HalfMap:
    """A bijection with its law masks; construct through make_half_map.

    hom and anti hold one bit per pair, row x in bits (x-1)*n onwards:
    the forward and the reversed law.  The map is a half-morphism exactly
    when hom | anti has all n*n bits set.
    """

    domain: LoopTable
    codomain: LoopTable
    images: tuple
    hom: int = field(init=False, repr=False, compare=False)
    anti: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        got = push_products(self.domain)(self.images)
        object.__setattr__(self, "hom", _agreement(got, gather(self.codomain.rows, self.images)))
        object.__setattr__(self, "anti", _agreement(got, gather(_columns(self.codomain), self.images)))

    def apply(self, x):
        return self.images[x - 1]

    def cycles(self) -> str:
        return cycles_str(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def broken_pair(self):
        """The least pair obeying neither law, or None."""
        n = self.domain.order
        return next(mask_pairs(~(self.hom | self.anti) & ((1 << n * n) - 1), n), None)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _agreement(a, b):
    """The pair mask of the pairs where two sequences in gather order agree."""
    return int(bytearray(map(eq, a, b)).translate(_DIGITS), 2)


@memoized
def _columns(L):
    """The transposed rows: entry [y-1][x-1] is x*y."""
    return tuple(zip(*L.rows))


def mask_pairs(mask, n):
    """The pairs (x, y) whose bits are set in a pair mask, ascending."""
    while mask:
        low = mask & -mask
        x, y = divmod(low.bit_length() - 1, n)
        yield x + 1, y + 1
        mask ^= low


def pull_mask(digits, images):
    """The pair mask whose bit (x, y) is digits[t(x)-1][t(y)-1], for rows
    of "0"/"1" digits and the images of a bijection t."""
    return int("".join(gather(digits, images)), 2)


def make_half_map(domain, codomain, images) -> HalfMap:
    """Validate a bijection as a half-morphism.

    Raises ValueError for degree or bijection defects and HalfMapError,
    carrying the first failing pair and all three products, when the
    half law breaks.
    """
    n = domain.order
    if codomain.order != n:
        raise ValueError("domain order %d vs codomain order %d" % (n, codomain.order))
    images = tuple(images)
    if len(images) != n:
        raise ValueError("expected %d images, got %d" % (n, len(images)))
    check_bijection(images, n)
    m = HalfMap(domain, codomain, images)
    broken = m.broken_pair()
    if broken is not None:
        x, y = broken
        ix, iy = images[x - 1], images[y - 1]
        raise HalfMapError(x, y, images[domain.rows[x - 1][y - 1] - 1],
                           codomain.rows[ix - 1][iy - 1], codomain.rows[iy - 1][ix - 1])
    return m


class HalfKind(Enum):
    ISOMORPHISM = "isomorphism"
    ANTI_ISOMORPHISM = "anti-isomorphism"
    BOTH = "both"
    PROPER_HALF = "proper-half"


@dataclass
class HalfClass:
    """Per-pair census of the two laws for one half-morphism.

    witness_hom is the lexicographically least pair satisfying only the
    forward law, witness_anti the least pair satisfying only the
    reversed law; each is None when no such pair exists.
    """

    kind: HalfKind
    hom_pairs: int
    anti_pairs: int
    witness_hom: tuple | None
    witness_anti: tuple | None

    @property
    def trivial(self) -> bool:
        return self.kind is not HalfKind.PROPER_HALF


def classify(m: HalfMap) -> HalfClass:
    broken = m.broken_pair()
    if broken is not None:
        raise InternalCheckError("half map broke its law at (%d, %d)" % broken)
    n = m.domain.order
    full = (1 << n * n) - 1
    hom, anti = m.hom, m.anti
    if hom == full:
        kind = HalfKind.BOTH if anti == full else HalfKind.ISOMORPHISM
    elif anti == full:
        kind = HalfKind.ANTI_ISOMORPHISM
    else:
        kind = HalfKind.PROPER_HALF
    return HalfClass(kind, hom.bit_count(), anti.bit_count(),
                     next(mask_pairs(hom & ~anti, n), None),
                     next(mask_pairs(anti & ~hom, n), None))


# -- exhaustive enumeration -------------------------------------------


@dataclass
class HalfEnumeration:
    maps: tuple
    complete: bool


def enumerate_half_automorphisms(L, limit=None) -> HalfEnumeration:
    """All half-morphisms from a loop to itself, in image-tuple order.

    Depth-first search assigning images in ascending element order.  A
    partial assignment dies as soon as any fully-mapped pair breaks the
    law, when the two admissible images of a mapped pair's product are
    both taken, or when the mirror conditions through preimages fail
    (sound because these maps form a group under composition, so the
    inverse of any completed map is again one).  Every leaf is
    revalidated from scratch before being kept.

    With limit set, the search stops after that many maps and the result
    is flagged incomplete; such results must not feed census claims.  A
    complete result is kept in the table's memo and returned to every
    later call without a limit; a limited result is never stored.
    """
    if limit is None:
        return _complete_enumeration(L)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return _search(L, limit)


@memoized
def _complete_enumeration(L):
    return _search(L, None)


def _search(L, limit):
    n = L.order
    mul = [[0] * (n + 1)]
    for r in L.rows:
        mul.append([0] + list(r))
    by_product = [[] for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            by_product[mul[a][b]].append((a, b))
    img = [0] * (n + 1)
    pre = [0] * (n + 1)
    img[1] = pre[1] = 1
    found = []
    stopped = False

    def consistent(x):
        w = img[x]
        for y in range(1, x + 1):
            iy = img[y]
            u = mul[w][iy]
            v = mul[iy][w]
            c = mul[x][y]
            ic = img[c]
            if ic:
                if ic != u and ic != v:
                    return False
            elif pre[u] and pre[v]:
                return False
            c = mul[y][x]
            ic = img[c]
            if ic:
                if ic != u and ic != v:
                    return False
            elif pre[u] and pre[v]:
                return False
            # mirror through preimages: the inverse must also obey the law
            u2 = mul[x][y]
            v2 = mul[y][x]
            d = mul[w][iy]
            pd = pre[d]
            if pd:
                if pd != u2 and pd != v2:
                    return False
            elif img[u2] and img[v2]:
                return False
            d = mul[iy][w]
            pd = pre[d]
            if pd:
                if pd != u2 and pd != v2:
                    return False
            elif img[u2] and img[v2]:
                return False
        for a, b in by_product[x]:
            ia = img[a]
            ib = img[b]
            if ia and ib and w != mul[ia][ib] and w != mul[ib][ia]:
                return False
        for a, b in by_product[w]:
            pa = pre[a]
            pb = pre[b]
            if pa and pb and x != mul[pa][pb] and x != mul[pb][pa]:
                return False
        return True

    def dfs(x):
        nonlocal stopped
        if x > n:
            found.append(make_half_map(L, L, tuple(img[1:])))
            if limit is not None and len(found) >= limit:
                stopped = True
            return
        for w in range(1, n + 1):
            if pre[w]:
                continue
            img[x] = w
            pre[w] = x
            if consistent(x):
                dfs(x + 1)
            img[x] = 0
            pre[w] = 0
            if stopped:
                return

    dfs(2)
    found.sort(key=lambda m: m.images)
    return HalfEnumeration(tuple(found), not stopped)


def half_maps_form_group_check(L, enumeration=None) -> bool:
    """The complete set of half-morphisms of a loop is a group under
    composition.

    A finite set of bijections that contains the identity and is closed
    under composition is a group, so the check grows the generated group
    breadth first and fails at the first product outside the set.
    Generators are taken in sorted order only while they enlarge the
    group.
    """
    if enumeration is None:
        enumeration = enumerate_half_automorphisms(L)
    if not enumeration.complete:
        raise ValueError("group check needs a complete enumeration")
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


# -- derived maps and special laws ------------------------------------


def is_semi_isomorphism(m: HalfMap) -> bool:
    """t((u*v)*u) = (t(u)*t(v))*t(u) for all u, v.

    On a non-flexible domain the two bracketings of u*v*u differ, so the
    mirrored bracketing t(u*(v*u)) = t(u)*(t(v)*t(u)) is required too.
    """
    images = m.images
    pushers = _sandwiches(m.domain)[1][:1 if m.domain.is_flexible() else 2]
    return all(push(images) == tuple(gather(table, images))
               for push, table in zip(pushers, _sandwiches(m.codomain)[0]))


@memoized
def _sandwiches(L):
    """The tables of (u*v)*u and of u*(v*u), entry [u-1][v-1], and their
    pushers.  Each reads row u, then column u, of the rows or the columns."""
    rng = range(L.order)
    tables = tuple(tuple(tuple(a[a[u][v] - 1][u] for v in rng) for u in rng)
                   for a in (L.rows, _columns(L)))
    return tables, tuple(map(pusher, tables))


class GGTriple(NamedTuple):
    x: int
    y: int
    z: int


def find_gg_triples(m: HalfMap, limit: int | None = None) -> list:
    """Triples (x, y, z) where x fails to commute with both y and z, the
    pair (x, y) obeys only the forward law and (x, z) only the reversed
    law.  Intended for Moufang domains; returned in ascending order.
    With a limit, stops once that many (at least 1) are collected."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    n = m.domain.order
    comm = m.domain.commutators()
    hom_only = m.hom & ~m.anti
    anti_only = m.anti & ~m.hom
    out = []
    for x in range(1, n + 1):
        base = (x - 1) * n - 1  # bit of pair (x, y) is base + y
        cx = comm[x - 1]
        ys = [y for y in range(1, n + 1) if hom_only >> (base + y) & 1 and cx[y - 1] != 1]
        if not ys:
            continue
        zs = [z for z in range(1, n + 1) if anti_only >> (base + z) & 1 and cx[z - 1] != 1]
        for y in ys:
            for z in zs:
                out.append(GGTriple(x, y, z))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def d_set(m: HalfMap) -> frozenset:
    """Elements g admitting an h with t(g*h) = t(h)*t(g) != t(g)*t(h)."""
    n = m.domain.order
    row = (1 << n) - 1
    anti_only = m.anti & ~m.hom
    return frozenset(g for g in range(1, n + 1) if anti_only >> ((g - 1) * n) & row)


def induced_on_quotient(m: HalfMap) -> HalfMap:
    """Push a half-morphism down to the quotients by the associator
    subloops of both sides.

    Requires both associator subloops normal, the map to carry one onto
    the other, and coset-independent images; any failure raises with a
    witness.  The induced map is validated like any other half-morphism.
    """
    from .subloops import is_normal

    A = associator_subloop(m.domain)
    B = associator_subloop(m.codomain)
    if not is_normal(m.domain, A):
        raise ValueError("associator subloop of the domain is not normal")
    if not is_normal(m.codomain, B):
        raise ValueError("associator subloop of the codomain is not normal")
    if {m.images[a - 1] for a in A.elements} != set(B.elements):
        raise ValueError("map does not carry the associator subloop onto its image counterpart")
    qd = quotient(m.domain, A)
    qc = quotient(m.codomain, B)
    return make_half_map(qd.table, qc.table, coset_images(m, qd.projection, qc.projection))


def coset_images(m: HalfMap, domain_projection, codomain_projection) -> tuple:
    """Images of the map that m induces between coset indices: the coset
    of x goes to the coset of t(x).

    Raises ValueError naming the first element whose image leaves the
    coset already chosen for its own coset.
    """
    images = [0] * max(domain_projection)
    for x in range(1, m.domain.order + 1):
        c = domain_projection[x - 1]
        v = codomain_projection[m.images[x - 1] - 1]
        if images[c - 1] == 0:
            images[c - 1] = v
        elif images[c - 1] != v:
            raise ValueError(
                "induced image of coset %d depends on the representative (element %d)" % (c, x)
            )
    return tuple(images)


# -- main theorem driver ----------------------------------------------


@dataclass
class TheoremReport:
    name: str
    order: int
    moufang: bool
    left_automorphic: bool
    automorphic: bool
    automorphic_witness: str | None
    hypotheses_hold: bool
    complete: bool
    total: int
    census: dict
    proper_cycles: list = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            "%s (order %d):" % (self.name, self.order),
            "moufang=%s" % self.moufang,
            "automorphic=%s" % self.automorphic,
        ]
        if self.automorphic_witness:
            parts.append("witness=%s" % self.automorphic_witness)
        parts.append("maps=%d%s" % (self.total, "" if self.complete else "+ (incomplete)"))
        parts.append(
            "census=" + ",".join("%s:%d" % (k.value, v) for k, v in sorted(
                self.census.items(), key=lambda kv: kv[0].value))
        )
        return " ".join(parts)


class HalfCensus(NamedTuple):
    counts: tuple          # (HalfKind, count) pairs in HalfKind order
    proper_maps: tuple     # the proper maps, in map order
    proper_cycles: tuple   # their cycle strings


@memoized
def half_census(L) -> HalfCensus:
    """Kind counts over the complete enumeration of L and its proper
    maps, classified once per table and held immutable."""
    counts = dict.fromkeys(HalfKind, 0)
    proper = []
    for m in enumerate_half_automorphisms(L).maps:
        kind = classify(m).kind
        counts[kind] += 1
        if kind is HalfKind.PROPER_HALF:
            proper.append(m)
    return HalfCensus(tuple(counts.items()), tuple(proper), tuple(m.cycles() for m in proper))


def verify_main_theorem(L, name=None) -> TheoremReport:
    """Enumerate half-morphisms of one loop and confront the statement
    that automorphic Moufang loops only carry trivial ones.

    Returns a full report; raises TheoremViolation if a loop satisfying
    both hypotheses still yields a proper map (cannot happen for honest
    tables, so a raise means corrupted input or an implementation bug).
    """
    name = name or L.name or "loop"
    moufang = L.is_moufang()
    witness = inner_map_witness(L)
    automorphic = witness is None
    witness_text = None
    if witness is not None:
        family, x, y, perm = witness
        label = "%s[%d]" % (family, x) if y is None else "%s[%d,%d]" % (family, x, y)
        witness_text = "%s = %s is not an automorphism" % (label, cycles_str(perm))
    enumeration = enumerate_half_automorphisms(L)
    counts, _, proper_cycles = half_census(L)
    hypotheses = moufang and automorphic
    report = TheoremReport(
        name=name,
        order=L.order,
        moufang=moufang,
        left_automorphic=is_left_automorphic(L),
        automorphic=automorphic,
        automorphic_witness=witness_text,
        hypotheses_hold=hypotheses,
        complete=enumeration.complete,
        total=len(enumeration.maps),
        census=dict(counts),
        proper_cycles=list(proper_cycles),
    )
    if hypotheses and proper_cycles:
        raise TheoremViolation(
            "%s is automorphic Moufang yet carries proper half-morphisms: %s"
            % (name, ", ".join(proper_cycles[:3]))
        )
    return report
