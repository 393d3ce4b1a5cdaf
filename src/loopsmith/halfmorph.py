"""Half-morphisms: bijections sending each product to one of the two
possible image products.

For a bijection t between loops of the same order the defining law is
t(x*y) in {t(x)*t(y), t(y)*t(x)} for every pair.  Maps where one law
holds globally (isomorphisms, anti-isomorphisms) are called trivial;
the interesting objects are the proper ones where both laws are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import HalfMapError, InternalCheckError, TheoremViolation
from .innermaps import cycles_str, inner_map_witness, is_left_automorphic
from .subloops import associator_subloop, quotient
from .table import LoopTable, memoized


@dataclass(frozen=True)
class HalfMap:
    """A verified half-morphism; construct only through make_half_map."""

    domain: LoopTable
    codomain: LoopTable
    images: tuple

    def apply(self, x):
        return self.images[x - 1]

    def cycles(self) -> str:
        return cycles_str(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


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
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images are not a bijection on 1..%d" % n)
    drows = domain.rows
    crows = codomain.rows
    for x in range(1, n + 1):
        ix = images[x - 1]
        for y in range(1, n + 1):
            iy = images[y - 1]
            got = images[drows[x - 1][y - 1] - 1]
            fwd = crows[ix - 1][iy - 1]
            bwd = crows[iy - 1][ix - 1]
            if got != fwd and got != bwd:
                raise HalfMapError(x, y, got, fwd, bwd)
    return HalfMap(domain, codomain, images)


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
    n = m.domain.order
    drows = m.domain.rows
    crows = m.codomain.rows
    images = m.images
    hom_pairs = anti_pairs = 0
    witness_hom = witness_anti = None
    for x in range(1, n + 1):
        ix = images[x - 1]
        for y in range(1, n + 1):
            iy = images[y - 1]
            got = images[drows[x - 1][y - 1] - 1]
            hom = got == crows[ix - 1][iy - 1]
            anti = got == crows[iy - 1][ix - 1]
            if not hom and not anti:
                raise InternalCheckError("half map broke its law at (%d, %d)" % (x, y))
            if hom:
                hom_pairs += 1
                if not anti and witness_hom is None:
                    witness_hom = (x, y)
            if anti:
                anti_pairs += 1
                if not hom and witness_anti is None:
                    witness_anti = (x, y)
    total = n * n
    if hom_pairs == total and anti_pairs == total:
        kind = HalfKind.BOTH
    elif hom_pairs == total:
        kind = HalfKind.ISOMORPHISM
    elif anti_pairs == total:
        kind = HalfKind.ANTI_ISOMORPHISM
    else:
        kind = HalfKind.PROPER_HALF
    return HalfClass(kind, hom_pairs, anti_pairs, witness_hom, witness_anti)


# -- exhaustive enumeration -------------------------------------------


@dataclass
class HalfEnumeration:
    maps: tuple
    complete: bool
    _classes: list | None = None

    def classes(self):
        """Per-map classification, computed once and cached."""
        if self._classes is None:
            self._classes = [classify(m) for m in self.maps]
        return self._classes


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
    """The complete set of half-morphisms of a loop is closed under
    composition and inverse and contains the identity.

    Closure is decided by comparing the set with the group it
    generates: a finite set of bijections containing the identity is
    closed under composition and inverse exactly when it equals its own
    generated group.  Generators are accumulated only while they enlarge
    the closure, which keeps the check near-linear in the set size
    instead of quadratic.
    """
    if enumeration is None:
        enumeration = enumerate_half_automorphisms(L)
    if not enumeration.complete:
        raise ValueError("group check needs a complete enumeration")
    n = L.order
    pool = {m.images for m in enumeration.maps}
    ident = tuple(range(1, n + 1))
    if ident not in pool:
        return False
    rng = range(n)
    for a in pool:
        inv = [0] * n
        for i, v in enumerate(a):
            inv[v - 1] = i + 1
        if tuple(inv) not in pool:
            return False
    cap = len(pool)
    gens = []
    closure = {ident}
    for a in sorted(pool):
        if a in closure:
            continue
        gens.append(a)
        closure.add(a)
        frontier = [a] if len(gens) == 1 else None
        if frontier is None:
            # products of the new generator with everything known so far
            fresh = []
            for e in list(closure):
                for c in (tuple(a[e[i] - 1] for i in rng), tuple(e[a[i] - 1] for i in rng)):
                    if c not in closure:
                        if len(closure) >= cap:
                            return False
                        closure.add(c)
                        fresh.append(c)
            frontier = fresh
        while frontier:
            e = frontier.pop()
            for g in gens:
                c = tuple(g[e[i] - 1] for i in rng)
                if c not in closure:
                    if len(closure) >= cap:
                        return False
                    closure.add(c)
                    frontier.append(c)
                c = tuple(e[g[i] - 1] for i in rng)
                if c not in closure:
                    if len(closure) >= cap:
                        return False
                    closure.add(c)
                    frontier.append(c)
    return closure == pool


# -- derived maps and special laws ------------------------------------


def is_semi_isomorphism(m: HalfMap) -> bool:
    """t((u*v)*u) = (t(u)*t(v))*t(u) for all u, v.

    On a non-flexible domain the two bracketings of u*v*u differ, so the
    mirrored bracketing t(u*(v*u)) = t(u)*(t(v)*t(u)) is required too.
    """
    drows = m.domain.rows
    crows = m.codomain.rows
    images = m.images
    n = m.domain.order
    for u in range(1, n + 1):
        iu = images[u - 1]
        for v in range(1, n + 1):
            iv = images[v - 1]
            if images[drows[drows[u - 1][v - 1] - 1][u - 1] - 1] != crows[crows[iu - 1][iv - 1] - 1][iu - 1]:
                return False
    if not m.domain.is_flexible():
        for u in range(1, n + 1):
            iu = images[u - 1]
            for v in range(1, n + 1):
                iv = images[v - 1]
                if images[drows[u - 1][drows[v - 1][u - 1] - 1] - 1] != crows[iu - 1][crows[iv - 1][iu - 1] - 1]:
                    return False
    return True


class GGTriple(NamedTuple):
    x: int
    y: int
    z: int


def find_gg_triples(m: HalfMap, limit: int | None = None) -> list:
    """Triples (x, y, z) where x fails to commute with both y and z, the
    pair (x, y) obeys only the forward law and (x, z) only the reversed
    law.  Intended for Moufang domains; returned in ascending order.
    With a limit, stops once that many triples are collected."""
    L = m.domain
    n = L.order
    drows = L.rows
    crows = m.codomain.rows
    images = m.images
    hom_only = [[False] * (n + 1) for _ in range(n + 1)]
    anti_only = [[False] * (n + 1) for _ in range(n + 1)]
    for x in range(1, n + 1):
        ix = images[x - 1]
        for y in range(1, n + 1):
            iy = images[y - 1]
            got = images[drows[x - 1][y - 1] - 1]
            hom = got == crows[ix - 1][iy - 1]
            anti = got == crows[iy - 1][ix - 1]
            hom_only[x][y] = hom and not anti
            anti_only[x][y] = anti and not hom
    out = []
    for x in range(1, n + 1):
        ys = [y for y in range(1, n + 1) if hom_only[x][y] and L.commutator(x, y) != 1]
        if not ys:
            continue
        zs = [z for z in range(1, n + 1) if anti_only[x][z] and L.commutator(x, z) != 1]
        for y in ys:
            for z in zs:
                out.append(GGTriple(x, y, z))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def d_set(m: HalfMap) -> frozenset:
    """Elements g admitting an h with t(g*h) = t(h)*t(g) != t(g)*t(h)."""
    L = m.domain
    n = L.order
    drows = L.rows
    crows = m.codomain.rows
    images = m.images
    members = set()
    for g in range(1, n + 1):
        ig = images[g - 1]
        for h in range(1, n + 1):
            ih = images[h - 1]
            got = images[drows[g - 1][h - 1] - 1]
            fwd = crows[ig - 1][ih - 1]
            bwd = crows[ih - 1][ig - 1]
            if got == bwd and bwd != fwd:
                members.add(g)
                break
    return frozenset(members)


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


def verify_main_theorem(L, name=None, enumeration=None, limit=None) -> TheoremReport:
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
    if enumeration is None:
        enumeration = enumerate_half_automorphisms(L, limit=limit)
    census = {kind: 0 for kind in HalfKind}
    proper_cycles = []
    for m, cls in zip(enumeration.maps, enumeration.classes()):
        census[cls.kind] += 1
        if cls.kind is HalfKind.PROPER_HALF:
            proper_cycles.append(m.cycles())
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
        census=census,
        proper_cycles=proper_cycles,
    )
    if hypotheses and proper_cycles:
        raise TheoremViolation(
            "%s is automorphic Moufang yet carries proper half-morphisms: %s"
            % (name, ", ".join(proper_cycles[:3]))
        )
    return report
