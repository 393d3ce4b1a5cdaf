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
The masks come from comparing two byte strings in that order as
integers: their XOR has a zero byte exactly where the pair agrees, and
one translate turns each byte into the pair's digit.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import HalfMapError, InternalCheckError, TheoremViolation
from .innermaps import (_agreement, _sandwiches, check_bijection, column_bytes, cycles_str, gather,
                        inner_map_witness, is_automorphism, noncommuting, product_bytes, push,
                        zero_based)
from .subloops import associator_quotient, associator_subloop
from .table import LoopTable, _commuting, memoized


class HalfMap:
    """A bijection with its law masks; construct through make_half_map.

    hom and anti hold one bit per pair, row x in bits (x-1)*n onwards:
    the forward and the reversed law.  The map is a half-morphism exactly
    when hom | anti has all n*n bits set.  The masks are computed from
    the tables unless both are given, as the search does for a map whose
    masks are known to equal another map's.  source is None except on a
    map the search composed, alpha o s, where it is s (see per_orbit).
    Maps compare and hash by domain, codomain and images; treat them as
    immutable.
    """

    __slots__ = ("domain", "codomain", "images", "hom", "anti", "source")

    def __init__(self, domain: LoopTable, codomain: LoopTable, images: tuple,
                 hom: int | None = None, anti: int | None = None, source: HalfMap | None = None):
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.source = source
        if hom is None or anti is None:
            t = zero_based(images)
            got = int.from_bytes(push(product_bytes(domain).flat, t), "big")
            hom = _agreement(got, gather(product_bytes(codomain).rows, t))
            anti = _agreement(got, gather(column_bytes(codomain).rows, t))
        self.hom = hom
        self.anti = anti

    def _key(self):
        return self.domain, self.codomain, self.images

    def __eq__(self, other):
        if other.__class__ is not HalfMap:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "HalfMap(domain=%r, codomain=%r, images=%r)" % self._key()

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


def mask_pairs(mask, n):
    """The pairs (x, y) whose bits are set in a pair mask, ascending."""
    while mask:
        low = mask & -mask
        x, y = divmod(low.bit_length() - 1, n)
        yield x + 1, y + 1
        mask ^= low


def pull_mask(rows, images):
    """The pair mask whose bit (x, y) is digits[t(x)-1][t(y)-1], for the
    translate_rows of rows of b"0"/b"1" digits and the images of a
    bijection t."""
    return int(gather(rows, zero_based(images)), 2)


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


class HalfClass(NamedTuple):
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


class SearchStats(NamedTuple):
    """Work counters of one search.  In the subtrees searched directly:
    images tried, images the law check refused, complete assignments
    reached, and complete assignments that make_half_map refused.  Then
    the images of the first generator searched directly, the maps made
    by composing with an automorphism, and the images tried while
    looking for those automorphisms."""

    nodes: int
    prunes: int
    leaves: int
    rejected: int
    representatives: int
    compositions: int
    lookup_nodes: int


class HalfEnumeration(NamedTuple):
    """Half-maps in image-tuple order.  stats is None unless the search
    made the enumeration."""

    maps: tuple
    complete: bool
    stats: SearchStats | None = None


def per_orbit(enum, fn) -> list:
    """[fn(m) for m in enum.maps], with fn called once per map whose source
    is None and its value copied along m.source to the maps composed from
    it.

    Every source must itself be a map of the enumeration.  Every search
    result meets this, limited or complete, because a subtree is searched
    before any subtree is composed from it.  The caller vouches that
    fn(alpha o s) == fn(s) for every automorphism alpha of the domain and
    every half-map s.
    """
    values = {id(m): fn(m) for m in enum.maps if m.source is None}
    return [values[id(m.source or m)] for m in enum.maps]


def enumerate_half_automorphisms(L, limit=None) -> HalfEnumeration:
    """All half-morphisms from a loop to itself, in image-tuple order.

    The search assigns images in the table's generation order (see
    _generation_order): 1 first, then generators, each followed by the
    products it brings in.  Let g be the first generator.  The images of
    g are walked in ascending order; for each image w' the maps with
    t(g) = w' form one subtree, found in one of two ways.

    Searched directly: depth-first along the generation order with
    t(g) = w' fixed.  A later generator may take any free image.  A
    product c = a*b, with a and b already mapped, may take only
    t(a)*t(b) or t(b)*t(a), and only while that image is free.  After
    each assignment one rule prunes: for every mapped y, a pair (x, y) or
    (y, x) whose product is already mapped must obey the half law.  Every
    complete assignment is checked on all n*n pairs by make_half_map; a
    leaf it refuses is dropped and counted.  w' becomes a representative.

    Composed: when an automorphism alpha of L sends an earlier
    representative w to w', the subtree of w' is alpha o s for the maps s
    of w's subtree.  alpha is found by the same depth-first search in a
    hom-law-only mode, along a generation order that lists w first with
    t(w) = w' fixed: a product takes only t(a)*t(b), the pruning rule
    asks the forward law alone, a complete assignment counts when its hom
    mask is full, and the search stops at the first one.
    innermaps.is_automorphism checks alpha again; a refusal raises
    InternalCheckError.

    Completeness and soundness rest on four facts.

    - Composition.  For an automorphism alpha and a half-map s, alpha o s
      is a bijection and alpha(s(x*y)) is alpha(s(x)*s(y)) =
      alpha(s(x))*alpha(s(y)) or alpha(s(y)*s(x)) = alpha(s(y))*alpha(s(x)),
      so alpha o s is a half-map.  If alpha(w) = w', then s -> alpha o s
      maps the half-maps with s(g) = w onto those with t(g) = w', with
      inverse t -> alpha^-1 o t.  So a composed subtree is complete and
      sound exactly when w's is.
    - Commuting counts.  Only images w' that commute with as many
      elements as g does are tried, and no half-map is lost: a half-map
      t keeps each element's commuting count.  If x*y != y*x, then t(x*y)
      and t(y*x) are distinct, since t is injective, and both lie in
      {t(x)*t(y), t(y)*t(x)}, so t(x) and t(y) do not commute.  Thus the
      bijection (x, y) -> (t(x), t(y)) of L x L sends the finitely many
      non-commuting pairs into themselves, hence onto themselves, and so
      the commuting pairs onto the commuting pairs.  For each x it sends
      the y commuting with x onto the y' commuting with t(x).
    - Mask transport.  alpha o s gets the hom and anti masks of s without
      a pair walk.  alpha is an injective homomorphism, so
      s(x*y) = s(x)*s(y) exactly when alpha(s(x*y)) = alpha(s(x))*alpha(s(y)),
      and likewise for the reversed law.
    - Disjoint subtrees.  Every half-map t has exactly one image t(g), and
      each tried image is searched or composed once, so every map is
      listed once.  A direct search is complete because every element is
      listed once, the product candidates are the only images the half
      law allows, and the pruning rule is a necessary condition; it is
      sound because each kept map passed make_half_map.  Whether an
      automorphism is found changes only the work: an image with none is
      searched directly.

    The search yields the maps one at a time, in the order it finds them:
    the first subtree in generation order, then the later subtrees in
    ascending t(g), each composed one in the order of its
    representative's maps.  With limit set, the result holds the first
    limit maps yielded, sorted, and the search does no work past the last
    of them, so stats count the work up to it.  Such a result is flagged
    incomplete whenever it holds limit maps, even if no map is left out,
    and must not feed census claims.  Its maps need not be the least in
    image-tuple order, and beyond the first subtree they need not be the
    maps a plain depth-first search finds first.  In either case each
    composed map's source is the map found directly that it was composed
    from, and that map is in the result (see per_orbit).  A complete
    result is kept in the table's memo and returned to every later call
    without a limit; a limited result is never stored.
    """
    if limit is None:
        return _complete_enumeration(L)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return _search(L, limit)


@memoized
def _complete_enumeration(L):
    return _search(L, None)


def _generation_order(L, first=None):
    """Every element once, as (c, a, b) with c = a*b for a and b listed
    before c, or (c, 0, 0) when c is a generator; (1, 0, 0) comes first.

    Each generator is followed by the products of the listed elements,
    breadth first, until nothing new appears.  Generators are chosen by
    the number of elements they commute with, fewest first, then by
    label.  Half-morphisms keep that number, so the choice depends on the
    labels only to break ties.  With first given, that element is the
    first generator.
    """
    n = L.order
    rows = L.rows
    commuting = _commuting(L)
    by_invariant = sorted(range(1, n + 1), key=lambda x: (x != first, commuting[x - 1], x))
    order = [(1, 0, 0)]
    listed = {1}
    for g in by_invariant:
        if g in listed:
            continue
        order.append((g, 0, 0))
        listed.add(g)
        k = len(order) - 1
        while k < len(order):
            c = order[k][0]
            for i in range(k + 1):
                a = order[i][0]
                for x, y in ((a, c), (c, a)):
                    p = rows[x - 1][y - 1]
                    if p not in listed:
                        order.append((p, x, y))
                        listed.add(p)
            k += 1
    return tuple(order)


def _search(L, limit):
    counts = [0] * len(SearchStats._fields)
    maps = tuple(sorted(islice(_half_maps(L, counts), limit), key=attrgetter("images")))
    return HalfEnumeration(maps, limit is None or len(maps) < limit, SearchStats(*counts))


def _half_maps(L, counts):
    """Yield each half-map of L in the order the search finds it (see
    enumerate_half_automorphisms).  counts holds the SearchStats fields in
    order and is up to date at each map yielded, so a caller that stops
    pulling reads the work done so far."""
    n = L.order
    if n == 1:
        counts[2] += 1  # leaves
        yield make_half_map(L, L, (1,))
        return
    mul = [[0] * (n + 1)]
    for r in L.rows:
        mul.append([0] + list(r))
    col = [[0] * (n + 1)]  # col[x][y] = y*x
    for c in zip(*L.rows):
        col.append([0] + list(c))
    full = (1 << n * n) - 1
    order = _generation_order(L)
    g = order[1][0]
    commuting = _commuting(L)
    lookup = [0, 0]  # images tried and refused by the automorphism lookups
    representatives = []  # per representative w: (generation order led by w, the maps of its subtree)
    for image in range(2, n + 1):
        if commuting[image - 1] != commuting[g - 1]:
            continue
        hit = next(((alpha, subtree) for w_order, subtree in representatives
                    for alpha in _dfs(mul, col, w_order, image, True, lookup)
                    if HalfMap(L, L, alpha).hom == full), None)
        counts[6] = lookup[0]  # lookup_nodes
        if hit is None:
            subtree = []
            representatives.append((_generation_order(L, image), subtree))
            counts[4] += 1  # representatives
            for images in _dfs(mul, col, order, image, False, counts):  # adds to nodes and prunes
                counts[2] += 1  # leaves
                try:
                    m = make_half_map(L, L, images)
                except HalfMapError:
                    counts[3] += 1  # rejected
                    continue
                subtree.append(m)
                yield m
        else:
            alpha, subtree = hit
            if not is_automorphism(L, alpha):
                raise InternalCheckError("the automorphism lookup returned %s, which is not an automorphism"
                                         % cycles_str(alpha))
            # alpha o s carries the masks of s (the mask transport in enumerate_half_automorphisms)
            at = (0, *alpha)
            for s in subtree:
                counts[5] += 1  # compositions
                yield HalfMap(L, L, tuple(map(at.__getitem__, s.images)), s.hom, s.anti, s)


def _dfs(mul, col, order, image, hom, tally):
    """Yield every complete assignment of a depth-first search along a
    generation order with order[1] mapped to image.  With hom set, a
    product takes only t(a)*t(b) and the pruning rule asks the forward
    law alone.  Each image tried adds 1 to tally[0], and each image the
    pruning rule refuses 1 to tally[1].

    mul and col are the table and its transpose, padded so that
    mul[x][y] = x*y = col[y][x] with 1-based labels.
    """
    n = len(order)
    mapped = [c for c, _, _ in order]
    img = [0] * (n + 1)
    free = [True] * (n + 1)
    img[1] = 1
    free[1] = False

    def consistent(k, x):
        w = img[x]
        mx, cx, mw, cw = mul[x], col[x], mul[w], col[w]
        for y in mapped[:k + 1]:
            iy = img[y]
            u = mw[iy]
            v = cw[iy]
            ic = img[mx[y]]
            if ic and ic != u and (hom or ic != v):
                return False
            ic = img[cx[y]]
            if ic and ic != v and (hom or ic != u):
                return False
        return True

    def dfs(k):
        if k == n:
            yield tuple(img[1:])
            return
        x, a, b = order[k]
        if a:
            u = mul[img[a]][img[b]]
            v = mul[img[b]][img[a]]
            candidates = (u,) if hom or u == v else (u, v)
        elif k == 1:
            candidates = (image,)
        else:
            candidates = range(2, n + 1)
        for w in candidates:
            if not free[w]:
                continue
            tally[0] += 1
            img[x] = w
            free[w] = False
            if consistent(k, x):
                yield from dfs(k + 1)
            else:
                tally[1] += 1
            free[w] = True
        img[x] = 0

    return dfs(1)


def half_maps_form_group_check(L, enumeration=None) -> bool:
    """The complete set of half-morphisms of a loop is a group under
    composition.

    The maps are bijections of 1..n, so they lie in the symmetric group,
    and the check computes G, the subgroup of it that they generate, by
    Dimino's coset enumeration (G. Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991).  Write xy for x after y.  The
    maps are walked in their given order; each one not yet in G becomes
    the next generator s, and G grows from H, the group generated by the
    earlier generators, to the group generated by H and s:
    U = H u Hs, then for each coset representative r in turn (s first)
    and each generator g so far, if rg lies outside U, U takes the whole
    coset H(rg) and rg becomes a representative.  Every element that
    joins U is checked against the set of maps, and the check fails at
    the first one outside it.

    Why U ends as the group generated by H and s.  U is a union of right
    cosets of the group H, and distinct cosets are disjoint, so a coset
    added for rg outside U is new element by element.  When the walk
    ends, rg lies in U for every representative r and generator g, and
    also for r = 1, since an earlier generator lies in H and s in Hs.
    So for x = hr in U, xg = h(rg) = hh'r' lies in the coset Hr' inside
    U.  U contains 1 and is closed under composition with every
    generator on the right, so it holds every product of generators; in
    a finite group every inverse is such a product, so U is the whole
    group generated.

    Why the verdict is right.  If the maps form a group, every product of
    maps is a map, so no element is ever refused and the result is True.
    If the walk ends without a refusal, G lies in the set, and every map
    either was in G when its turn came or became a generator, so the set
    equals G, a group: the result is True exactly then.
    """
    if enumeration is None:
        enumeration = enumerate_half_automorphisms(L)
    if not enumeration.complete:
        raise ValueError("group check needs a complete enumeration")
    images = [m.images for m in enumeration.maps]
    index = {a: i for i, a in enumerate(images)}
    inside = bytearray(len(images))  # inside[index[a]] is 1 when a is in G
    group = []  # the elements of G, held as the maps' own image tuples

    def join(coset):
        """Add the elements of a coset new to G; False at the first that
        is not a map."""
        for c in coset:
            i = index.get(c)
            if i is None:
                return False
            inside[i] = 1
            group.append(images[i])
        return True

    if not join([tuple(range(1, L.order + 1))]):
        return False
    generators = []  # one getter per generator g: x -> xg
    for a in images:
        if inside[index[a]]:
            continue
        H = group[:]
        generators.append(itemgetter(*[x - 1 for x in a]))
        if not join(map(generators[-1], H)):
            return False
        representatives = [a]
        for r in representatives:
            for g in generators:
                e = g(r)
                i = index.get(e)
                if i is None:
                    return False
                if not inside[i]:
                    if not join(map(itemgetter(*[x - 1 for x in e]), H)):
                        return False
                    representatives.append(images[i])
    return True


# -- derived maps and special laws ------------------------------------


def is_semi_isomorphism(m: HalfMap) -> bool:
    """t((u*v)*u) = (t(u)*t(v))*t(u) for all u, v.

    The domain must be flexible, so that u*v*u has one bracketing, as
    every Moufang loop is; raises ValueError otherwise.
    """
    if not m.domain.is_flexible():
        raise ValueError("semi-isomorphism check needs a flexible domain")
    t = zero_based(m.images)
    return push(_sandwiches(m.domain)[0].flat, t) == gather(_sandwiches(m.codomain)[0].rows, t)


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
    row = (1 << n) - 1
    pairs = noncommuting(m.domain)
    hom_only = m.hom & ~m.anti & pairs
    anti_only = m.anti & ~m.hom & pairs
    out = []
    for x in range(1, n + 1):
        ys = hom_only >> (x - 1) * n & row
        zs = anti_only >> (x - 1) * n & row
        if not (ys and zs):
            continue
        for _, y in mask_pairs(ys, n):
            for _, z in mask_pairs(zs, n):
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
    qd = associator_quotient(m.domain)
    if qd is None:
        raise ValueError("associator subloop of the domain is not normal")
    qc = associator_quotient(m.codomain)
    if qc is None:
        raise ValueError("associator subloop of the codomain is not normal")
    if {m.images[a - 1] for a in associator_subloop(m.domain).elements} != \
            set(associator_subloop(m.codomain).elements):
        raise ValueError("map does not carry the associator subloop onto its image counterpart")
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


class TheoremReport:
    """The main-theorem verdict on one loop.  Each report owns its census
    dict and proper_maps list, so a caller may change them."""

    __slots__ = ("name", "order", "moufang", "automorphic", "automorphic_witness", "hypotheses_hold",
                 "total", "census", "proper_maps")

    def __init__(self, name: str, order: int, moufang: bool, automorphic: bool,
                 automorphic_witness: str | None, hypotheses_hold: bool, total: int,
                 census: dict, proper_maps: list | None = None):
        self.name = name
        self.order = order
        self.moufang = moufang
        self.automorphic = automorphic
        self.automorphic_witness = automorphic_witness
        self.hypotheses_hold = hypotheses_hold
        self.total = total
        self.census = census
        self.proper_maps = [] if proper_maps is None else proper_maps

    def summary(self) -> str:
        parts = [
            "%s (order %d):" % (self.name, self.order),
            "moufang=%s" % self.moufang,
            "automorphic=%s" % self.automorphic,
        ]
        if self.automorphic_witness:
            parts.append("witness=%s" % self.automorphic_witness)
        parts.append("maps=%d" % self.total)
        parts.append(
            "census=" + ",".join("%s:%d" % (k.value, v) for k, v in sorted(
                self.census.items(), key=lambda kv: kv[0].value))
        )
        return " ".join(parts)


class HalfCensus(NamedTuple):
    counts: tuple          # (HalfKind, count) pairs in HalfKind order
    proper_maps: tuple     # the proper maps, in map order


@memoized
def half_census(L) -> HalfCensus:
    """Kind counts over the complete enumeration of L and its proper
    maps, classified once per table and held immutable.

    The kind is classified once per map whose source is None and copied
    along m.source (per_orbit): it reads only the masks, and alpha o s
    carries the masks of s (the mask transport in
    enumerate_half_automorphisms).  verify_main_theorem and the
    main-theorem suite both read this census."""
    counts = dict.fromkeys(HalfKind, 0)
    proper = []
    enum = enumerate_half_automorphisms(L)
    for m, cls in zip(enum.maps, per_orbit(enum, classify)):
        counts[cls.kind] += 1
        if cls.kind is HalfKind.PROPER_HALF:
            proper.append(m)
    return HalfCensus(tuple(counts.items()), tuple(proper))


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
    counts, proper = half_census(L)
    hypotheses = moufang and automorphic
    report = TheoremReport(
        name=name,
        order=L.order,
        moufang=moufang,
        automorphic=automorphic,
        automorphic_witness=witness_text,
        hypotheses_hold=hypotheses,
        total=sum(count for _, count in counts),
        census=dict(counts),
        proper_maps=list(proper),
    )
    if hypotheses and proper:
        raise TheoremViolation(
            "%s is automorphic Moufang yet carries proper half-morphisms: %s"
            % (name, ", ".join(m.cycles() for m in proper[:3]))
        )
    return report
