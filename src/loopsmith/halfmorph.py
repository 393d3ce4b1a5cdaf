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
from functools import cached_property
from math import inf, prod
from operator import attrgetter
from typing import NamedTuple

from .errors import HalfMapError, InternalCheckError, TheoremViolation
from .innermaps import (_agreement, _preserves_products, _sandwiches, check_bijection, column_bytes,
                        cycles_str, gather, inner_map_witness, noncommuting,
                        product_bytes, push, zero_based)
from .subloops import associator_quotient, associator_subloop
from .table import LoopTable, _commuting, memoized


class HalfMap:
    """A bijection with its law masks; construct through make_half_map.

    hom and anti hold one bit per pair, row x in bits (x-1)*n onwards:
    the forward and the reversed law.  The map is a half-morphism exactly
    when hom | anti has all n*n bits set.  The masks are computed from
    the tables unless both are given, as the search does for a map whose
    masks are known to equal another map's.  Maps compare and hash by
    domain, codomain and images; treat them as immutable.
    """

    __slots__ = ("domain", "codomain", "images", "hom", "anti")

    def __init__(self, domain: LoopTable, codomain: LoopTable, images: tuple,
                 hom: int | None = None, anti: int | None = None):
        self.domain = domain
        self.codomain = codomain
        self.images = images
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

    maps: HalfMaps
    complete: bool
    stats: SearchStats | None = None


class HalfMaps:
    """Half-maps held as entries (maps, alphas): each s in maps stands for
    s and each alpha o s (orbit_maps).  len() builds no map; the first
    read lists every map in image-tuple order and keeps the list."""

    def __init__(self, entries: tuple):
        self.entries = entries

    def __len__(self):
        return sum(len(maps) * (1 + len(alphas)) for maps, alphas in self.entries)

    def __getitem__(self, i):
        return self._listing[i]

    def __iter__(self):
        return iter(self._listing)

    @cached_property
    def _listing(self):
        return tuple(sorted((m for maps, alphas in self.entries for s in maps for m in orbit_maps(s, alphas)),
                            key=attrgetter("images")))


def orbit_maps(s, alphas):
    """s, then each alpha o s, built with the masks of s (the mask
    transport in enumerate_half_automorphisms)."""
    yield s
    for alpha in alphas:
        at = (0, *alpha)
        yield HalfMap(s.domain, s.codomain, tuple(map(at.__getitem__, s.images)), s.hom, s.anti)


def weighted_maps(enum):
    """The pairs (s, alphas), one per map s of an entry of enum.maps,
    standing for the 1 + len(alphas) maps of orbit_maps(s, alphas).  A
    value computed once on s holds for each alpha o s when fn(alpha o s)
    == fn(s) for every automorphism alpha and half-map s; each caller
    says why."""
    return ((s, alphas) for maps, alphas in enum.maps.entries for s in maps)


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
    asks the forward law alone, a complete assignment counts when it
    preserves every product, and the search stops at the first one.  That
    assignment is an automorphism: it preserves every product, and it is a
    bijection because the search assigns only free images.

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

    The search finds the maps in this order: the first subtree in
    generation order, then the later subtrees in ascending t(g), each
    composed one in the order of its representative's maps.  The result
    holds them as HalfMaps, one entry per representative: the maps found
    directly and one automorphism per composed subtree.  A complete
    result is kept in the table's memo and returned to every later call
    without a limit.  With limit set, the result holds the first limit
    maps found, and the search does no work past the last of them, so
    stats count the work up to it.  When the limit falls k maps into a
    composed subtree alpha o maps, the entry of maps splits in two:
    maps[:k] with alpha and maps[k:] without it.  Such a result is
    flagged incomplete whenever it holds limit maps, even if no map is
    left out, must not feed census claims, and is never stored.  Its maps
    need not be the least in image-tuple order, and beyond the first
    subtree they need not be the maps a plain depth-first search finds
    first.
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
    entries = {}  # id of a representative's list of maps -> (that list, the automorphisms composing from it)
    room = inf if limit is None else limit  # the maps still to take
    for alpha, maps in _half_maps(L, counts):
        alphas = entries.setdefault(id(maps), (maps, []))[1]
        if alpha is None:
            room -= 1
        elif room >= len(maps):
            alphas.append(alpha)
            room -= len(maps)
        else:  # the limit falls inside alpha o maps
            entries[id(maps)] = (maps[room:], alphas)
            entries[None] = (maps[:room], [*alphas, alpha])
            room = 0
        if not room:
            break
    held = HalfMaps(tuple((tuple(maps), tuple(alphas)) for maps, alphas in entries.values()))
    counts[5] = len(held) - counts[2] + counts[3]  # compositions: the maps not found directly
    return HalfEnumeration(held, limit is None or len(held) < limit, SearchStats(*counts))


def _half_maps(L, counts):
    """Run the search of L (see enumerate_half_automorphisms), yielding
    pairs (alpha, maps) with maps the list of maps found directly in a
    representative's subtree: (None, maps) when maps[-1] was just found,
    and (alpha, maps), maps complete, for the composed subtree alpha o maps.
    counts holds the SearchStats fields in order, all but compositions up
    to date at each pair yielded."""
    n = L.order
    if n == 1:
        counts[2] += 1  # leaves
        yield None, [make_half_map(L, L, (1,))]
        return
    mul = [[0] * (n + 1)]
    for r in L.rows:
        mul.append([0] + list(r))
    col = [[0] * (n + 1)]  # col[x][y] = y*x
    for c in zip(*L.rows):
        col.append([0] + list(c))
    products = product_bytes(L)
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
                    if _preserves_products(products, zero_based(alpha))), None)
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
                yield None, subtree
        else:
            yield hit


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


def half_maps_form_group_check(L, enumeration) -> bool:
    """The set S of half-morphisms of L in a complete enumeration is a
    group under composition.

    S, a finite set of permutations, lies in the group <S> it generates,
    so S is a group exactly when |<S>| = |S|; |S| is len(maps), whose
    maps are distinct (the disjoint subtrees in
    enumerate_half_automorphisms).  <S> is generated by the maps of the
    entries with their alphas, each passed once: each alpha o s is a
    product of two of them, and each alpha, an automorphism, is a
    half-map and so in S.
    """
    if not enumeration.complete:
        raise ValueError("group check needs a complete enumeration")
    entries = enumeration.maps.entries
    generators = [s.images for maps, _ in entries for s in maps]
    generators += dict.fromkeys(alpha for _, alphas in entries for alpha in alphas)
    return _group_order(generators, L.order) == len(enumeration.maps)


def _group_order(generators, n) -> int:
    """The order of the group that the image tuples generate in the
    symmetric group on 1..n, by deterministic Schreier-Sims with base
    1, ..., n (C. C. Sims, 1970; A. Seress, Permutation Group Algorithms,
    2003, section 4.2).  A permutation is the 256-byte translate table of
    its 0-based images; p.translate(q) is p, then q.

    Level k has T_k, the strong generators fixing the points below k, and
    the orbit of k under G_k = <T_k>: each point b with u_b^-1 for some u_b
    in G_k taking k to b.  Sifting p from level k: at each level j >= k
    where p moves j to some b, p becomes p, then u_b^-1; it stops with the
    residue (j, p) at the first b outside the orbit.  Each given generator
    is sifted from level 0.  A residue (j, p) joins T_i for i <= j, and the
    levels j, ..., 0 are rebuilt: level k recomputes its orbit and sifts
    from level k+1 each Schreier generator u_b, s, u_s(b)^-1 (b in the
    orbit, s in T_k); a residue restarts the rebuild at its level.  Each
    residue grows an orbit, so this ends.

    Then every level has sifted its Schreier generators to the identity
    against the final levels above it.  If those hold G_(k+1) as products
    of their u_b, as for k = n-1, then G_(k+1), which fixes k and lies in
    G_k, holds the Schreier generators, which generate the stabilizer of
    k in G_k (Schreier's lemma): it is that stabilizer, and |G_k| is the
    orbit length of k times |G_(k+1)|.  Each strong generator is a product
    of given ones, and each given one is its residue, or the identity,
    then u_b's; so G_0 is the group they generate, of order the product
    of the orbit lengths.
    """
    ident = bytes(range(256))
    strong = []  # (level, permutation)
    orbits = [{k: ident} for k in range(n)]  # orbits[k][b]: the inverse of u_b

    def sift(p, k):
        for j in range(k, n):
            b = p[j]
            if b != j:
                inverse = orbits[j].get(b)
                if inverse is None:
                    return j, p
                p = p.translate(inverse)
        return None

    def rebuild(k):
        """Recompute level k; the first residue of its Schreier generators."""
        gens = [s for j, s in strong if j >= k]
        orbit = orbits[k] = {k: ident}
        points = [k]
        for b in points:
            for s in gens:
                c = s[b]
                if c not in orbit:
                    orbit[c] = bytes.maketrans(s, ident).translate(orbit[b])
                    points.append(c)
        for b in points:
            u = bytes.maketrans(orbit[b], ident)
            for s in gens:
                residue = sift(u.translate(s).translate(orbit[s[b]]), k + 1)
                if residue:
                    return residue
        return None

    for images in generators:
        residue = sift(bytes(x - 1 for x in images) + ident[n:], 0)
        while residue:
            strong.append(residue)  # then rebuild levels j, ..., 0 up to the first new residue
            residue = next(filter(None, map(rebuild, range(residue[0], -1, -1))), None)
    return prod(map(len, orbits))


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


PROPER_SHOWN = 3  # proper maps a TheoremReport keeps to name


class TheoremReport(NamedTuple):
    """The main-theorem verdict on one loop: census counts each kind, and
    proper_maps holds at most PROPER_SHOWN proper maps found directly."""

    name: str
    order: int
    moufang: bool
    automorphic: bool
    automorphic_witness: str | None
    hypotheses_hold: bool
    total: int
    census: dict
    proper_maps: tuple = ()

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
    proper: tuple          # the pairs (s, alphas) of weighted_maps whose s is proper


@memoized
def half_census(L) -> HalfCensus:
    """Kind counts over the complete enumeration of L and its proper
    maps, classified once per table and held immutable.

    The kind is classified once per map found directly and counted
    1 + len(alphas) times (weighted_maps): it reads only the masks, and
    alpha o s carries the masks of s (the mask transport in
    enumerate_half_automorphisms).  verify_main_theorem and the
    main-theorem suite both read this census."""
    counts = dict.fromkeys(HalfKind, 0)
    proper = []
    for s, alphas in weighted_maps(enumerate_half_automorphisms(L)):
        kind = classify(s).kind
        counts[kind] += 1 + len(alphas)
        if kind is HalfKind.PROPER_HALF:
            proper.append((s, alphas))
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
        proper_maps=tuple(s for s, _ in proper[:PROPER_SHOWN]),
    )
    if hypotheses and proper:
        raise TheoremViolation(
            "%s is automorphic Moufang yet carries proper half-morphisms: %s"
            % (name, ", ".join(m.cycles() for m in report.proper_maps))
        )
    return report
