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

from collections import namedtuple
from enum import Enum
from functools import cached_property
from itertools import islice
from math import inf, prod
from operator import attrgetter

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

    __slots__ = ("domain", "codomain", "images", "hom", "anti", "_image_bytes")

    def __init__(self, domain: LoopTable, codomain: LoopTable, images: tuple,
                 hom: int | None = None, anti: int | None = None):
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self._image_bytes = None
        if hom is None or anti is None:
            t = self.image_bytes
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

    @property
    def image_bytes(self) -> bytes:
        """The images as the 0-based bytes that gather and push take
        (innermaps.zero_based), computed once per map."""
        if self._image_bytes is None:
            self._image_bytes = zero_based(self.images)
        return self._image_bytes

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


def pull_mask(rows, t):
    """The pair mask whose bit (x, y) is digits[t(x)-1][t(y)-1], for the
    translate_rows of rows of b"0"/b"1" digits and the 0-based images t
    of a bijection."""
    return int(gather(rows, t), 2)


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


class HalfClass(namedtuple("HalfClass", "kind hom_pairs anti_pairs witness_hom witness_anti")):
    """Per-pair census of the two laws for one half-morphism: its
    HalfKind and the number of pairs obeying each law.

    witness_hom is the lexicographically least pair satisfying only the
    forward law, witness_anti the least pair satisfying only the
    reversed law; each is None when no such pair exists.
    """

    __slots__ = ()


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


class SearchStats(namedtuple("SearchStats",
                             "nodes prunes leaves rejected representatives compositions lookup_nodes")):
    """Work counters of one search.  In the subtrees searched directly:
    images tried, images the law check refused, complete assignments
    reached, and complete assignments that make_half_map refused.  Then
    the images of generators searched directly, at every generator level;
    the maps not found directly, each composed with automorphisms; and
    the images tried while looking for those automorphisms."""

    __slots__ = ()


class HalfEnumeration(namedtuple("HalfEnumeration", "maps complete stats", defaults=(None,))):
    """Half-maps in image-tuple order (maps, a HalfMaps) and whether they
    are all of them (complete).  stats, a SearchStats, is None unless the
    search made the enumeration."""

    __slots__ = ()


class HalfMaps:
    """Half-maps held as entries (maps, transversals): each s in maps
    stands for the weight(transversals) maps a_1 o ... o a_d o s, with
    each a_j the identity or an automorphism in the j-th transversal
    (orbit_maps).  len() builds no map; the first read lists every map in
    image-tuple order and keeps the list."""

    def __init__(self, entries: tuple):
        self.entries = entries

    def __len__(self):
        return sum(len(maps) * weight(ts) for maps, ts in self.entries)

    def __getitem__(self, i):
        return self._listing[i]

    def __iter__(self):
        return iter(self._listing)

    @cached_property
    def _listing(self):
        return tuple(sorted(self.expanded(), key=attrgetter("images")))

    def expanded(self):
        """Every map, each built when it is reached, entry by entry."""
        return (m for maps, ts in self.entries for s in maps for m in orbit_maps(s, ts))


def weight(transversals):
    """The number of maps that a map of an entry stands for: the product
    of 1 + len(T) over the entry's transversals T."""
    return prod(len(t) + 1 for t in transversals)


def orbit_maps(s, transversals):
    """s, then every other a_1 o ... o a_d o s (see HalfMaps), built with
    the masks of s (the mask transport in enumerate_half_automorphisms).
    Each map after s costs one composition, made when it is reached."""
    if not transversals:
        yield s
        return
    *outer, inner = transversals
    yield from orbit_maps(s, outer)
    for alpha in inner:
        yield from orbit_maps(HalfMap(s.domain, s.codomain, _composed(alpha, s.images), s.hom, s.anti), outer)


def _composed(alpha, images):
    return tuple(map((0, *alpha).__getitem__, images))


def weighted_maps(enum):
    """The pairs (s, transversals), one per map s of an entry of
    enum.maps, standing for the weight(transversals) maps of
    orbit_maps(s, transversals), each alpha o s for an automorphism
    alpha = a_1 o ... o a_d.  A value computed once on s holds for each of
    them when fn(alpha o s) == fn(s) for every automorphism alpha and
    half-map s; each caller says why."""
    return ((s, ts) for maps, ts in enum.maps.entries for s in maps)


def enumerate_half_automorphisms(L, limit=None) -> HalfEnumeration:
    """All half-morphisms from a loop to itself, in image-tuple order.

    The search assigns images depth first in the table's generation
    order (see _generation_order): 1 first, then generators g_1, g_2, ...,
    each followed by the products it brings in.  A generator may take a
    free image that commutes with as many elements as it does.  A product
    c = a*b, with a and b already mapped, may take only t(a)*t(b) or
    t(b)*t(a), and only while that image is free.  After each assignment
    one rule prunes: for every mapped y, a pair (x, y) or (y, x) whose
    product is already mapped must obey the half law.  Every complete
    assignment is checked on all n*n pairs by make_half_map; a leaf it
    refuses is dropped and counted.

    At a node where generator g_k comes next, the images of g_k are
    walked in ascending order; the maps below the node with t(g_k) = w
    form the subtree of w, found in one of two ways.

    Composed: when an automorphism alpha of L fixes every image assigned
    before g_k and sends to w an earlier image x of g_k at the node, one
    searched directly whose subtree reached a leaf, the subtree of w is
    alpha o s for the maps s of x's subtree, and alpha joins x's
    transversal.  alpha is found by the same depth-first search in a
    hom-law-only mode, along the generation order whose first generators
    are the images assigned before g_k, then x, with each of those images
    fixed and t(x) = w: a product takes only t(a)*t(b), the pruning rule
    asks the forward law alone, a complete assignment counts when it
    preserves every product, and the search stops at the first one.  That
    assignment is an automorphism: it preserves every product, and it is
    a bijection because the search assigns only free images.  If x is not
    a generator of that order, the alpha found may fix x; that happens
    only where no half-map lies below the node (Prefix subloop, below),
    so it composes an empty subtree onto an empty one.

    Searched directly: any other w; the search descends with t(g_k) = w.

    Completeness and soundness rest on six facts.

    - Composition.  For an automorphism alpha and a half-map s, alpha o s
      is a bijection and alpha(s(x*y)) is alpha(s(x)*s(y)) =
      alpha(s(x))*alpha(s(y)) or alpha(s(y)*s(x)) = alpha(s(y))*alpha(s(x)),
      so alpha o s is a half-map.
    - Stabilizer.  If alpha fixes every image assigned before g_k and
      sends x to w, then s -> alpha o s maps the half-maps below the node
      with s(g_k) = x onto those with t(g_k) = w, with inverse
      t -> alpha^-1 o t.  So a composed subtree is complete and sound
      exactly when x's is.  An automorphism that fixes the images of
      g_1, ..., g_(k-1) fixes every image assigned before g_k: each is
      t(a)*t(b) or t(b)*t(a) for images assigned before it, and
      alpha(u*v) = alpha(u)*alpha(v).
    - Commuting counts.  No half-map is lost by trying only images that
      commute with as many elements as the generator: a half-map
      t keeps each element's commuting count.  If x*y != y*x, then t(x*y)
      and t(y*x) are distinct, since t is injective, and both lie in
      {t(x)*t(y), t(y)*t(x)}, so t(x) and t(y) do not commute.  Thus the
      bijection (x, y) -> (t(x), t(y)) of L x L sends the finitely many
      non-commuting pairs into themselves, hence onto themselves, and so
      the commuting pairs onto the commuting pairs.  For each x it sends
      the y commuting with x onto the y' commuting with t(x).  An
      automorphism is a half-map, so the lookups use the same rule.
    - Prefix subloop.  The elements listed before g_k form a subloop P,
      closed under products.  If a half-map t lies below the node, t(P),
      the images assigned before g_k, is closed under products too: for
      a, b in P, if a*b != b*a then {t(a*b), t(b*a)} = {t(a)*t(b),
      t(b)*t(a)}, and if a*b = b*a then t(a) and t(b) commute and
      t(a*b) = t(a)*t(b).  A finite subset of a loop closed under products
      is a subloop, so no free image lies in the subloop those images
      generate.
    - Mask transport.  alpha o s gets the hom and anti masks of s without
      a pair walk.  alpha is an injective homomorphism, so
      s(x*y) = s(x)*s(y) exactly when alpha(s(x*y)) = alpha(s(x))*alpha(s(y)),
      and likewise for the reversed law.
    - Disjoint subtrees.  Below a node every half-map has exactly one
      image of g_k, and each tried image is searched or composed once, so
      every map is listed once.  The direct search is complete because
      every element is listed once, the product candidates are the only
      images the half law allows, and the pruning rule is a necessary
      condition; it is sound because each kept map passed make_half_map.
      Whether an automorphism is found changes only the work: an image
      with none is searched directly.

    Factored weights.  A map s found directly lies, at each generator
    level j, in the subtree of an image x_j searched directly, and T_j,
    the transversal of x_j, holds the automorphisms composed from it.
    Going up from the deepest level, the subtree of x_j and those
    composed from it are a o (x_j's subtree) for a the identity or in
    T_j, disjoint, since each a sends x_j to a different image; so s
    stands for the maps a_1 o ... o a_d o s, each a_j the identity or in
    T_j, all distinct: weight(T_1, ..., T_d) maps.  They all lie in the
    coset Aut(L) o s, and the maps found directly are one per coset, the
    first in the search order.  For if s and alpha o s, alpha not the
    identity, were both found directly, let g_j be the first generator on
    which they differ: one exists, since the images of the generators
    generate L and only the identity fixes them all.  alpha fixes the
    images of g_1, ..., g_(j-1), so it fixes every image s assigns before
    g_j (Stabilizer): both maps lie below one node, where s(g_j) and
    alpha(s(g_j)) were both searched directly with leaves below them.
    But the later of the two would have found alpha, its inverse or
    another such automorphism, and been composed.  So, as long as
    make_half_map refuses no half-map, s stands for all of Aut(L) o s,
    and every weight is |Aut(L)|.

    The result holds the maps as HalfMaps.  Its entries are one per image
    searched directly at the last generator level with maps below it:
    those maps and the transversals of the images on their path, one per
    generator level, lists that are empty where nothing was composed.  No
    product of automorphisms is built.  A complete result is kept in the
    table's memo and returned to every later call without a limit.  With
    limit set, the result holds the first limit maps found, and the
    search does no work past the last of them, so stats count the work
    up to it.  When the limit falls inside a composed subtree alpha o
    (x's subtree), the first maps of x's subtree, in the order of its
    entries and orbit_maps, are composed with alpha and built, as many as
    the limit has room for, and held as one more entry with no
    transversals.  Such a result is flagged incomplete whenever it holds
    limit maps, even if no map is left out, must not feed census claims,
    and is never stored.  Its maps need not be the least in image-tuple
    order, nor the maps that a plain depth-first search finds first.
    """
    if limit is None:
        return _complete_enumeration(L)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    return _search(L, limit)


@memoized
def _complete_enumeration(L):
    return _search(L, None)


def _generation_order(L, lead=()):
    """Every element once, as (c, a, b) with c = a*b for a and b listed
    before c, or (c, 0, 0) when c is a generator; (1, 0, 0) comes first.

    Each generator is followed by the products of the listed elements,
    breadth first, until nothing new appears.  The elements of lead are
    the first generators, in order, each unless already listed.  The
    others are chosen by the number of elements they commute with, fewest
    first, then by label.  Half-morphisms keep that number, so the choice
    depends on the labels only to break ties.
    """
    n = L.order
    rows = L.rows
    commuting = _commuting(L)
    order = [(1, 0, 0)]
    listed = {1}
    for g in (*lead, *sorted(range(1, n + 1), key=lambda x: (commuting[x - 1], x))):
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
    entries = {}  # id of a path of transversals -> (the maps found directly below it, the path)
    room = limit or inf  # the maps still to take
    for path, item in _dfs(L, _generation_order(L), counts):
        if item.__class__ is HalfMap:
            entries.setdefault(id(path), ([], path))[0].append(item)
            room -= 1
        else:  # a subtree is item o the subtree below path, whose maps the entries below path hold
            j = len(path)
            below = HalfMaps(tuple((maps, ts[j:]) for maps, ts in entries.values() if ts[j - 1] is path[-1]))
            if len(below) > room:  # the limit falls inside it
                entries[None] = ([HalfMap(L, L, _composed(item, m.images), m.hom, m.anti)
                                  for m in islice(below.expanded(), room)], ())
                break
            path[-1].append(item)
            room -= len(below)
        if not room:
            break
    held = HalfMaps(tuple(entries.values()))
    counts[5] = len(held) - counts[2] + counts[3]  # compositions: the maps not found directly
    return HalfEnumeration(held, limit is None or len(held) < limit, SearchStats(*counts))


def _dfs(L, order, tally, fixed=None):
    """The depth-first search of L along a generation order (see
    enumerate_half_automorphisms).

    Without fixed, the search of the half-maps.  It yields (path, m) for
    each map m found directly, and (path, alpha) when the subtree of an
    image of a generator is alpha o the subtree below path; path holds
    one transversal per generator level above, a list, the transversal of
    the image composed from last.  It adds to tally every SearchStats
    counter but compositions.  No lookup starts from an image whose
    subtree reached no leaf: it would only spare searching empty subtrees.

    With fixed, a dict, the automorphism lookup: a product takes only
    t(a)*t(b), the pruning rule asks the forward law alone, and a
    generator x in fixed takes only fixed[x].  It yields (path, images)
    for every complete assignment and adds the images tried to tally[6].
    """
    n = L.order
    mul = [(0,) * (n + 1), *((0, *r) for r in L.rows)]  # mul[x][y] = x*y = col[y][x], 1-based
    col = list(zip(*mul))
    commuting = _commuting(L)
    hom = fixed is not None
    tried = 6 if hom else 0
    mapped = [c for c, _, _ in order]
    img = [0, 1] + [0] * (n - 1)  # the image of each element, 0 while unassigned
    free = [False, False] + [True] * (n - 1)

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

    def dfs(k, path):
        if k == n:
            images = tuple(img[1:])
            if not hom:
                tally[2] += 1  # leaves
                try:
                    images = make_half_map(L, L, images)
                except HalfMapError:
                    tally[3] += 1  # rejected
                    return
            yield path, images
            return
        x, a, b = order[k]
        level = not (a or hom)  # a generator level of the half-map search
        if a:
            u = mul[img[a]][img[b]]
            v = mul[img[b]][img[a]]
            candidates = (u,) if hom or u == v else (u, v)
        elif hom and x in fixed:
            candidates = (fixed[x],)
        else:
            candidates = [w for w in range(2, n + 1) if commuting[w - 1] == commuting[x - 1]]
        direct = []  # per image of x searched directly with leaves below: its path, itself, the fixed images, its lookup order
        for w in candidates:
            if not free[w]:
                continue
            child = path
            if level:
                hit = next(((p, alpha) for p, v, lead, o in direct
                            for _, alpha in _dfs(L, o, tally, {**lead, v: w})
                            if _preserves_products(product_bytes(L), zero_based(alpha))), None)
                if hit:
                    yield hit
                    continue
                tally[4] += 1  # representatives
                child = (*path, [])
            tally[tried] += 1
            img[x] = w
            free[w] = False
            leaves = tally[2]
            if consistent(k, x):
                yield from dfs(k + 1, child)
            elif not hom:
                tally[1] += 1  # prunes
            free[w] = True
            if level and tally[2] > leaves:
                lead = {img[c]: img[c] for c in mapped[1:k]}  # the images assigned before x, each fixed
                direct.append((child, w, lead, _generation_order(L, (*lead, w))))
        img[x] = 0

    return dfs(1, ())


def half_maps_form_group_check(L, enumeration) -> bool:
    """The set S of half-morphisms of L in a complete enumeration is a
    group under composition.

    This holds for every finite loop: t1(t2(x*y)) is t1 of t2(x)*t2(y)
    or of t2(y)*t2(x), so composites are half-morphisms, and a finite set
    of permutations closed under composition is a group.  So the check
    tests the enumeration, not the loop.

    S, a finite set of permutations, lies in the group <S> it generates,
    so S is a group exactly when |<S>| = |S|; |S| is len(maps), whose
    maps are distinct (the factored weights in
    enumerate_half_automorphisms).  <S> is generated by the maps of the
    entries and the distinct automorphisms of their transversals, each
    passed once: each map of S is a product of them, and each
    automorphism is a half-map and so in S.
    """
    if not enumeration.complete:
        raise ValueError("group check needs a complete enumeration")
    entries = enumeration.maps.entries
    generators = [s.images for maps, _ in entries for s in maps]
    generators += dict.fromkeys(alpha for _, ts in entries for t in ts for alpha in t)
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
    t = m.image_bytes
    return push(_sandwiches(m.domain)[0].flat, t) == gather(_sandwiches(m.codomain)[0].rows, t)


class GGTriple(namedtuple("GGTriple", "x y z")):
    __slots__ = ()


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


class TheoremReport(namedtuple("TheoremReport", "name order moufang automorphic automorphic_witness "
                                                 "hypotheses_hold total census proper_maps", defaults=((),))):
    """The main-theorem verdict on one loop: census counts each kind, and
    proper_maps holds at most PROPER_SHOWN proper maps found directly.
    automorphic_witness names an inner map that is not an automorphism,
    or is None."""

    __slots__ = ()

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


class HalfCensus(namedtuple("HalfCensus", "counts proper")):
    """counts holds (HalfKind, count) pairs in HalfKind order, and proper
    the pairs (s, transversals) of weighted_maps whose s is proper."""

    __slots__ = ()


@memoized
def half_census(L) -> HalfCensus:
    """Kind counts over the complete enumeration of L and its proper
    maps, classified once per table and held immutable.

    The kind is classified once per map found directly and counted
    weight(transversals) times (weighted_maps): it reads only the masks,
    and each map that s stands for carries the masks of s (the mask
    transport in enumerate_half_automorphisms).  verify_main_theorem and
    the main-theorem suite both read this census."""
    counts = dict.fromkeys(HalfKind, 0)
    proper = []
    for s, ts in weighted_maps(enumerate_half_automorphisms(L)):
        kind = classify(s).kind
        counts[kind] += weight(ts)
        if kind is HalfKind.PROPER_HALF:
            proper.append((s, ts))
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
