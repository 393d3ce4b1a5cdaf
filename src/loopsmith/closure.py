"""Generated subloops and the subloops read off one pass over a table.

All functions take a validated LoopTable and work with plain element
sets.  Generated subloops are fixed-point closures under the product
alone: in a finite loop, every left and right translation by a member
maps a product-closed set injectively into itself, so the set is closed
under both divisions too.  is_closed re-checks all three operations
independently of that fact.

Associativity compares the bracketings of pairs (innermaps.bracketings):
once per table over every pair in _association, which is_associative, the
nuclei and the associator subloop read, and over a subset in is_group.

analyze needs only this module.  The lattice of small-generated
subloops, the quotients and the Sylow-style searches live in subloops.py,
so that analyze does not compile them (README, "Start-up").
"""

from __future__ import annotations

from collections import namedtuple
from operator import eq

from .innermaps import bracketings, column_bytes, product_bytes
from .table import InternalCheckError, LoopTable, _commuting, memoized


class Subloop:
    """A subloop of parent, given by its elements: sorted, always with 1.
    Memoized results hand the same Subloop to every caller, so treat it as
    immutable."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: LoopTable, elements: tuple):
        self.parent = parent
        self.elements = elements

    @property
    def is_group(self) -> bool:
        return _associative_on(self.parent, self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in set(self.elements)


def is_closed(L, elements) -> bool:
    """Independent re-check: closed under product and both divisions, has 1."""
    s = set(elements)
    if 1 not in s:
        return False
    for a in s:
        row, ld, rd = L.rows[a - 1], L._ld[a - 1], L._rd[a - 1]
        for b in s:
            if row[b - 1] not in s or ld[b - 1] not in s or rd[b - 1] not in s:
                return False
    return True


def _close(L, seed, closed=(1,)):
    """The least product-closed set that holds the seed and the closed
    base, a set that already contains 1 and is closed under the product.

    Members of the base are never queued, so no product inside the base
    is formed; every other pair has a queued member, which forms both of
    its products against all members when it leaves the queue.  Works on
    0-based bytes: one translate forms the products of a queued member
    with every member, on each side, and one more finds any new ones.
    """
    rows, cols = product_bytes(L).rows, column_bytes(L).rows
    members = bytearray(c - 1 for c in closed)
    queue = list({g - 1 for g in seed} - set(members))
    members.extend(queue)
    inside = bytearray(256)  # inside[c] is 1 when c is a member
    for c in members:
        inside[c] = 1
    while queue:
        a = queue.pop()
        products = members.translate(rows[a]) + members.translate(cols[a])
        if 0 in products.translate(inside):  # some product is not a member yet
            new = {c for c in products if not inside[c]}
            for c in new:
                inside[c] = 1
            members.extend(new)
            queue.extend(new)
    return {c + 1 for c in members}


def _associative_on(L, elems):
    """Every pair of elems has equal bracketings over elems."""
    rows = product_bytes(L).rows
    over = bytes(c - 1 for c in elems)
    return all(eq(*bracketings(rows, a, b, over)) for a in over for b in over)


def _make_subloop(L, elems):
    elements = tuple(sorted(elems))
    if not is_closed(L, elements):
        raise InternalCheckError("computed subloop is not closed: %r" % (elements,))
    return Subloop(L, elements)


def generate_subloop(L, seed) -> Subloop:
    """Least subloop containing the seed."""
    for g in seed:
        L._check(g)
    return _make_subloop(L, _close(L, seed))


@memoized
def commutator_subloop(L) -> Subloop:
    """Subloop generated by all commutators [x, y]."""
    return _make_subloop(L, _close(L, {c for row in L.commutators() for c in row}))


class Association(namedtuple("Association", "first second third values")):
    """The elements of the triples (x, y, z) with x*(y*z) != (x*y)*z, as
    sets: first holds every x of such a triple, second every y, third
    every z, and values every associator (x*(y*z)) \\ ((x*y)*z)."""

    __slots__ = ()


@memoized
def _association(L) -> Association:
    """The one pass over the pairs (x, y) that compares their bracketings,
    computed once per table, so callers must not mutate it.

    The z of a pair are the nonzero bytes of p XOR q, for its bracketings
    p: z -> x*(y*z) and q: z -> (x*y)*z.  Its associator values are
    p(z) \\ q(z), that is v \\ s(v) over every v for s = maketrans(p, q),
    since p is a bijection; few pairs have distinct s.
    """
    rows, over = product_bytes(L).rows, bytes(range(L.order))
    first, second, sends, moved = set(), set(), set(), 0
    for x in over:
        for y in over:
            p, q = bracketings(rows, x, y, over)
            if p != q:
                first.add(x + 1)
                second.add(y + 1)
                moved |= int.from_bytes(p, "big") ^ int.from_bytes(q, "big")
                sends.add(bytes.maketrans(p, q))
    third = {z + 1 for z, c in enumerate(moved.to_bytes(L.order, "big")) if c}
    return Association(first, second, third, {L._ld[v][s[v]] for s in sends for v in over})


@memoized
def associator_subloop(L) -> Subloop:
    """Subloop generated by all associator values; computed once per
    table, so callers must not mutate it."""
    return _make_subloop(L, _close(L, _association(L).values))


# -- nuclei, commutant, center ----------------------------------------


def nucleus_left(L) -> Subloop:
    """Elements a with (a, x, y) = 1 for all x, y."""
    return _make_subloop(L, set(L.elements) - _association(L).first)


def nucleus_middle(L) -> Subloop:
    """Elements a with (x, a, y) = 1 for all x, y."""
    return _make_subloop(L, set(L.elements) - _association(L).second)


def nucleus_right(L) -> Subloop:
    """Elements a with (x, y, a) = 1 for all x, y."""
    return _make_subloop(L, set(L.elements) - _association(L).third)


@memoized
def nucleus(L) -> Subloop:
    """Intersection of the three one-sided nuclei."""
    return _make_subloop(L, set(L.elements).difference(*_association(L)[:3]))


@memoized
def commutant(L) -> frozenset:
    """Elements commuting with everything, as a set: it need not be a
    subloop in general."""
    return frozenset(a for a, count in enumerate(_commuting(L), 1) if count == L.order)


@memoized
def center(L) -> Subloop:
    """The commutant intersected with the nucleus; always a subloop."""
    members = commutant(L) & set(nucleus(L).elements)
    return _make_subloop(L, members)


def commutative_nilpotency_class(L) -> int | None:
    """Least k such that all left-normed commutator words of k+1 letters vanish.

    V_1 collects the commutators [x, y]; V_{k+1} collects [v, q] for v in
    V_k and q anywhere in the loop.  Returns the least k with V_k = {1}
    (so 1 for any commutative loop) or None when the sets stop changing
    without reaching {1}.
    """
    comm = L.commutators()
    current = {c for row in comm for c in row}
    seen = set()
    k = 1
    while True:
        if current == {1}:
            return k
        key = frozenset(current)
        if key in seen:
            return None
        seen.add(key)
        current = {c for v in current for c in comm[v - 1]}
        k += 1
