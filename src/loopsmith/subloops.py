"""The lattice of small-generated subloops, normality and quotients,
and the Sylow-style searches.

All functions take a validated LoopTable.  The closure primitive, the
nuclei, the commutant, the center and the derived subloops live in
closure.py; their names stay bound here, where the suites, the tests and
the benchmark's tracer look them up.

This module holds the one lattice of small-generated subloops: the
subloops generated by at most two and at most three elements
(two_generated, three_generated), grown once per table one generator
at a time from the cyclic subloops.  Each step closes a subloop H with
one element g outside it, starting from H as a closed base, so no
product inside H is formed again.  It then skips g's whole two-sided
orbit under H, the closure of g under x -> x*h and x -> h*x for h in H:
every element of the orbit generates the same subloop with H.  That is
exact because a product-closed set that contains 1 is a subloop, so
it is closed under division too: x = g*h gives g = x/h, and x = h*g
gives g = h\\x, so each of g and x lies in the subloop that the other
generates with H.
"""

from __future__ import annotations

from collections import namedtuple

from .closure import (  # noqa: F401
    Subloop, _close, _make_subloop, associator_subloop, center, commutant, commutative_nilpotency_class,
    commutator_subloop, generate_subloop, is_closed, nucleus, nucleus_left, nucleus_middle, nucleus_right,
)
from .innermaps import byte_table, column_bytes, gather, product_bytes, push, zero_based
from .table import InternalCheckError, LoopTable, QuotientError, cayley, memoized


def _grow(L, family):
    """The family together with every subloop generated by one of its
    sets and one element outside it, as a set of element tuples.

    Closes once per two-sided orbit under each set (see the module
    docstring).  Each set new to the family is re-checked once by
    is_closed.
    """
    rows, cols = product_bytes(L).rows, column_bytes(L).rows
    out = set(family)
    for H in family:
        base = bytes(h - 1 for h in H)
        done = set(base)
        for g in range(L.order):
            if g in done:
                continue
            K = tuple(sorted(_close(L, (g + 1,), H)))
            if K not in out:
                out.add(_make_subloop(L, K).elements)
            done.add(g)
            orbit = [g]
            while orbit:
                x = orbit.pop()
                new = set(base.translate(rows[x]))
                new.update(base.translate(cols[x]))
                new -= done
                done |= new
                orbit.extend(new)
    return out


@memoized
def two_generated(L) -> tuple:
    """Sorted element tuples of the subloops generated by one or two
    elements other than 1."""
    return tuple(sorted(_grow(L, _grow(L, [(1,)])) - {(1,)}))


@memoized
def three_generated(L) -> tuple:
    """Sorted element tuples of the subloops generated by one, two or
    three elements other than 1."""
    return tuple(sorted(_grow(L, two_generated(L))))


@memoized
def three_generated_tables(L) -> tuple:
    """The pairs (elements, table) over three_generated(L), with table the
    restriction of L to elements.  A table is built once per distinct set
    of restricted rows, and the rows of the whole loop give L itself, so
    equal restrictions share one table and its memo.  The sets are not
    checked again: _grow checked each one when it grew the lattice."""
    tables = {L.rows: L}
    out = []
    for elements in three_generated(L):
        rows = _restricted_rows(L, elements)[0]
        if rows not in tables:
            tables[rows] = LoopTable(rows)
        out.append((elements, tables[rows]))
    return tuple(out)


# -- normality and quotients ------------------------------------------


class Quotient(namedtuple("Quotient", "table projection")):
    """The factor table, and projection[x-1], the coset index of x."""

    __slots__ = ()


def quotient(L, H) -> Quotient:
    """Factor table on the cosets x*H, with cosets named by least member.

    Raises QuotientError when the cosets fail to partition the loop or
    when coset products depend on the chosen representatives; both
    signal that H is not normal.

    The second check compares projection[a*b] with the product of the
    projections over every pair at once, as bytes, so it also proves the
    projection a homomorphism.  Pair by pair it is representative
    independence: with ra, rb the representatives of a, b, projection[a*b]
    is index[coset_of[a*b]] and the product of the projections is
    qrows[index[ra]-1][index[rb]-1], that is index[coset_of[ra*rb]]; index
    is a bijection, so the two agree exactly when coset_of[a*b] ==
    coset_of[ra*rb].  Only on a mismatch are the pairs walked, to name the
    first that fails.  LoopTable keeps qrows as given: the coset of 1 is H,
    whose least member 1 makes it coset 1.
    """
    rows = L.rows
    n = L.order
    hset = sorted(set(H.elements))
    coset_of = [0] * (n + 1)
    reps = []
    for x in range(1, n + 1):
        if coset_of[x]:
            continue
        block = sorted(rows[x - 1][h - 1] for h in hset)
        if x not in block:
            raise QuotientError("coset of %d does not contain it: %r" % (x, block))
        for y in block:
            if coset_of[y]:
                raise QuotientError(
                    "cosets overlap: %d lies in the blocks of %d and %d" % (y, coset_of[y], x)
                )
        reps.append(block[0])
        for y in block:
            coset_of[y] = block[0]
    reps.sort()
    qrows, index = cayley(reps, lambda a, b: coset_of[rows[a - 1][b - 1]])
    projection = tuple(index[coset_of[x]] for x in range(1, n + 1))
    p = zero_based(projection)
    if push(product_bytes(L).flat, p) != gather(byte_table(qrows).rows, p):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                ra, rb = coset_of[a], coset_of[b]
                if coset_of[rows[a - 1][b - 1]] != coset_of[rows[ra - 1][rb - 1]]:
                    raise QuotientError(
                        "coset product ill defined: (%d,%d) vs representatives (%d,%d)"
                        % (a, b, ra, rb)
                    )
    name = None
    if L.name:
        name = "%s/%s" % (L.name, "{%s}" % ",".join(map(str, hset)))
    return Quotient(LoopTable(qrows, name=name), projection)


def is_normal(L, H) -> bool:
    """Whether quotient(L, H) succeeds.

    This is exact.  When H is normal its left cosets partition L and the
    coset product is well defined, so quotient succeeds.  When quotient
    succeeds, the projection is a homomorphism onto a loop whose kernel,
    the coset of 1, is H; a kernel is normal."""
    try:
        quotient(L, H)
    except QuotientError:
        return False
    return True


@memoized
def associator_quotient(L) -> Quotient | None:
    """The quotient by the associator subloop, or None when that subloop
    is not normal (quotient refuses it, see is_normal); computed once per
    table, so callers must not mutate it."""
    try:
        return quotient(L, associator_subloop(L))
    except QuotientError:
        return None


def _restricted_rows(L, elems):
    """The rows of L on a closed, sorted element tuple, relabeled 1..k
    in that order, as a tuple of tuples, and the relabeling old_to_new."""
    rows = L.rows
    return cayley(elems, lambda a, b: rows[a - 1][b - 1])


def restriction(L, elements, name=None):
    """Relabel a closed element set as a standalone LoopTable.

    Returns (table, old_to_new).  Raises InternalCheckError when the set
    is not closed.
    """
    elems = tuple(sorted(set(elements)))
    if not is_closed(L, elems):
        raise InternalCheckError("restriction to a non-closed set: %r" % (elems,))
    rows, old_to_new = _restricted_rows(L, elems)
    return LoopTable(rows, name=name), old_to_new


# -- Sylow-style searches ---------------------------------------------


class SubloopSearch(namedtuple("SubloopSearch", "subloop target")):
    """The order searched for, target, and the Subloop found, or None
    when there is no subloop of that order."""

    __slots__ = ()


def _p_part(n, p):
    t = 1
    while n % p == 0:
        n //= p
        t *= p
    return t


def sylow_subloop(L, p) -> SubloopSearch:
    """Search for a subloop whose order is the exact p-part of |L|.

    First closes the set of all elements of p-power left order.  When
    that misses, returns the first set of three_generated(L) of the
    target order whose elements all have p-power order, or None.

    On a Moufang loop these are exactly the subloops of the target order
    that one to three p-elements generate.  Each such set is generated by
    at most three of its own elements, so it lies in three_generated(L);
    and by Lagrange's theorem for Moufang loops (Grishkov and
    Zavarnitsine, 2005) the order of each element divides the order of
    any subloop that holds it, so a subloop of p-power order holds only
    p-elements.  On other loops, a subloop of the target order that holds
    an element of another order is not returned.
    """
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError("p must be prime, got %r" % (p,))
    target = _p_part(L.order, p)
    orders = {x: L.element_order(x) for x in L.elements}
    pelems = {x for x, k in orders.items() if _p_part(k, p) == k}
    full = generate_subloop(L, pelems)
    if len(full) == target:
        return SubloopSearch(full, target)
    for elements in three_generated(L):
        if len(elements) == target and pelems.issuperset(elements):
            # grown sets were re-checked by is_closed when the lattice was built
            return SubloopSearch(Subloop(L, elements), target)
    return SubloopSearch(None, target)


def hall_3prime_subgroup(L) -> SubloopSearch:
    """Closure of all elements of left order coprime to 3.

    The closure is returned when its order equals the 3'-part of the
    loop order.  It need not lie in the nucleus or be a group: both
    fail for some tables that still carry an exact 3'-part subloop.
    """
    target = L.order // _p_part(L.order, 3)
    H = generate_subloop(L, [x for x in L.elements if L.element_order(x) % 3])
    return SubloopSearch(H if len(H) == target else None, target)
