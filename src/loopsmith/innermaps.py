"""Permutations and inner mappings.

Permutations are tuples of length n with images[i-1] the image of
element i.  Per-map comparisons of table-shaped arrays run on byte
strings (ByteTable, gather, push), which is why table.validate refuses
orders above 256; so does bracketings, the one associativity comparison.

Inner maps are bytes inside this module, written once as chains of
translate tables (inner_maps), which the scans here and subloops.is_normal
read; they become tuples only at inner_l, inner_r, inner_t and a witness.
"""

from __future__ import annotations

from collections import namedtuple

from .table import memoized

Perm = tuple


def perm_from_cycles(n, cycles) -> Perm:
    """Build a permutation of 1..n from disjoint cycles like [(3, 5), (4, 6)]."""
    images = list(range(1, n + 1))
    seen = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= n:
                raise ValueError("cycle entry %r out of range 1..%d" % (a, n))
            if a in seen:
                raise ValueError("cycles are not disjoint at %d" % a)
            seen.add(a)
        for i, a in enumerate(cyc):
            images[a - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def cycles_str(p) -> str:
    """Cycle notation with ascending least elements, e.g. "(3,5)(4,6)(7,8)"."""
    n = len(p)
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start] or p[start - 1] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt - 1]
        parts.append("(%s)" % ",".join(map(str, cyc)))
    return "".join(parts) if parts else "()"


def check_bijection(images, n):
    """Raise ValueError unless images is a bijection of 1..n."""
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images are not a bijection on 1..%d" % n)


def zero_based(images) -> bytes:
    """The images of a bijection as the bytes t(x)-1, the form that
    gather and push take."""
    return bytes(i - 1 for i in images)


class ByteTable(namedtuple("ByteTable", "rows flat")):
    """A table-shaped array over 1..n, at most 256 wide, as bytes of its
    0-based entries: rows holds row x-1 as a 256-byte translate table,
    and flat every entry in gather order."""

    __slots__ = ()


def translate_rows(rows) -> tuple:
    """Rows of bytes, at most 256 long, as the translate tables gather reads."""
    return tuple(row.ljust(256, b"\0") for row in rows)


def byte_table(array) -> ByteTable:
    return ByteTable(translate_rows(bytes(c - 1 for c in row) for row in array),
                     bytes(c - 1 for row in reversed(array) for c in reversed(row)))


def gather(rows, t) -> bytes:
    """The bytes array[t(x)-1][t(y)-1] - 1 over every pair (x, y), pair
    (n, n) first and pair (1, 1) last, for the rows of a ByteTable and
    0-based images t.  Reading a row at the columns t(y) applies that row
    to t, so each row of the result is one translate."""
    rev = t[::-1]
    return b"".join(map(rev.translate, map(rows.__getitem__, rev)))


def push(flat, t) -> bytes:
    """The bytes t(array[x-1][y-1]) - 1, in gather's order, for the flat
    entries of a ByteTable and 0-based images t."""
    return flat.translate(t.ljust(256, b"\0"))


@memoized
def product_bytes(L) -> ByteTable:
    """byte_table(L.rows), built once per table: row x-1 maps y-1 to
    x*y - 1."""
    return byte_table(L.rows)


@memoized
def column_bytes(L) -> ByteTable:
    """byte_table of the columns, built once per table: row y-1 maps
    x-1 to x*y - 1."""
    return byte_table(tuple(zip(*L.rows)))


_EQ = b"1" + b"0" * 255  # byte 0 to digit "1", every other byte to "0"


def _agreement(got, gathered):
    """The pair mask of the pairs where the int of pushed bytes and the
    gathered bytes, both in gather order, agree."""
    diff = got ^ int.from_bytes(gathered, "big")
    return int(diff.to_bytes(len(gathered), "big").translate(_EQ), 2)


@memoized
def noncommuting(L) -> int:
    """The pair mask of the pairs (x, y) with x*y != y*x, built once per
    table: the package's one comparison of x*y with y*x."""
    full = (1 << L.order * L.order) - 1
    return full & ~_agreement(int.from_bytes(product_bytes(L).flat, "big"), column_bytes(L).flat)


@memoized
def _sandwiches(L):
    """The byte tables of (u*v)*u and of u*(v*u), entry [u-1][v-1], built
    once per table; equal exactly when L is flexible.  Each reads row u,
    then column u, of the rows or the columns."""
    rng = range(L.order)
    return tuple(byte_table([[a[a[u][v] - 1][u] for v in rng] for u in rng])
                 for a in (L.rows, tuple(zip(*L.rows))))


def bracketings(rows, x, y, over) -> tuple:
    """z -> x*(y*z) and z -> (x*y)*z over the 0-based elements over, as
    bytes, for 0-based x, y and the rows of product_bytes; on column_bytes
    rows, z -> (z*y)*x and z -> z*(y*x).  Equal iff the pair associates."""
    return over.translate(rows[y]).translate(rows[x]), over.translate(rows[rows[x][y]])


# -- inner mappings ----------------------------------


@memoized
def _formulas(L) -> dict:
    """The inner-map families l, r and t (inner_l, inner_r, inner_t) as
    functions (over, x, y) -> the bytes p(z)-1 over the 0-based elements
    over, for 0-based x and y; t ignores y.  Built once per table, with
    the rows of L._ld and L._rd as translate tables: LD[x] maps v to x\\v."""
    R, C = product_bytes(L).rows, column_bytes(L).rows
    LD, RD = (translate_rows(bytes(c - 1 for c in row) for row in div) for div in (L._ld, L._rd))
    return {"l": lambda over, x, y: over.translate(R[y]).translate(R[x]).translate(LD[R[x][y]]),
            "r": lambda over, x, y: over.translate(C[x]).translate(C[y]).translate(RD[R[x][y]]),
            "t": lambda over, x, y: over.translate(C[x]).translate(LD[x])}


def inner_maps(L, over, families="lrt"):
    """(family, x, y, p) for every generator of the named families, in
    that order, then by 0-based x and y (None for "t"); p is the bytes
    p(z)-1 over the 0-based elements over."""
    formulas = _formulas(L)
    n = range(L.order)
    for family in families:
        f = formulas[family]
        for x in n:
            for y in (None,) if family == "t" else n:
                yield family, x, y, f(over, x, y)


def _perm(p) -> Perm:
    """The 1-based permutation of the bytes p over every element."""
    return tuple(c + 1 for c in p)


def inner_l(L, x, y) -> Perm:
    """z -> (x*y) \\ (x*(y*z)); fixes 1."""
    L._check(x, y)
    return _perm(_formulas(L)["l"](bytes(range(L.order)), x - 1, y - 1))


def inner_r(L, x, y) -> Perm:
    """z -> ((z*x)*y) / (x*y); fixes 1."""
    L._check(x, y)
    return _perm(_formulas(L)["r"](bytes(range(L.order)), x - 1, y - 1))


def inner_t(L, x) -> Perm:
    """z -> x \\ (z*x); fixes 1."""
    L._check(x)
    return _perm(_formulas(L)["t"](bytes(range(L.order)), x - 1, None))


def _preserves_products(products, t) -> bool:
    """Does the 0-based bijection t preserve every product of the
    ByteTable products?"""
    return push(products.flat, t) == gather(products.rows, t)


def is_automorphism(L, p) -> bool:
    """Does the permutation preserve every product?"""
    if len(p) != L.order:
        raise ValueError("permutation degree %d does not match order %d" % (len(p), L.order))
    check_bijection(p, L.order)
    return _preserves_products(product_bytes(L), zero_based(p))


def _first_failure(L, families, passed):
    """First (family, x, y, perm) of the named families, in inner_maps
    order, whose map is not an automorphism, or None.  A map in passed is
    skipped, and each one that passes is added: inner maps repeat a lot
    (on Z64 all 8256 generators are the identity), and skipping only
    passed ones keeps the first failure in scan order."""
    products = product_bytes(L)
    for family, x, y, p in inner_maps(L, bytes(range(L.order)), families):
        if p not in passed:
            if not _preserves_products(products, p):
                return family, x + 1, None if y is None else y + 1, _perm(p)
            passed.add(p)
    return None


@memoized
def _left_witness(L):
    """The first generator of the left family whose map is not an
    automorphism (None when there is none), with the set of maps that
    passed."""
    passed = set()
    return _first_failure(L, "l", passed), passed


@memoized
def inner_map_witness(L):
    """First inner-mapping generator that is not an automorphism.

    Scans the two-parameter left family, then the right family, then the
    one-parameter conjugation-like family, each in ascending element
    order.  Returns (family, x, y, perm) or None when all generators are
    automorphisms; family is "l", "r" or "t" and y is None for "t".
    """
    left, passed = _left_witness(L)
    if left is not None:
        return left
    return _first_failure(L, "rt", set(passed))


def is_automorphic(L) -> bool:
    """All inner-mapping generators are automorphisms."""
    return inner_map_witness(L) is None


def is_left_automorphic(L) -> bool:
    """All generators of the two-parameter left family are automorphisms."""
    return _left_witness(L)[0] is None

