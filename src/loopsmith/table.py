"""Finite loops given by their Cayley tables.

A loop of order n lives on the elements 1..n and element 1 is the
two-sided identity.  ``rows[x-1][y-1]`` holds the product x*y.  Left and
right division are read off the rows and columns once at construction
time, so all later queries are table lookups.

The one word table is commutators().  Commutation and association are
each read in one pass per table, innermaps.noncommuting (one pair mask,
which _commuting counts row by row) and closure._association, and the
flags, nuclei, commutant and witness triples are views of those passes.

Every command loads this module, so the input loader lives here too:
load_loop reads a .loop file or a catalog key into a CatalogEntry, and
imports the .loop reader (loopformat) only when it reads a file and the
catalog only for a name that could be a key (README, "Start-up").
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple
from itertools import product

from .errors import LoopFileError, TableValidationError

# per-map comparisons hold elements as bytes (see innermaps.ByteTable)
MAX_ORDER = 256


class MoufangFlags(namedtuple("MoufangFlags", "left right middle")):
    """One flag per Moufang identity, checked independently: left is
    ((x*y)*x)*z == x*(y*(x*z)), right ((x*y)*z)*y == x*(y*(z*y)) and middle
    (x*y)*(z*x) == (x*(y*z))*x."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.left and self.right and self.middle


class ValidationReport(namedtuple("ValidationReport", "is_quasigroup has_identity identity_index violations")):
    """Outcome of checking a raw table; clean iff violations is empty.
    identity_index is None when there is no identity."""

    __slots__ = ()

    @property
    def is_loop(self) -> bool:
        return self.is_quasigroup and self.has_identity


def validate(raw) -> ValidationReport:
    """Check a raw square of ints for the quasigroup and identity laws.

    Violations are (kind, witness) pairs.  Kinds: "empty", "too-large"
    with (order, MAX_ORDER), "not-square", "bad-entry" with (row, column,
    value), "row-not-latin" with (row, col1, col2) naming two equal
    cells, "column-not-latin" with (column, row1, row2), and
    "no-identity".
    """
    n = len(raw)
    if n == 0:
        return ValidationReport(False, False, None, [("empty", ())])
    if n > MAX_ORDER:
        return ValidationReport(False, False, None, [("too-large", (n, MAX_ORDER))])
    violations = []
    square = True
    for i, row in enumerate(raw, start=1):
        if len(row) != n:
            violations.append(("not-square", (i, len(row))))
            square = False
    if not square:
        return ValidationReport(False, False, None, violations)
    entries_ok = True
    for x, row in enumerate(raw, start=1):
        for y, v in enumerate(row, start=1):
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                violations.append(("bad-entry", (x, y, v)))
                entries_ok = False
    if not entries_ok:
        return ValidationReport(False, False, None, violations)
    columns = list(zip(*raw))
    # a line is row x of raw or column x, its cells at positions y
    for kind, lines in (("row-not-latin", raw), ("column-not-latin", columns)):
        for x, line in enumerate(lines, start=1):
            seen = {}
            for y, v in enumerate(line, start=1):
                if v in seen:
                    violations.append((kind, (x, seen[v], y)))
                else:
                    seen[v] = y
    is_quasigroup = not violations
    target = tuple(range(1, n + 1))
    identity = next((e for e in target if tuple(raw[e - 1]) == target == columns[e - 1]), None)
    if identity is None:
        violations.append(("no-identity", ()))
    return ValidationReport(is_quasigroup, identity is not None, identity, violations)


def too_large_message(n) -> str:
    return "order %d is above the limit of %d" % (n, MAX_ORDER)


def relabel(raw, perm):
    """Rewrite a table under the renaming x -> perm[x-1]."""
    n = len(raw)
    out = [[0] * n for _ in range(n)]
    for x in range(1, n + 1):
        px = perm[x - 1]
        for y in range(1, n + 1):
            out[px - 1][perm[y - 1] - 1] = perm[raw[x - 1][y - 1] - 1]
    return out


def cayley(elements, product):
    """The table of product on a list of elements, which the product must
    keep: rows labeled 1, 2, ... in list order, and the label of each
    element.  Every constructed table is built here."""
    label = {e: i for i, e in enumerate(elements, start=1)}
    return tuple(tuple(label[product(a, b)] for b in elements) for a in elements), label


def memoized(fn):
    """Store fn(table) in that table's own memo, computing it once.

    This is the package's one cache for per-table results.  The memo
    lives and dies with its table, so restricted subtables and relabeled
    copies never share results, and nothing pins a table in memory.
    """
    key = "%s.%s" % (fn.__module__, fn.__qualname__)

    @functools.wraps(fn)
    def cached(table):
        memo = table._memo
        if key not in memo:
            memo[key] = fn(table)
        return memo[key]

    return cached


@memoized
def _commuting(L) -> tuple:
    """The number of elements y with x*y == y*x, at [x-1] for each x: n
    less the bits set in row x of innermaps.noncommuting."""
    from .innermaps import noncommuting

    n = L.order
    mask, row = noncommuting(L), (1 << n) - 1
    return tuple(n - (mask >> x * n & row).bit_count() for x in range(n))


def _swap_labels(n, a, b):
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


class LoopTable:
    """Immutable, validated multiplication table of a finite loop.

    Construction runs full validation and raises TableValidationError on
    any defect.  When the two-sided identity of a clean table is not
    element 1, pass normalize=True to relabel by the transposition that
    moves it there; otherwise construction is refused.
    """

    def __init__(self, rows, name=None, normalize=False):
        report = validate(rows)
        if len(rows) > MAX_ORDER:
            raise TableValidationError(report, too_large_message(len(rows)))
        if not report.is_loop:
            raise TableValidationError(report)
        if report.identity_index != 1:
            if not normalize:
                raise TableValidationError(
                    report,
                    "identity is element %d, not 1 (normalize to relabel)" % report.identity_index,
                )
            rows = relabel(rows, _swap_labels(len(rows), 1, report.identity_index))
        self.order = len(rows)
        self.rows = tuple(tuple(r) for r in rows)
        self.name = name
        n = self.order
        ld = [[0] * n for _ in range(n)]
        rd = [[0] * n for _ in range(n)]
        for x in range(n):
            row = self.rows[x]
            for y in range(n):
                v = row[y]
                ld[x][v - 1] = y + 1   # x \ v
                rd[y][v - 1] = x + 1   # v / (y+1)
        self._ld = tuple(tuple(r) for r in ld)
        self._rd = tuple(tuple(r) for r in rd)
        self._memo = {}

    # -- basic protocol ------------------------------------------------

    def __repr__(self):
        label = self.name or "loop"
        return "LoopTable(%s, order=%d)" % (label, self.order)

    def __eq__(self, other):
        return isinstance(other, LoopTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @property
    def elements(self):
        return range(1, self.order + 1)

    def _check(self, *xs):
        for x in xs:
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.order:
                raise ValueError("element %r out of range 1..%d" % (x, self.order))

    # -- products and divisions ----------------------------------------

    def mul(self, x, y):
        """x*y."""
        self._check(x, y)
        return self.rows[x - 1][y - 1]

    def right_inverse(self, x):
        """The unique b with x*b = 1."""
        self._check(x)
        return self._ld[x - 1][0]

    def element_order(self, x) -> int:
        """Least k >= 1 with the k-th left power of x equal to 1.

        Left powers stack products on the left: x^1 = x and x^(k+1) =
        x * x^(k).  So x^k is the image of 1 under the k-th power of the
        left translation by x, which permutes the n elements; the orbit
        of 1 under a permutation is a cycle through 1, so the walk meets 1
        again within n steps.
        """
        self._check(x)
        row = self.rows[x - 1]
        k, p = 1, x
        while p != 1:
            p = row[p - 1]
            k += 1
        return k

    # -- words ---------------------------------------------------------

    @memoized
    def commutators(self) -> tuple:
        """[x, y] = ((x' * y') * x) * y at [x-1][y-1], x' the right inverse of x.

        Left-normed bracketing throughout.  On Moufang tables the value
        is 1 exactly when x and y commute; on rough tables the word can
        disagree with a direct product comparison, so test commutativity
        with mul when that is what you mean.
        """
        rows = self.rows
        inv = [r[0] for r in self._ld]
        return tuple(
            tuple(rows[rows[rows[inv[x] - 1][inv[y] - 1] - 1][x] - 1][y] for y in range(self.order))
            for x in range(self.order)
        )

    def associator(self, x, y, z):
        """(x, y, z) = (x*(y*z)) \\ ((x*y)*z); 1 iff the triple associates."""
        self._check(x, y, z)
        rows = self.rows
        return self._ld[rows[x - 1][rows[y - 1][z - 1] - 1] - 1][rows[rows[x - 1][y - 1] - 1][z - 1] - 1]

    # -- global properties ---------------------------------------------

    def is_commutative(self) -> bool:
        return min(_commuting(self)) == self.order

    def is_flexible(self) -> bool:
        """(x*y)*x == x*(y*x) for all x, y."""
        from .innermaps import _sandwiches

        left, right = _sandwiches(self)
        return left.flat == right.flat

    def is_associative(self) -> bool:
        from .closure import _association

        return not _association(self).first

    @memoized
    def moufang_report(self) -> MoufangFlags:
        """Evaluate the three Moufang identities separately.

        Each identity is read, for every pair (x, y), as an equation
        between two maps of the free variable, each a composition of
        translations held as innermaps' 256-byte translate tables, and
        compared on their first n bytes:

        - left: the row of (x*y)*x against row_x, then row_y, then row_x;
        - right, in the renamed form z*(x*(y*x)) == ((z*x)*y)*x: the
          column of x*(y*x) against col_x, then col_y, then col_x;
        - middle: col_x then the row of x*y, against row_y, then row_x,
          then col_x.
        """
        from .innermaps import column_bytes, product_bytes

        R, C = product_bytes(self).rows, column_bytes(self).rows
        n = self.order
        row, col = [r[:n] for r in R], [c[:n] for c in C]
        left = all(row[R[R[x][y]][x]] == row[x].translate(R[y]).translate(R[x])
                   for x, y in product(range(n), repeat=2))
        right = all(col[R[x][C[x][y]]] == col[x].translate(C[y]).translate(C[x])
                    for x, y in product(range(n), repeat=2))
        middle = all(col[x].translate(R[R[x][y]]) == row[y].translate(R[x]).translate(C[x])
                     for x, y in product(range(n), repeat=2))
        return MoufangFlags(left, right, middle)

    def is_moufang(self) -> bool:
        return self.moufang_report().holds

    @memoized
    def is_diassociative(self) -> bool:
        """True when every subloop generated by two elements is a group.

        A group is diassociative: each of its subloops is a subgroup.
        Otherwise the pairs x <= y of elements other than 1 are walked as
        a cover.  A pair whose two elements lie in a subloop already found
        to be a group is skipped; any other pair is closed, and its
        closure is either a group, whose pairs are then all covered, or
        the answer False.

        This is exact.  Every two-generated subloop is <x, y> for some
        such pair, since 1 lies in every subloop and <x, y> = <y, x>.  A
        skipped pair lies in a group G, so <x, y> is a product-closed
        subset of G, where every triple associates: a group.  A pair
        that is closed is decided by its own closure.
        """
        if self.is_associative():
            return True
        from .closure import _close, _make_subloop

        n = self.order
        covered = [0] * (n + 1)  # bit y of covered[x]: x and y lie in a group found so far
        for x in range(2, n + 1):
            for y in range(x, n + 1):
                if covered[x] >> y & 1:
                    continue
                H = _make_subloop(self, _close(self, (x, y)))
                if not H.is_group:
                    return False
                mask = sum(1 << h for h in H.elements)
                for h in H.elements:
                    covered[h] |= mask
        return True


class CatalogEntry:
    """A loop with its key, its expected properties, each mapped to
    (value, provenance), and its featured half-map images, if any."""

    __slots__ = ("key", "table", "expected", "featured_half_map")

    def __init__(self, key: str, table: LoopTable, expected: dict | None = None,
                 featured_half_map: tuple | None = None):
        self.key = key
        self.table = table
        self.expected = {} if expected is None else expected
        self.featured_half_map = featured_half_map


def load_loop(path, normalize=False) -> CatalogEntry:
    """Read a .loop file, or fall back to a catalog key; the catalog is
    imported only for a name that is not a file and could be a key."""
    # no catalog key holds a path separator or ends in .loop
    could_be_key = not (path.endswith(".loop") or os.sep in path or (os.altsep or os.sep) in path)
    if could_be_key and not os.path.exists(path):
        from . import catalog as cat

        if path in cat.catalog_keys():
            return cat.builtin(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoopFileError("cannot read %s: %s" % (path, exc)) from exc
    from .loopformat import parse_loop_file

    return parse_loop_file(text, normalize=normalize)
