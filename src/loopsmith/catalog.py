"""Built-in loops, constructors for standard families, and .loop files.

The two featured tables Q1 (order 16, Moufang with a proper
half-morphism) and Q2 (order 8, all inner maps automorphisms, not
Moufang) are stored literally; a transcription checksum lives in the
test suite.  Every entry carries an expected-property map in which each
value is tagged with where it came from: "external" for values that
arrived together with the table, "trivial" for immediate consequences
of a construction, "derived" for values first computed here and frozen.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LoopFileError, TableValidationError
from .table import MAX_ORDER, LoopTable, too_large_message
# validate is unused here; it stays bound because the benchmark's test of
# its tracer (loopbench/test_loopbench.py) checks that this binding is wrapped
from .table import validate  # noqa: F401

Q1_ROWS = (
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
    (2, 4, 8, 6, 3, 1, 5, 7, 14, 9, 16, 10, 11, 12, 13, 15),
    (3, 5, 4, 7, 6, 8, 1, 2, 15, 13, 9, 11, 14, 16, 12, 10),
    (4, 6, 7, 1, 8, 2, 3, 5, 12, 14, 15, 9, 16, 10, 11, 13),
    (5, 7, 2, 8, 4, 3, 6, 1, 13, 11, 14, 16, 12, 15, 10, 9),
    (6, 1, 5, 2, 7, 4, 8, 3, 10, 12, 13, 14, 15, 9, 16, 11),
    (7, 8, 1, 3, 2, 5, 4, 6, 11, 16, 12, 15, 10, 13, 9, 14),
    (8, 3, 6, 5, 1, 7, 2, 4, 16, 15, 10, 13, 9, 11, 14, 12),
    (9, 10, 11, 12, 16, 14, 15, 13, 4, 6, 7, 1, 5, 2, 3, 8),
    (10, 12, 16, 14, 15, 9, 13, 11, 2, 4, 5, 6, 3, 1, 8, 7),
    (11, 13, 12, 15, 10, 16, 9, 14, 3, 8, 4, 7, 6, 5, 1, 2),
    (12, 14, 15, 9, 13, 10, 11, 16, 1, 2, 3, 4, 8, 6, 7, 5),
    (13, 15, 10, 16, 9, 11, 14, 12, 8, 7, 2, 5, 4, 3, 6, 1),
    (14, 9, 13, 10, 11, 12, 16, 15, 6, 1, 8, 2, 7, 4, 5, 3),
    (15, 16, 9, 11, 14, 13, 12, 10, 7, 5, 1, 3, 2, 8, 4, 6),
    (16, 11, 14, 13, 12, 15, 10, 9, 5, 3, 6, 8, 1, 7, 2, 4),
)

Q2_ROWS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 1, 4, 3, 6, 5, 8, 7),
    (3, 4, 1, 2, 7, 8, 6, 5),
    (4, 3, 2, 1, 8, 7, 5, 6),
    (5, 6, 8, 7, 1, 2, 4, 3),
    (6, 5, 7, 8, 2, 1, 3, 4),
    (7, 8, 5, 6, 3, 4, 2, 1),
    (8, 7, 6, 5, 4, 3, 1, 2),
)

# featured half-morphism witnesses, as image tuples
Q1_HALF_MAP = tuple(8 if x == 5 else 5 if x == 8 else x for x in range(1, 17))
Q2_HALF_MAP = (1, 2, 5, 6, 3, 4, 8, 7)


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


PROVENANCE_TAGS = ("external", "trivial", "derived")


# -- constructors ------------------------------------------------------


def make_cyclic(n) -> LoopTable:
    """Cyclic group: k*m = ((k-1 + m-1) mod n) + 1."""
    if n < 1:
        raise ValueError("order must be positive")
    rows = [[(i + j) % n + 1 for j in range(n)] for i in range(n)]
    t = LoopTable(rows, name="Z%d" % n)
    assert t.is_associative()
    return t


def make_dihedral(n) -> LoopTable:
    """Dihedral group of order n (n even, at least 4).

    Elements 1..n/2 are the rotations r^0..r^(n/2-1); the rest are the
    reflections s*r^0..s*r^(n/2-1), in that order.
    """
    if n < 4 or n % 2:
        raise ValueError("dihedral order must be even and at least 4")
    m = n // 2

    def label(flip, k):
        return (m if flip else 0) + k % m + 1

    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            rows[label(0, i) - 1][label(0, j) - 1] = label(0, i + j)
            rows[label(0, i) - 1][label(1, j) - 1] = label(1, j - i)
            rows[label(1, i) - 1][label(0, j) - 1] = label(1, i + j)
            rows[label(1, i) - 1][label(1, j) - 1] = label(0, j - i)
    t = LoopTable(rows, name="D%d" % n)
    assert t.is_associative()
    return t


def make_symmetric3() -> LoopTable:
    """Symmetric group on three letters via composition of one-line maps."""
    perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)]
    index = {p: i + 1 for i, p in enumerate(perms)}
    rows = [
        [index[tuple(p[q[i] - 1] for i in range(3))] for q in perms]
        for p in perms
    ]
    t = LoopTable(rows, name="S3")
    assert t.is_associative()
    return t


def make_quaternion8() -> LoopTable:
    """Quaternion group: 1, -1, i, -i, j, -j, k, -k in that order."""
    units = ["1", "i", "j", "k"]
    mult = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def label(sign, unit):
        return units.index(unit) * 2 + (1 if sign > 0 else 2)

    elems = [(s, u) for u in units for s in (1, -1)]
    elems.sort(key=lambda e: label(*e))
    rows = [[0] * 8 for _ in range(8)]
    for s1, u1 in elems:
        for s2, u2 in elems:
            s, u = mult[(u1, u2)]
            rows[label(s1, u1) - 1][label(s2, u2) - 1] = label(s1 * s2 * s, u)
    t = LoopTable(rows, name="Q8")
    assert t.is_associative()
    return t


def make_chein(G) -> LoopTable:
    """Double of a group: G plus a mirrored copy, Moufang by construction.

    With m = |G|, elements 1..m are G and m+g stands for the mirrored g.
    Products follow g*h = gh, g*(hu) = (hg)u, (gu)*h = (g h^-1)u,
    (gu)*(hu) = h^-1 g.  The result is a group exactly when G is
    commutative; both facts are asserted before returning.
    """
    m = G.order
    n = 2 * m
    rows = [[0] * n for _ in range(n)]
    grows = G.rows
    inv = [G.right_inverse(x) for x in range(1, m + 1)]
    for g in range(1, m + 1):
        for h in range(1, m + 1):
            rows[g - 1][h - 1] = grows[g - 1][h - 1]
            rows[g - 1][m + h - 1] = m + grows[h - 1][g - 1]
            rows[m + g - 1][h - 1] = m + grows[g - 1][inv[h - 1] - 1]
            rows[m + g - 1][m + h - 1] = grows[inv[h - 1] - 1][g - 1]
    name = "M(%s,2)" % (G.name or "G")
    t = LoopTable(rows, name=name)
    assert t.is_moufang()
    assert t.is_associative() == G.is_commutative()
    return t


# -- the catalog -------------------------------------------------------


def _group_expected(commutative):
    return {
        "associative": (True, "trivial"),
        "commutative": (commutative, "trivial"),
        "moufang": (True, "trivial"),
        "left_automorphic": (True, "trivial"),
        "automorphic": (True, "trivial"),
        "proper_half_exists": (False, "derived"),
    }


@lru_cache(maxsize=None)
def builtin(key) -> CatalogEntry:
    """Fetch one catalog entry by key; raises KeyError for unknown keys."""
    if key not in catalog_keys():
        raise KeyError("unknown catalog key %r" % (key,))
    if key == "Q1":
        return CatalogEntry(
            "Q1",
            LoopTable(Q1_ROWS, name="Q1"),
            {
                "associative": (False, "derived"),
                "commutative": (False, "derived"),
                "moufang": (True, "external"),
                "left_automorphic": (True, "external"),
                "automorphic": (False, "derived"),
                "proper_half_exists": (True, "external"),
            },
            Q1_HALF_MAP,
        )
    if key == "Q2":
        return CatalogEntry(
            "Q2",
            LoopTable(Q2_ROWS, name="Q2"),
            {
                "associative": (False, "derived"),
                "commutative": (False, "derived"),
                "moufang": (False, "external"),
                "left_automorphic": (True, "derived"),
                "automorphic": (True, "external"),
                "proper_half_exists": (True, "external"),
            },
            Q2_HALF_MAP,
        )
    if key == "S3":
        return CatalogEntry(key, make_symmetric3(), _group_expected(False))
    if key == "Q8":
        return CatalogEntry(key, make_quaternion8(), _group_expected(False))
    if key == "M(S3,2)":
        return CatalogEntry(
            key,
            make_chein(make_symmetric3()),
            {
                "associative": (False, "trivial"),
                "commutative": (False, "derived"),
                "moufang": (True, "trivial"),
                "left_automorphic": (False, "derived"),
                "automorphic": (False, "derived"),
                "proper_half_exists": (False, "derived"),
            },
        )
    if key.startswith("Z"):
        return CatalogEntry(key, make_cyclic(int(key[1:])), _group_expected(True))
    return CatalogEntry(key, make_dihedral(int(key[1:])), _group_expected(False))


@lru_cache(maxsize=None)
def catalog_keys() -> tuple:
    keys = ["Z%d" % n for n in range(1, 17)]
    keys += ["D%d" % n for n in range(6, 17, 2)]
    keys += ["S3", "Q8", "M(S3,2)", "Q1", "Q2"]
    return tuple(keys)


def entries():
    """All catalog entries in canonical key order."""
    return [builtin(k) for k in catalog_keys()]


def check_expected(entry) -> list:
    """Recompute every expected property; returns mismatch descriptions."""
    from .halfmorph import half_census
    from .innermaps import is_automorphic, is_left_automorphic

    t = entry.table
    problems = []
    for prop, (value, tag) in sorted(entry.expected.items()):
        if tag not in PROVENANCE_TAGS:
            problems.append("%s: unknown provenance %r" % (prop, tag))
        if prop == "associative":
            actual = t.is_associative()
        elif prop == "commutative":
            actual = t.is_commutative()
        elif prop == "moufang":
            actual = t.is_moufang()
        elif prop == "left_automorphic":
            actual = is_left_automorphic(t)
        elif prop == "automorphic":
            actual = is_automorphic(t)
        elif prop == "proper_half_exists":
            actual = bool(half_census(t).proper)
        else:
            problems.append("%s: no recomputation rule" % prop)
            continue
        if actual != value:
            problems.append("%s: expected %r, recomputed %r" % (prop, value, actual))
    return problems


# -- .loop files -------------------------------------------------------


def _read_structure(text):
    name = None
    normalize = False
    order = None
    rows = []
    row_lines = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if order is None and ":" in line:
            directive, _, value = line.partition(":")
            directive = directive.strip().lower()
            value = value.strip()
            if directive == "name":
                name = value
                continue
            if directive == "normalize":
                if value.lower() not in ("true", "false"):
                    raise LoopFileError("normalize takes true or false, got %r" % value, line=lineno)
                normalize = value.lower() == "true"
                continue
            raise LoopFileError("unknown directive %r" % directive, line=lineno)
        if order is None:
            try:
                order = int(line)
            except ValueError:
                raise LoopFileError("expected the order, got %r" % line, line=lineno) from None
            if order < 1:
                raise LoopFileError("order must be positive, got %d" % order, line=lineno)
            if order > MAX_ORDER:
                raise LoopFileError(too_large_message(order), line=lineno)
            continue
        if len(rows) == order:
            raise LoopFileError("extra row after %d table rows" % order, line=lineno)
        entries_ = line.split()
        values = []
        for col, tok in enumerate(entries_, start=1):
            try:
                values.append(int(tok))
            except ValueError:
                raise LoopFileError("entry %r is not an integer" % tok, line=lineno, column=col) from None
        if len(values) != order:
            raise LoopFileError(
                "row has %d entries, expected %d" % (len(values), order), line=lineno
            )
        rows.append(values)
        row_lines.append(lineno)
    if order is None:
        raise LoopFileError("file contains no table")
    if len(rows) != order:
        raise LoopFileError("found %d table rows, expected %d" % (len(rows), order))
    return rows, row_lines, name, normalize


def parse_loop_file(text, normalize=False) -> CatalogEntry:
    """Parse .loop text into a validated CatalogEntry.

    Structural defects raise LoopFileError at stage "parse"; tables that
    read fine but fail loop validation (or carry their identity away
    from element 1 without the normalize directive) raise at stage
    "table", pointing at the offending file line when one is known.
    """
    rows, row_lines, name, normalize_directive = _read_structure(text)
    try:
        table = LoopTable(rows, name=name, normalize=normalize or normalize_directive)
    except TableValidationError as exc:
        report = exc.report
        if report.is_loop:
            raise LoopFileError(str(exc), stage="table", report=report) from exc
        kind, witness = report.violations[0]
        line = column = None
        if kind in ("row-not-latin", "bad-entry"):
            line = row_lines[witness[0] - 1]
            column = witness[1] if kind == "bad-entry" else witness[2]
        elif kind == "column-not-latin":
            line = row_lines[witness[2] - 1]
            column = witness[0]
        raise LoopFileError(
            "table is not a loop: %s %r" % (kind, witness),
            line=line, column=column, stage="table", report=report,
        ) from exc
    return CatalogEntry(name or "loop", table)


def write_loop_file(entry) -> str:
    """Canonical .loop text: name directive, order, single-space rows."""
    table = entry.table if isinstance(entry, CatalogEntry) else entry
    name = entry.key if isinstance(entry, CatalogEntry) else (table.name or None)
    lines = []
    if name:
        lines.append("name: %s" % name)
    lines.append(str(table.order))
    for row in table.rows:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"
